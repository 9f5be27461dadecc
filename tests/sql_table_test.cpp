// Unit tests for the columnar Table/Schema/Column/Value layer.
#include <gtest/gtest.h>

#include "sql/ops.hpp"
#include "sql/table.hpp"

namespace oda::sql {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value(std::int64_t{5}).type(), DataType::kInt64);
  EXPECT_EQ(Value(2.5).type(), DataType::kFloat64);
  EXPECT_EQ(Value("hi").type(), DataType::kString);
  EXPECT_EQ(Value(true).type(), DataType::kBool);
  EXPECT_TRUE(Value::null().is_null());
  EXPECT_EQ(Value(std::int64_t{5}).as_double(), 5.0);
  EXPECT_EQ(Value(2.9).as_int(), 2);
  EXPECT_EQ(Value(true).as_int(), 1);
  EXPECT_EQ(Value(std::int64_t{3}).as_bool(), true);
}

TEST(ValueTest, AccessorTypeErrors) {
  EXPECT_THROW(Value("x").as_int(), std::runtime_error);
  EXPECT_THROW(Value(1.0).as_string(), std::runtime_error);
  EXPECT_THROW(Value("x").as_bool(), std::runtime_error);
}

TEST(ValueTest, OrderingNullsFirstNumericCross) {
  EXPECT_TRUE(Value::null() < Value(std::int64_t{0}));
  EXPECT_FALSE(Value(std::int64_t{0}) < Value::null());
  EXPECT_TRUE(Value(std::int64_t{1}) < Value(1.5));  // numeric cross-type
  EXPECT_TRUE(Value("a") < Value("b"));
  EXPECT_TRUE(Value(1.0) < Value("a"));  // numerics before strings
}

TEST(ValueTest, EqualityAndToString) {
  EXPECT_EQ(Value(1.5), Value(1.5));
  EXPECT_NE(Value(1.5), Value(1.6));
  EXPECT_EQ(Value("x").to_string(), "x");
  EXPECT_EQ(Value(std::int64_t{42}).to_string(), "42");
  EXPECT_EQ(Value(true).to_string(), "true");
  EXPECT_EQ(Value::null().to_string(), "null");
}

TEST(SchemaTest, IndexLookup) {
  Schema s{{"a", DataType::kInt64}, {"b", DataType::kString}};
  EXPECT_EQ(s.index_of("a"), 0u);
  EXPECT_EQ(s.index_of("b"), 1u);
  EXPECT_EQ(s.index_of("c"), Schema::npos);
  EXPECT_TRUE(s.contains("b"));
  EXPECT_FALSE(s.contains("z"));
}

TEST(ColumnTest, TypedAppendAndNulls) {
  Column c(DataType::kFloat64);
  c.append_double(1.0);
  c.append_null();
  c.append_int(3);  // int into float column: widens
  EXPECT_EQ(c.size(), 3u);
  EXPECT_FALSE(c.is_null(0));
  EXPECT_TRUE(c.is_null(1));
  EXPECT_EQ(c.double_at(2), 3.0);
  EXPECT_EQ(c.null_count(), 1u);
}

TEST(ColumnTest, TypeMismatchThrows) {
  Column c(DataType::kString);
  EXPECT_THROW(c.append_double(1.0), std::runtime_error);
  Column b(DataType::kBool);
  EXPECT_THROW(b.append_string("x"), std::runtime_error);
}

TEST(ColumnTest, IntColumnNarrowsDoubles) {
  Column c(DataType::kInt64);
  c.append_double(2.7);
  EXPECT_EQ(c.int_at(0), 2);
}

class TableTest : public ::testing::Test {
 protected:
  Table t{Schema{{"time", DataType::kInt64},
                 {"host", DataType::kString},
                 {"value", DataType::kFloat64}}};
};

TEST_F(TableTest, AppendAndRead) {
  t.append_row({Value(std::int64_t{1}), Value("n0"), Value(2.5)});
  t.append_row({Value(std::int64_t{2}), Value("n1"), Value::null()});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.column("host").str_at(1), "n1");
  EXPECT_TRUE(t.column("value").is_null(1));
  const auto row = t.row(0);
  EXPECT_EQ(row[0].as_int(), 1);
  EXPECT_EQ(row[2].as_double(), 2.5);
}

TEST_F(TableTest, ArityMismatchThrows) {
  EXPECT_THROW(t.append_row({Value(std::int64_t{1})}), std::invalid_argument);
}

TEST_F(TableTest, UnknownColumnThrows) {
  EXPECT_THROW(t.col_index("nope"), std::out_of_range);
  EXPECT_THROW((void)t.column("nope"), std::out_of_range);
}

TEST_F(TableTest, TakePreservesOrderAndValues) {
  for (int i = 0; i < 10; ++i) {
    t.append_row({Value(std::int64_t{i}), Value("n" + std::to_string(i)), Value(i * 1.0)});
  }
  const std::vector<std::size_t> idx{7, 2, 2, 9};
  const Table sub = t.take(idx);
  ASSERT_EQ(sub.num_rows(), 4u);
  EXPECT_EQ(sub.column("time").int_at(0), 7);
  EXPECT_EQ(sub.column("time").int_at(1), 2);
  EXPECT_EQ(sub.column("time").int_at(2), 2);
  EXPECT_EQ(sub.column("time").int_at(3), 9);
}

TEST_F(TableTest, AppendTableRequiresSameSchema) {
  Table other{Schema{{"x", DataType::kInt64}}};
  EXPECT_THROW(t.append_table(other), std::invalid_argument);
  Table same{t.schema()};
  same.append_row({Value(std::int64_t{9}), Value("n"), Value(1.0)});
  t.append_table(same);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST_F(TableTest, TruncateDropsTail) {
  for (int i = 0; i < 5; ++i) {
    t.append_row({Value(std::int64_t{i}), Value("h"), Value(1.0 * i)});
  }
  t.truncate(2);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.column("time").int_at(1), 1);
  t.truncate(10);  // no-op past end
  EXPECT_EQ(t.num_rows(), 2u);
  t.truncate(0);
  EXPECT_TRUE(t.empty());
}

TEST_F(TableTest, ConstructFromColumnsValidates) {
  Column a(DataType::kInt64), b(DataType::kFloat64);
  a.append_int(1);
  b.append_double(2.0);
  Table ok(Schema{{"a", DataType::kInt64}, {"b", DataType::kFloat64}}, {a, b});
  EXPECT_EQ(ok.num_rows(), 1u);

  Column ragged(DataType::kFloat64);
  EXPECT_THROW(Table(Schema{{"a", DataType::kInt64}, {"b", DataType::kFloat64}},
                     std::vector<Column>{a, ragged}),
               std::invalid_argument);
  EXPECT_THROW(Table(Schema{{"a", DataType::kFloat64}}, std::vector<Column>{a}),
               std::invalid_argument);
}

TEST_F(TableTest, ToStringShowsRowsAndTruncation) {
  for (int i = 0; i < 30; ++i) {
    t.append_row({Value(std::int64_t{i}), Value("h"), Value(0.0)});
  }
  const std::string s = t.to_string(3);
  EXPECT_NE(s.find("rows=30"), std::string::npos);
  EXPECT_NE(s.find("more"), std::string::npos);
}

TEST(TableMemoryTest, MemoryGrowsWithRows) {
  Table t{Schema{{"v", DataType::kFloat64}}};
  const std::size_t before = t.memory_bytes();
  for (int i = 0; i < 10000; ++i) t.append_row({Value(1.0)});
  EXPECT_GT(t.memory_bytes(), before + 10000 * sizeof(double) / 2);
}

// --- typed row movers (append_rows / append_range / append_table / take /
// concat) must equal the same rows appended through append_row(Value...).

Table all_types() {
  Table t{Schema{{"i", DataType::kInt64},
                 {"f", DataType::kFloat64},
                 {"s", DataType::kString},
                 {"b", DataType::kBool}}};
  for (int r = 0; r < 9; ++r) {
    // Each column is null on a different stride so nulls interleave.
    t.append_row({r % 3 == 1 ? Value::null() : Value(std::int64_t{r * 10 - 7}),
                  r % 4 == 2 ? Value::null() : Value(r * 0.25 - 1.0),
                  r % 5 == 3 ? Value::null() : Value("s,\"" + std::to_string(r)),
                  r % 2 == 1 ? Value::null() : Value(r % 4 == 0)});
  }
  return t;
}

Table boxed_rows(const Table& src, std::span<const std::size_t> indices) {
  Table out{src.schema()};
  for (std::size_t i : indices) out.append_row(src.row(i));
  return out;
}

void expect_same_rows(const Table& got, const Table& want) {
  EXPECT_EQ(to_csv(got), to_csv(want));
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    for (std::size_t r = 0; r < want.num_rows(); ++r) {
      EXPECT_EQ(got.column(c).is_null(r), want.column(c).is_null(r)) << "col " << c << " row " << r;
    }
  }
}

TEST(TypedCopyTest, AppendRowsMatchesValueAppends) {
  const Table src = all_types();
  const std::vector<std::size_t> idx{5, 0, 3, 3, 8, 1};
  Table got{src.schema()};
  got.append_rows(src, idx);
  expect_same_rows(got, boxed_rows(src, idx));
  expect_same_rows(src.take(idx), boxed_rows(src, idx));
}

TEST(TypedCopyTest, AppendRangeAndTableMatchValueAppends) {
  const Table src = all_types();
  Table got{src.schema()};
  got.append_range(src, 2, 7);
  got.append_table(src);
  std::vector<std::size_t> idx{2, 3, 4, 5, 6};
  for (std::size_t i = 0; i < src.num_rows(); ++i) idx.push_back(i);
  expect_same_rows(got, boxed_rows(src, idx));
}

TEST(TypedCopyTest, ConcatMatchesValueAppends) {
  const Table src = all_types();
  const std::vector<std::size_t> a_idx{1, 2, 3}, b_idx{8, 0};
  const std::vector<Table> parts{src.take(a_idx), Table{src.schema()}, src.take(b_idx)};
  const std::vector<std::size_t> all{1, 2, 3, 8, 0};
  expect_same_rows(concat(parts), boxed_rows(src, all));
}

TEST(TypedCopyTest, SelfAppendCopiesTheRowsBeforeTheAppend) {
  Table t = all_types();
  const Table before = t;
  t.append_table(t);
  const std::vector<std::size_t> picks{8, 2, 0};
  t.append_rows(t, picks);
  std::vector<std::size_t> idx;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < before.num_rows(); ++i) idx.push_back(i);
  }
  idx.insert(idx.end(), picks.begin(), picks.end());
  expect_same_rows(t, boxed_rows(before, idx));
}

TEST(TypedCopyTest, EmptyRangesAndIndexListsAppendNothing) {
  const Table src = all_types();
  Table got{src.schema()};
  got.append_range(src, 4, 4);
  got.append_range(src, src.num_rows(), src.num_rows());
  got.append_rows(src, std::span<const std::size_t>{});
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(got.schema(), src.schema());
  EXPECT_TRUE(src.take(std::span<const std::size_t>{}).empty());
  EXPECT_TRUE(Table{src.schema()}.take(std::span<const std::size_t>{}).empty());
}

TEST(TypedCopyTest, MismatchesAndOutOfRangeThrow) {
  const Table src = all_types();
  Table other{Schema{{"i", DataType::kInt64}}};
  EXPECT_THROW(other.append_rows(src, std::vector<std::size_t>{0}), std::invalid_argument);
  EXPECT_THROW(other.append_range(src, 0, 1), std::invalid_argument);
  EXPECT_THROW(other.append_table(src), std::invalid_argument);
  // Same column types under another name is still a different schema.
  Table renamed{Schema{{"j", DataType::kInt64},
                       {"f", DataType::kFloat64},
                       {"s", DataType::kString},
                       {"b", DataType::kBool}}};
  EXPECT_THROW(renamed.append_table(src), std::invalid_argument);

  Table same{src.schema()};
  EXPECT_THROW(same.append_range(src, 3, src.num_rows() + 1), std::out_of_range);
  EXPECT_THROW(same.append_range(src, 5, 4), std::out_of_range);
  EXPECT_THROW(same.append_rows(src, std::vector<std::size_t>{0, src.num_rows()}), std::out_of_range);

  Column ints(DataType::kInt64);
  EXPECT_THROW(ints.append_from(Column(DataType::kFloat64), std::vector<std::size_t>{}),
               std::invalid_argument);
  EXPECT_THROW(ints.append_range(Column(DataType::kString), 0, 0), std::invalid_argument);
}

TEST(TypedCopyTest, SyncRowsAfterColumnAppends) {
  Table t{Schema{{"i", DataType::kInt64}, {"f", DataType::kFloat64}}};
  t.column_mut(0).append_int(4);
  t.column_mut(1).append_null();
  t.sync_rows();
  EXPECT_EQ(t.num_rows(), 1u);
  t.column_mut(0).append_int(5);
  EXPECT_THROW(t.sync_rows(), std::logic_error);
}

}  // namespace
}  // namespace oda::sql
