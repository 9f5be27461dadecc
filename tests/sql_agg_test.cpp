// Tests for group-by, window aggregation and pivots — the Fig 4-b
// building blocks. Includes parameterized property checks.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sql/agg.hpp"
#include "sql/ops.hpp"

namespace oda::sql {
namespace {

Table readings() {
  Table t{Schema{{"time", DataType::kInt64},
                 {"node", DataType::kString},
                 {"value", DataType::kFloat64}}};
  // Two nodes, values 1..4 at t=0..3 and 10..13 at t=20..23.
  for (int i = 0; i < 4; ++i) {
    t.append_row({Value(std::int64_t{i}), Value("a"), Value(1.0 + i)});
    t.append_row({Value(std::int64_t{20 + i}), Value("b"), Value(10.0 + i)});
  }
  return t;
}

TEST(GroupByTest, BasicAggregates) {
  const Table g = group_by(readings(), {"node"},
                           {AggSpec{"value", AggKind::kSum, "sum"},
                            AggSpec{"value", AggKind::kMean, "mean"},
                            AggSpec{"value", AggKind::kMin, "mn"},
                            AggSpec{"value", AggKind::kMax, "mx"},
                            AggSpec{"value", AggKind::kCount, "n"}});
  ASSERT_EQ(g.num_rows(), 2u);
  // First-seen order: node "a" first.
  EXPECT_EQ(g.column("node").str_at(0), "a");
  EXPECT_DOUBLE_EQ(g.column("sum").double_at(0), 10.0);
  EXPECT_DOUBLE_EQ(g.column("mean").double_at(0), 2.5);
  EXPECT_DOUBLE_EQ(g.column("mn").double_at(1), 10.0);
  EXPECT_DOUBLE_EQ(g.column("mx").double_at(1), 13.0);
  EXPECT_EQ(g.column("n").int_at(0), 4);
}

TEST(GroupByTest, StdFirstLastQuantiles) {
  const Table g = group_by(readings(), {"node"},
                           {AggSpec{"value", AggKind::kStd, "sd"},
                            AggSpec{"value", AggKind::kFirst, "f"},
                            AggSpec{"value", AggKind::kLast, "l"},
                            AggSpec{"value", AggKind::kP50, "med"}});
  // std of {1,2,3,4} = sqrt(5/3).
  EXPECT_NEAR(g.column("sd").double_at(0), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(g.column("f").double_at(0), 1.0);
  EXPECT_DOUBLE_EQ(g.column("l").double_at(0), 4.0);
  EXPECT_NEAR(g.column("med").double_at(0), 2.0, 1.01);  // exact_quantile index semantics
}

TEST(GroupByTest, CountDistinctAndNullsIgnored) {
  Table t{Schema{{"k", DataType::kString}, {"v", DataType::kString}}};
  t.append_row({Value("g"), Value("x")});
  t.append_row({Value("g"), Value("x")});
  t.append_row({Value("g"), Value("y")});
  t.append_row({Value("g"), Value::null()});
  const Table g = group_by(t, {"k"},
                           {AggSpec{"v", AggKind::kCountDistinct, "d"},
                            AggSpec{"v", AggKind::kCount, "n"}});
  EXPECT_EQ(g.column("d").int_at(0), 2);
  EXPECT_EQ(g.column("n").int_at(0), 3);  // nulls not counted
}

TEST(GroupByTest, EmptyColumnCountStar) {
  // kCount with empty column name = COUNT(*).
  const Table g = group_by(readings(), {"node"}, {AggSpec{"", AggKind::kCount, "n"}});
  EXPECT_EQ(g.column("n").int_at(0), 4);
}

TEST(GroupByTest, DefaultOutputNames) {
  const Table g = group_by(readings(), {"node"}, {AggSpec{"value", AggKind::kMean, ""}});
  EXPECT_TRUE(g.schema().contains("mean_value"));
}

TEST(GroupByTest, NullKeysGroupTogether) {
  Table t{Schema{{"k", DataType::kString}, {"v", DataType::kFloat64}}};
  t.append_row({Value::null(), Value(1.0)});
  t.append_row({Value::null(), Value(2.0)});
  t.append_row({Value("a"), Value(3.0)});
  const Table g = group_by(t, {"k"}, {AggSpec{"v", AggKind::kSum, "s"}});
  ASSERT_EQ(g.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(g.column("s").double_at(0), 3.0);  // null group first-seen
}

// ---- typed numeric aggregates equal a boxed (Value) oracle ----

/// Key "k" (string, one null-key group) and numeric columns "i" (int64)
/// and "f" (float64), both with interleaved nulls. Groups in first-seen
/// order: c, a, <null>, b, d. Group d has one non-null "f" (std n<2) and
/// group b has no non-null "i".
Table numeric_groups() {
  Table t{Schema{{"k", DataType::kString}, {"i", DataType::kInt64}, {"f", DataType::kFloat64}}};
  const Value null = Value::null();
  t.append_row({Value("c"), Value(std::int64_t{7}), Value(0.5)});
  t.append_row({Value("a"), null, Value(-2.25)});
  t.append_row({null, Value(std::int64_t{-3}), null});
  t.append_row({Value("c"), Value(std::int64_t{1}), null});
  t.append_row({Value("b"), null, Value(3.0)});
  t.append_row({Value("a"), Value(std::int64_t{40}), Value(1.0e6)});
  t.append_row({Value("c"), Value(std::int64_t{-9}), Value(2.75)});
  t.append_row({Value("d"), Value(std::int64_t{5}), Value(8.0)});
  t.append_row({Value("b"), null, Value(3.5)});
  t.append_row({Value("c"), null, Value(-0.125)});
  t.append_row({null, Value(std::int64_t{11}), Value(4.0)});
  t.append_row({Value("a"), Value(std::int64_t{2}), Value(6.5)});
  t.append_row({Value("c"), Value(std::int64_t{4}), Value(9.0)});
  return t;
}

/// The aggregate over the non-null Values of `column`, computed from
/// boxed rows the way the Value path defines it.
Value boxed_agg(const std::vector<Value>& vals, AggKind kind) {
  std::vector<double> xs;
  for (const auto& v : vals) {
    if (!v.is_null()) xs.push_back(v.as_double());
  }
  if (kind == AggKind::kCount) return Value(static_cast<std::int64_t>(xs.size()));
  if (xs.empty()) return Value::null();
  double sum = 0.0, sumsq = 0.0, mn = xs[0], mx = xs[0];
  for (double x : xs) {
    sum += x;
    sumsq += x * x;
    mn = std::min(mn, x);
    mx = std::max(mx, x);
  }
  const double n = static_cast<double>(xs.size());
  switch (kind) {
    case AggKind::kSum: return Value(sum);
    case AggKind::kMean: return Value(sum / n);
    case AggKind::kMin: return Value(mn);
    case AggKind::kMax: return Value(mx);
    case AggKind::kStd:
      return Value(xs.size() < 2 ? 0.0 : std::sqrt(std::max(0.0, (sumsq - sum * sum / n) / (n - 1))));
    case AggKind::kP50: return Value(common::exact_quantile(xs, 0.50));
    case AggKind::kP95: return Value(common::exact_quantile(xs, 0.95));
    default: throw std::logic_error("not a numeric aggregate");
  }
}

TEST(GroupByTypedTest, NumericAggregatesEqualBoxedOracle) {
  const Table t = numeric_groups();
  const std::vector<AggKind> kinds{AggKind::kSum, AggKind::kMean, AggKind::kMin, AggKind::kMax,
                                   AggKind::kCount, AggKind::kStd, AggKind::kP50, AggKind::kP95};
  std::vector<AggSpec> aggs;
  for (const char* col : {"i", "f"}) {
    for (AggKind k : kinds) aggs.push_back(AggSpec{col, k, ""});
  }
  aggs.push_back(AggSpec{"", AggKind::kCount, "rows"});
  const std::vector<std::string> keys{"k"};
  const Table g = group_by(t, keys, aggs);

  // Oracle: group boxed rows in first-seen order.
  std::vector<Value> order;
  std::vector<std::vector<std::vector<Value>>> cols;  // group -> column(i,f) -> values
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    const std::vector<Value> row = t.row(r);
    std::size_t gi = 0;
    while (gi < order.size() && order[gi] != row[0]) ++gi;
    if (gi == order.size()) {
      order.push_back(row[0]);
      cols.emplace_back(2);
    }
    cols[gi][0].push_back(row[1]);
    cols[gi][1].push_back(row[2]);
  }
  Table want{g.schema()};
  for (std::size_t gi = 0; gi < order.size(); ++gi) {
    std::vector<Value> row{order[gi]};
    for (std::size_t c = 0; c < 2; ++c) {
      for (AggKind k : kinds) row.push_back(boxed_agg(cols[gi][c], k));
    }
    row.push_back(Value(static_cast<std::int64_t>(cols[gi][0].size())));
    want.append_row(row);
  }
  EXPECT_EQ(to_csv(g), to_csv(want));

  // First-seen group order, and the edge groups spelled out.
  ASSERT_EQ(g.num_rows(), 5u);
  EXPECT_EQ(g.column("k").str_at(0), "c");
  EXPECT_EQ(g.column("k").str_at(1), "a");
  EXPECT_TRUE(g.column("k").is_null(2));
  EXPECT_EQ(g.column("k").str_at(3), "b");
  EXPECT_EQ(g.column("k").str_at(4), "d");
  EXPECT_EQ(g.column("count_i").int_at(0), 4);  // count(col) skips nulls...
  EXPECT_EQ(g.column("rows").int_at(0), 5);     // ...count(*) does not
  EXPECT_EQ(g.column("count_i").int_at(3), 0);
  EXPECT_TRUE(g.column("sum_i").is_null(3));  // no non-null input
  EXPECT_TRUE(g.column("std_i").is_null(3));
  EXPECT_DOUBLE_EQ(g.column("std_f").double_at(4), 0.0);  // n < 2
  EXPECT_DOUBLE_EQ(g.column("sum_i").double_at(0), 3.0);  // 7 + 1 - 9 + 4
}

TEST(GroupByTypedTest, FirstLastCountDistinctStayBoxed) {
  const Table t = numeric_groups();
  const Table g = group_by(t, {"k"},
                           {AggSpec{"i", AggKind::kFirst, "fi"},
                            AggSpec{"i", AggKind::kLast, "li"},
                            AggSpec{"f", AggKind::kFirst, "ff"},
                            AggSpec{"i", AggKind::kCountDistinct, "di"},
                            AggSpec{"k", AggKind::kCount, "nk"}});
  EXPECT_EQ(g.schema().field(1).type, DataType::kInt64);  // first/last keep the input type
  EXPECT_EQ(to_csv(g),
            "k,fi,li,ff,di,nk\n"
            "c,7,4,0.5,4,5\n"
            "a,40,2,-2.25,2,3\n"
            ",-3,11,4,2,0\n"
            "b,,,3,0,2\n"
            "d,5,5,8,1,1\n");
}

TEST(WindowAggregateTest, FifteenSecondWindows) {
  Table t{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
  using common::kSecond;
  for (int s = 0; s < 45; ++s) t.append_row({Value(s * kSecond), Value(1.0)});
  const std::vector<std::string> no_keys;
  const std::vector<AggSpec> aggs{{"v", AggKind::kCount, "n"}};
  const Table w = window_aggregate(t, "time", 15 * kSecond, no_keys, aggs);
  ASSERT_EQ(w.num_rows(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(w.column("n").int_at(r), 15);
    EXPECT_EQ(w.column("window_start").int_at(r) % (15 * kSecond), 0);
  }
}

TEST(WindowAggregateTest, MeanMatchesManualComputation) {
  const Table t = readings();
  const std::vector<std::string> keys{"node"};
  const std::vector<AggSpec> aggs{{"value", AggKind::kMean, "m"}};
  const Table w = window_aggregate(t, "time", 100, keys, aggs);
  // Window 0 (t in [0,100)) node a: mean(1..4)=2.5; window 0 node b: 11.5.
  ASSERT_EQ(w.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(w.column("m").double_at(0), 2.5);
  EXPECT_DOUBLE_EQ(w.column("m").double_at(1), 11.5);
}

TEST(PivotTest, LongToWideStableColumnOrder) {
  Table t{Schema{{"w", DataType::kInt64}, {"sensor", DataType::kString}, {"v", DataType::kFloat64}}};
  t.append_row({Value(std::int64_t{0}), Value("z_temp"), Value(40.0)});
  t.append_row({Value(std::int64_t{0}), Value("a_power"), Value(100.0)});
  t.append_row({Value(std::int64_t{1}), Value("a_power"), Value(200.0)});
  const Table wide = pivot_wider(t, {"w"}, "sensor", "v");
  ASSERT_EQ(wide.num_rows(), 2u);
  // Sorted distinct names -> a_power before z_temp regardless of input order.
  EXPECT_EQ(wide.schema().field(1).name, "a_power");
  EXPECT_EQ(wide.schema().field(2).name, "z_temp");
  EXPECT_DOUBLE_EQ(wide.column("a_power").double_at(0), 100.0);
  EXPECT_TRUE(wide.column("z_temp").is_null(1));  // missing cell -> null
}

TEST(PivotTest, DuplicateCellsAveraged) {
  Table t{Schema{{"w", DataType::kInt64}, {"s", DataType::kString}, {"v", DataType::kFloat64}}};
  t.append_row({Value(std::int64_t{0}), Value("x"), Value(10.0)});
  t.append_row({Value(std::int64_t{0}), Value("x"), Value(20.0)});
  const Table wide = pivot_wider(t, {"w"}, "s", "v");
  EXPECT_DOUBLE_EQ(wide.column("x").double_at(0), 15.0);
}

TEST(PivotTest, NonStringNamesThrow) {
  Table t{Schema{{"w", DataType::kInt64}, {"s", DataType::kInt64}, {"v", DataType::kFloat64}}};
  EXPECT_THROW(pivot_wider(t, {"w"}, "s", "v"), std::invalid_argument);
}

TEST(PivotTest, LongerInvertsWider) {
  Table t{Schema{{"w", DataType::kInt64}, {"s", DataType::kString}, {"v", DataType::kFloat64}}};
  for (int w = 0; w < 3; ++w) {
    t.append_row({Value(std::int64_t{w}), Value("p"), Value(w * 1.0)});
    t.append_row({Value(std::int64_t{w}), Value("q"), Value(w * 2.0)});
  }
  const Table wide = pivot_wider(t, {"w"}, "s", "v");
  const std::vector<std::string> ids{"w"};
  const Table back = pivot_longer(wide, ids, "s", "v");
  EXPECT_EQ(back.num_rows(), 6u);
  // Re-pivot and compare a cell.
  const Table wide2 = pivot_wider(back, {"w"}, "s", "v");
  EXPECT_DOUBLE_EQ(wide2.column("q").double_at(2), 4.0);
}

// ---- property: group_by(sum) equals whole-table sum regardless of keys ----

class GroupBySumProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupBySumProperty, SumsPartitionTotal) {
  common::Rng rng(GetParam());
  Table t{Schema{{"k1", DataType::kInt64}, {"k2", DataType::kString}, {"v", DataType::kFloat64}}};
  double total = 0.0;
  const std::size_t n = 200 + rng.uniform_index(800);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.normal(0.0, 100.0);
    total += v;
    t.append_row({Value(static_cast<std::int64_t>(rng.uniform_index(7))),
                  Value("g" + std::to_string(rng.uniform_index(5))), Value(v)});
  }
  const Table g = group_by(t, {"k1", "k2"}, {AggSpec{"v", AggKind::kSum, "s"}});
  double partition_total = 0.0;
  for (std::size_t r = 0; r < g.num_rows(); ++r) partition_total += g.column("s").double_at(r);
  EXPECT_NEAR(partition_total, total, 1e-6 * std::max(1.0, std::abs(total)));
  EXPECT_LE(g.num_rows(), 35u);  // at most |k1| x |k2| groups
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupBySumProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- property: window counts partition the row count ----

class WindowCountProperty : public ::testing::TestWithParam<common::Duration> {};

TEST_P(WindowCountProperty, CountsPartitionRows) {
  common::Rng rng(99);
  Table t{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
  const std::size_t n = 1000;
  for (std::size_t i = 0; i < n; ++i) {
    t.append_row({Value(static_cast<std::int64_t>(rng.uniform_index(3600) * common::kSecond)),
                  Value(1.0)});
  }
  const std::vector<std::string> no_keys;
  const std::vector<AggSpec> aggs{{"v", AggKind::kCount, "n"}};
  const Table w = window_aggregate(t, "time", GetParam(), no_keys, aggs);
  std::int64_t sum = 0;
  for (std::size_t r = 0; r < w.num_rows(); ++r) sum += w.column("n").int_at(r);
  EXPECT_EQ(sum, static_cast<std::int64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowCountProperty,
                         ::testing::Values(common::kSecond, 15 * common::kSecond,
                                           common::kMinute, 10 * common::kMinute,
                                           common::kHour));

}  // namespace
}  // namespace oda::sql
