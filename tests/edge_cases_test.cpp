// Edge-case sweep across modules: behaviours not exercised by the main
// suites — EWMA smoothing semantics, empty/degenerate inputs, schema
// corner cases, broker boundary conditions.
#include <gtest/gtest.h>

#include <cmath>

#include "engine/engine.hpp"
#include "ml/nn.hpp"
#include "sql/agg.hpp"
#include "sql/expr.hpp"
#include "sql/ops.hpp"
#include "storage/columnar.hpp"
#include "stream/broker.hpp"

namespace oda {
namespace {

using common::kSecond;
using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

// ---- EwmaOp --------------------------------------------------------------

Table series_rows(std::initializer_list<std::pair<const char*, double>> points) {
  Table t{Schema{{"node", DataType::kString}, {"v", DataType::kFloat64}}};
  for (const auto& [node, v] : points) t.append_row({Value(node), Value(v)});
  return t;
}

TEST(EwmaOpTest, SmoothsPerKeyIndependently) {
  pipeline::EwmaOp op("e", {"node"}, "v", 0.5);
  op.begin_batch();
  auto out = op.process({series_rows({{"a", 10.0}, {"b", 100.0}, {"a", 20.0}, {"b", 0.0}}), 0});
  op.commit_batch();
  ASSERT_EQ(out.table.num_rows(), 4u);
  EXPECT_DOUBLE_EQ(out.table.column("ewma").double_at(0), 10.0);   // first obs seeds
  EXPECT_DOUBLE_EQ(out.table.column("ewma").double_at(1), 100.0);
  EXPECT_DOUBLE_EQ(out.table.column("ewma").double_at(2), 15.0);   // 0.5*20 + 0.5*10
  EXPECT_DOUBLE_EQ(out.table.column("ewma").double_at(3), 50.0);
  EXPECT_EQ(op.tracked_keys(), 2u);
}

TEST(EwmaOpTest, AlphaOneIsIdentity) {
  pipeline::EwmaOp op("e", {"node"}, "v", 1.0);
  op.begin_batch();
  auto out = op.process({series_rows({{"a", 5.0}, {"a", 7.0}}), 0});
  EXPECT_DOUBLE_EQ(out.table.column("ewma").double_at(1), 7.0);
}

TEST(EwmaOpTest, InvalidAlphaThrows) {
  EXPECT_THROW(pipeline::EwmaOp("e", {"node"}, "v", 0.0), std::invalid_argument);
  EXPECT_THROW(pipeline::EwmaOp("e", {"node"}, "v", 1.5), std::invalid_argument);
}

TEST(EwmaOpTest, NullsPassThroughWithoutPoisoningState) {
  Table t{Schema{{"node", DataType::kString}, {"v", DataType::kFloat64}}};
  t.append_row({Value("a"), Value(10.0)});
  t.append_row({Value("a"), Value::null()});
  t.append_row({Value("a"), Value(20.0)});
  pipeline::EwmaOp op("e", {"node"}, "v", 0.5);
  op.begin_batch();
  auto out = op.process({std::move(t), 0});
  EXPECT_TRUE(out.table.column("ewma").is_null(1));
  EXPECT_DOUBLE_EQ(out.table.column("ewma").double_at(2), 15.0);  // null didn't reset
}

TEST(EwmaOpTest, RollbackRestoresState) {
  pipeline::EwmaOp op("e", {"node"}, "v", 0.5);
  op.begin_batch();
  (void)op.process({series_rows({{"a", 10.0}}), 0});
  op.commit_batch();

  op.begin_batch();
  (void)op.process({series_rows({{"a", 1000.0}, {"z", 5.0}}), 0});
  op.rollback_batch();  // downstream failed
  EXPECT_EQ(op.tracked_keys(), 1u);  // "z" forgotten

  op.begin_batch();
  auto out = op.process({series_rows({{"a", 20.0}}), 0});
  op.commit_batch();
  EXPECT_DOUBLE_EQ(out.table.column("ewma").double_at(0), 15.0);  // as if batch 2 never ran
}

TEST(EwmaOpTest, CheckpointRoundTrip) {
  pipeline::EwmaOp op("e", {"node"}, "v", 0.25);
  op.begin_batch();
  (void)op.process({series_rows({{"a", 8.0}, {"b", 4.0}}), 0});
  op.commit_batch();
  pipeline::EwmaOp restored("e", {"node"}, "v", 0.25);
  restored.restore_state(op.checkpoint_state());
  EXPECT_EQ(restored.tracked_keys(), 2u);
  restored.begin_batch();
  auto a = restored.process({series_rows({{"a", 0.0}}), 0});
  EXPECT_DOUBLE_EQ(a.table.column("ewma").double_at(0), 6.0);  // 0.25*0 + 0.75*8
}

TEST(EwmaOpTest, InsideStreamingQuery) {
  stream::Broker broker;
  broker.create_topic("in", {1, 1 << 20, {}});
  auto producer = broker.producer("in");
  for (int i = 0; i < 20; ++i) {
    Table row{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
    row.append_row({Value(static_cast<common::TimePoint>(i) * kSecond),
                    Value(i % 2 == 0 ? 0.0 : 100.0)});  // square wave
    stream::Record rec;
    rec.timestamp = i * kSecond;
    const auto blob = storage::write_columnar(row);
    rec.payload.assign(reinterpret_cast<const char*>(blob.data()), blob.size());
    producer.produce(std::move(rec));
  }
  pipeline::QueryConfig qc;
  qc.name = "smooth";
  engine::Query q(qc, engine::SourceSpec{&broker, "in", "g", pipeline::decode_columnar_records},
                  1);
  q.add_operator(
      [] { return std::make_unique<pipeline::EwmaOp>("ewma", std::vector<std::string>{}, "v", 0.2); });
  auto sink = std::make_unique<pipeline::TableSink>();
  auto* out = sink.get();
  q.add_sink(std::move(sink));
  q.run_until_caught_up();
  ASSERT_EQ(out->table().num_rows(), 20u);
  // Smoothed square wave converges toward the mean and has far less
  // variance than the raw signal.
  double raw_var = 0, smooth_var = 0;
  for (std::size_t r = 1; r < 20; ++r) {
    const double rd = out->table().column("v").double_at(r) - 50.0;
    const double sd = out->table().column("ewma").double_at(r) - 50.0;
    raw_var += rd * rd;
    smooth_var += sd * sd;
  }
  EXPECT_LT(smooth_var, raw_var / 2);
}

// ---- degenerate/boundary inputs across modules -----------------------------

TEST(EdgeTest, FilterProjectOnEmptyTable) {
  Table empty{Schema{{"x", DataType::kFloat64}}};
  EXPECT_EQ(sql::filter(empty, sql::col("x") > sql::lit(Value(0.0))).num_rows(), 0u);
  EXPECT_EQ(sql::project(empty, {"x"}).num_rows(), 0u);
  EXPECT_EQ(sql::sort_by(empty, {{"x", true}}).num_rows(), 0u);
  const std::vector<std::string> keys{"x"};
  EXPECT_EQ(sql::distinct(empty, keys).num_rows(), 0u);
}

TEST(EdgeTest, GroupByEmptyTableYieldsNoGroups) {
  Table empty{Schema{{"k", DataType::kString}, {"v", DataType::kFloat64}}};
  const Table g = sql::group_by(empty, {"k"}, {sql::AggSpec{"v", sql::AggKind::kSum, "s"}});
  EXPECT_EQ(g.num_rows(), 0u);
  EXPECT_TRUE(g.schema().contains("s"));
}

TEST(EdgeTest, GroupByNoKeysIsGlobalAggregate) {
  Table t{Schema{{"v", DataType::kFloat64}}};
  t.append_row({Value(1.0)});
  t.append_row({Value(3.0)});
  const std::vector<std::string> no_keys;
  const std::vector<sql::AggSpec> aggs{{"v", sql::AggKind::kMean, "m"}};
  const Table g = sql::group_by(t, no_keys, aggs);
  ASSERT_EQ(g.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(g.column("m").double_at(0), 2.0);
}

TEST(EdgeTest, JoinWithEmptySides) {
  Table left{Schema{{"k", DataType::kInt64}, {"a", DataType::kFloat64}}};
  Table right{Schema{{"k", DataType::kInt64}, {"b", DataType::kFloat64}}};
  left.append_row({Value(std::int64_t{1}), Value(1.0)});
  EXPECT_EQ(sql::hash_join(left, right, {"k"}).num_rows(), 0u);
  EXPECT_EQ(sql::hash_join(left, right, {"k"}, sql::JoinType::kLeft).num_rows(), 1u);
  EXPECT_EQ(sql::hash_join(right, left, {"k"}).num_rows(), 0u);
}

TEST(EdgeTest, PivotSingleRowAndAllNullValues) {
  Table t{Schema{{"w", DataType::kInt64}, {"s", DataType::kString}, {"v", DataType::kFloat64}}};
  t.append_row({Value(std::int64_t{0}), Value("only"), Value::null()});
  const Table wide = sql::pivot_wider(t, {"w"}, "s", "v");
  ASSERT_EQ(wide.num_rows(), 1u);
  EXPECT_TRUE(wide.column("only").is_null(0));
}

TEST(EdgeTest, WindowAggWithAllNullTimes) {
  Table t{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
  t.append_row({Value::null(), Value(1.0)});
  const std::vector<std::string> no_keys;
  const std::vector<sql::AggSpec> aggs{{"v", sql::AggKind::kSum, "s"}};
  const Table w = sql::window_aggregate(t, "time", 10 * kSecond, no_keys, aggs);
  // The null-time row forms the null-window group.
  ASSERT_EQ(w.num_rows(), 1u);
  EXPECT_TRUE(w.column("window_start").is_null(0));
}

TEST(EdgeTest, BrokerSinglePartitionSingleRecord) {
  stream::Broker b;
  b.create_topic("t", {1, 64, {}});  // tiny segments
  stream::Record r;
  r.timestamp = 5;
  r.payload = "x";
  b.producer("t").produce(std::move(r));
  stream::Consumer c(b, "g", "t");
  const auto batch = c.poll(10);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].offset, 0);
  EXPECT_TRUE(c.poll(10).empty());
}

TEST(EdgeTest, MlpZeroHiddenLayers) {
  common::Rng rng(1);
  ml::Mlp net(3, {{2, ml::Activation::kSigmoid}}, rng);
  const auto out = net.predict(std::vector<double>{1, 2, 3});
  ASSERT_EQ(out.size(), 2u);
  for (double v : out) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);  // sigmoid range
  }
}

TEST(EdgeTest, ColumnarSingleRowSingleColumn) {
  Table t{Schema{{"x", DataType::kBool}}};
  t.append_row({Value(true)});
  const Table back = storage::read_columnar(storage::write_columnar(t));
  ASSERT_EQ(back.num_rows(), 1u);
  EXPECT_TRUE(back.column("x").bool_at(0));
}

TEST(EdgeTest, ExprDeepNesting) {
  Table t{Schema{{"x", DataType::kFloat64}}};
  t.append_row({Value(2.0)});
  // ((x+1)*(x+2) - x/2) > 10  =>  (3*4 - 1) = 11 > 10.
  auto e = ((sql::col("x") + sql::lit(1.0)) * (sql::col("x") + sql::lit(2.0)) -
            sql::col("x") / sql::lit(2.0)) > sql::lit(10.0);
  EXPECT_TRUE(e->eval(t, 0).as_bool());
}

}  // namespace
}  // namespace oda
