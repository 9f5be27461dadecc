// Tests for the collection-path model (Sec IV-B) plus parameterized
// pipeline-equivalence sweeps (batch size must never change results).
#include <gtest/gtest.h>

#include "common/faults.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "sql/ops.hpp"
#include "storage/columnar.hpp"
#include "telemetry/collection.hpp"

namespace oda {
namespace {

using common::kMillisecond;
using common::kSecond;

TEST(CollectionTest, PathTradeoffsHold) {
  const std::size_t sensors = 24;
  const auto inband = telemetry::collection_properties(telemetry::CollectionPath::kInBand, sensors);
  const auto oob = telemetry::collection_properties(telemetry::CollectionPath::kOutOfBand, sensors);
  const auto perjob =
      telemetry::collection_properties(telemetry::CollectionPath::kPerJobInstr, sensors);

  // In-band: fastest but taxes the node and dies with it.
  EXPECT_LT(inband.min_period, oob.min_period);
  EXPECT_GT(inband.node_overhead_fraction, 0.0);
  EXPECT_FALSE(inband.survives_node_crash);
  EXPECT_TRUE(inband.sees_app_context);
  // Out-of-band: free, crash-proof, blind to apps.
  EXPECT_DOUBLE_EQ(oob.node_overhead_fraction, 0.0);
  EXPECT_TRUE(oob.survives_node_crash);
  EXPECT_FALSE(oob.sees_app_context);
  // Per-job: perfect attribution, no loss.
  EXPECT_TRUE(perjob.sees_app_context);
  EXPECT_DOUBLE_EQ(perjob.loss_rate, 0.0);
}

TEST(CollectionTest, OverheadScalesWithRateAndFloorsAtMinPeriod) {
  const auto spec = telemetry::compass_spec(0.01);
  const auto fast = telemetry::plan_cost(spec, telemetry::CollectionPath::kInBand, 100 * kMillisecond);
  const auto slow = telemetry::plan_cost(spec, telemetry::CollectionPath::kInBand, 10 * kSecond);
  EXPECT_NEAR(fast.node_hours_lost_per_day / slow.node_hours_lost_per_day, 100.0, 1.0);
  // Requesting faster than the path supports clamps to min_period.
  const auto too_fast = telemetry::plan_cost(spec, telemetry::CollectionPath::kOutOfBand, kMillisecond);
  const auto at_floor = telemetry::plan_cost(spec, telemetry::CollectionPath::kOutOfBand, kSecond);
  EXPECT_DOUBLE_EQ(too_fast.delivered_samples_per_day, at_floor.delivered_samples_per_day);
}

TEST(CollectionTest, DeliveredSamplesAccountForLoss) {
  const auto spec = telemetry::mountain_spec(0.004);
  const auto cost = telemetry::plan_cost(spec, telemetry::CollectionPath::kInBand, kSecond);
  const double gross = static_cast<double>(spec.total_sensors()) * 86400.0;
  EXPECT_LT(cost.delivered_samples_per_day, gross);
  EXPECT_NEAR(cost.delivered_samples_per_day, gross * cost.delivered_fraction, 1.0);
}

// ---- parameterized pipeline equivalence -------------------------------
// The same input through the same windowed query must produce identical
// results regardless of micro-batch size — batch boundaries are an
// execution detail, not semantics.

class BatchSizeInvariance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchSizeInvariance, WindowedSumsIndependentOfBatching) {
  stream::Broker broker;
  broker.create_topic("in", {1, 1 << 20, {}});
  auto in_producer = broker.producer("in");
  common::Rng rng(5);
  common::TimePoint t = 0;
  sql::Table all{sql::Schema{{"time", sql::DataType::kInt64}, {"v", sql::DataType::kFloat64}}};
  for (int i = 0; i < 300; ++i) {
    t += static_cast<common::TimePoint>(rng.uniform_index(2)) * kSecond;
    const double v = rng.uniform(0, 10);
    all.append_row({sql::Value(t), sql::Value(v)});
    sql::Table row{all.schema()};
    row.append_row({sql::Value(t), sql::Value(v)});
    stream::Record rec;
    rec.timestamp = t;
    const auto blob = storage::write_columnar(row);
    rec.payload.assign(reinterpret_cast<const char*>(blob.data()), blob.size());
    in_producer.produce(std::move(rec));
  }

  pipeline::QueryConfig qc;
  qc.max_records_per_batch = GetParam();
  qc.name = "equiv";
  engine::Query q(qc,
                  engine::SourceSpec{&broker, "in", "g" + std::to_string(GetParam()),
                                     pipeline::decode_columnar_records},
                  1);
  q.add_operator([] {
    return std::make_unique<pipeline::WindowAggOp>(
        "w", "time", 10 * kSecond, std::vector<std::string>{},
        std::vector<sql::AggSpec>{{"v", sql::AggKind::kSum, "s"}});
  });
  auto sink = std::make_unique<pipeline::TableSink>();
  auto* out = sink.get();
  q.add_sink(std::move(sink));
  q.run_until_caught_up();
  q.finalize();

  const std::vector<std::string> no_keys;
  const std::vector<sql::AggSpec> aggs{{"v", sql::AggKind::kSum, "s"}};
  const sql::Table expected = sql::sort_by(
      sql::window_aggregate(all, "time", 10 * kSecond, no_keys, aggs), {{"window_start", true}});
  const sql::Table got = sql::sort_by(out->table(), {{"window_start", true}});
  ASSERT_EQ(got.num_rows(), expected.num_rows());
  for (std::size_t r = 0; r < got.num_rows(); ++r) {
    EXPECT_EQ(got.column("window_start").int_at(r), expected.column("window_start").int_at(r));
    EXPECT_NEAR(got.column("s").double_at(r), expected.column("s").double_at(r), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchSizeInvariance,
                         ::testing::Values(1, 3, 7, 17, 50, 300, 1000));

// ---- parameterized fault-position invariance -----------------------------
// An injected fault at any batch index must never change the final sums.

class FaultPositionInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultPositionInvariance, RecoveryPreservesExactlyOnce) {
  stream::Broker broker;
  broker.create_topic("in", {1, 1 << 20, {}});
  auto in_producer = broker.producer("in");
  for (int i = 0; i < 120; ++i) {
    sql::Table row{sql::Schema{{"time", sql::DataType::kInt64}, {"v", sql::DataType::kFloat64}}};
    row.append_row({sql::Value(static_cast<common::TimePoint>(i) * kSecond), sql::Value(1.0)});
    stream::Record rec;
    rec.timestamp = i * kSecond;
    const auto blob = storage::write_columnar(row);
    rec.payload.assign(reinterpret_cast<const char*>(blob.data()), blob.size());
    in_producer.produce(std::move(rec));
  }
  pipeline::QueryConfig qc;
  qc.max_records_per_batch = 10;
  qc.name = "faulty";
  engine::Query q(qc, engine::SourceSpec{&broker, "in", "g", pipeline::decode_columnar_records},
                  1);
  q.add_operator([] {
    return std::make_unique<pipeline::WindowAggOp>(
        "w", "time", 10 * kSecond, std::vector<std::string>{},
        std::vector<sql::AggSpec>{{"v", sql::AggKind::kSum, "s"}});
  });
  auto sink = std::make_unique<pipeline::TableSink>();
  auto* out = sink.get();
  q.add_sink(std::move(sink));
  // Fail batch GetParam() once at the "pipeline.batch" seam.
  chaos::FaultPlan plan(1);
  plan.configure("pipeline.batch",
                 {.transient_p = 1.0, .skip_first = GetParam(), .max_faults = 1});
  {
    chaos::ScopedFaultPlan scoped(plan);
    q.run_until_caught_up();
  }
  q.finalize();
  EXPECT_EQ(q.metrics().failures, 1u);
  double total = 0.0;
  for (std::size_t r = 0; r < out->table().num_rows(); ++r) {
    total += out->table().column("s").double_at(r);
  }
  EXPECT_DOUBLE_EQ(total, 120.0);
}

INSTANTIATE_TEST_SUITE_P(FaultAt, FaultPositionInvariance, ::testing::Values(0, 1, 5, 10, 11));

}  // namespace
}  // namespace oda
