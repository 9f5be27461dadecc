// Tests for the micro-batch streaming engine: window operator watermark
// semantics, exactly-once emission, batch rollback/recovery, dead-letter
// policy, sinks, and batch-vs-stream equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/rng.hpp"
#include "pipeline/query.hpp"
#include "sql/expr.hpp"
#include "sql/ops.hpp"
#include "storage/columnar.hpp"

namespace oda::pipeline {
namespace {

using common::kMinute;
using common::kSecond;
using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

Table rows_at(std::initializer_list<std::pair<common::TimePoint, double>> points) {
  Table t{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
  for (const auto& [time, v] : points) t.append_row({Value(time), Value(v)});
  return t;
}

WindowAggOp make_op(common::Duration window = 10 * kSecond) {
  return WindowAggOp("w", "time", window, {},
                     {{"v", sql::AggKind::kSum, "s"}, {"v", sql::AggKind::kCount, "n"}});
}

TEST(WindowAggOpTest, EmitsOnlyWatermarkClosedWindows) {
  auto op = make_op();
  op.begin_batch();
  // Rows in windows [0,10) and [10,20); watermark 12 closes only the first.
  Batch out = op.process({rows_at({{1 * kSecond, 1.0}, {5 * kSecond, 2.0}, {12 * kSecond, 4.0}}),
                          12 * kSecond});
  ASSERT_EQ(out.table.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out.table.column("s").double_at(0), 3.0);
  EXPECT_EQ(out.table.column("n").int_at(0), 2);
  EXPECT_EQ(op.pending_windows(), 2u);  // closed window awaits commit; [10,20) buffered
  op.commit_batch();
  EXPECT_EQ(op.pending_windows(), 1u);
}

TEST(WindowAggOpTest, LateRowsForClosedWindowsDropped) {
  auto op = make_op();
  op.begin_batch();
  (void)op.process({rows_at({{1 * kSecond, 1.0}}), 30 * kSecond});  // closes window 0
  op.commit_batch();
  op.begin_batch();
  Batch out = op.process({rows_at({{2 * kSecond, 9.0}}), 30 * kSecond});  // late for window 0
  EXPECT_EQ(out.table.num_rows(), 0u);
  EXPECT_EQ(op.late_rows_dropped(), 1u);
  op.commit_batch();
}

TEST(WindowAggOpTest, AllowedLatenessHoldsWindowsOpen) {
  WindowAggOp op("w", "time", 10 * kSecond, {}, {{"v", sql::AggKind::kSum, "s"}},
                 /*allowed_lateness=*/20 * kSecond);
  op.begin_batch();
  Batch out = op.process({rows_at({{1 * kSecond, 1.0}}), 25 * kSecond});
  EXPECT_EQ(out.table.num_rows(), 0u);  // 10 + 20 > 25: still open
  out = op.process({rows_at({{26 * kSecond, 1.0}}), 31 * kSecond});
  EXPECT_EQ(out.table.num_rows(), 1u);  // now closed
}

TEST(WindowAggOpTest, FlushEmitsEverythingPending) {
  auto op = make_op();
  op.begin_batch();
  (void)op.process({rows_at({{1 * kSecond, 1.0}, {11 * kSecond, 2.0}, {21 * kSecond, 3.0}}),
                    5 * kSecond});
  op.commit_batch();
  const Batch out = op.flush();
  EXPECT_EQ(out.table.num_rows(), 3u);
  EXPECT_EQ(op.pending_windows(), 0u);
}

TEST(WindowAggOpTest, RollbackRestoresPreBatchState) {
  auto op = make_op();
  op.begin_batch();
  (void)op.process({rows_at({{1 * kSecond, 1.0}}), 1 * kSecond});
  op.commit_batch();

  op.begin_batch();
  (void)op.process({rows_at({{2 * kSecond, 100.0}, {15 * kSecond, 50.0}}), 15 * kSecond});
  op.rollback_batch();  // simulate downstream failure

  // Replay the same rows, then flush: the 100.0 must appear exactly once.
  op.begin_batch();
  const Batch emitted =
      op.process({rows_at({{2 * kSecond, 100.0}, {15 * kSecond, 50.0}}), 15 * kSecond});
  op.commit_batch();
  const Batch flushed = op.flush();
  double total = 0.0;
  for (std::size_t r = 0; r < emitted.table.num_rows(); ++r) {
    total += emitted.table.column("s").double_at(r);
  }
  for (std::size_t r = 0; r < flushed.table.num_rows(); ++r) {
    total += flushed.table.column("s").double_at(r);
  }
  EXPECT_DOUBLE_EQ(total, 151.0);  // 1 + 100 + 50, no double count
}

TEST(WindowAggOpTest, RollbackAfterEmissionReplaysWindow) {
  auto op = make_op();
  op.begin_batch();
  Batch out = op.process({rows_at({{1 * kSecond, 7.0}, {30 * kSecond, 1.0}}), 30 * kSecond});
  EXPECT_EQ(out.table.num_rows(), 1u);  // window 0 emitted
  op.rollback_batch();                  // sink failed: emission must not be lost

  op.begin_batch();
  out = op.process({rows_at({{1 * kSecond, 7.0}, {30 * kSecond, 1.0}}), 30 * kSecond});
  ASSERT_EQ(out.table.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out.table.column("s").double_at(0), 7.0);  // exactly once, not 14
  op.commit_batch();
}

TEST(WindowAggOpTest, InterleavedWindowsMatchWindowAggregateAndRollBack) {
  const Schema schema{{"time", DataType::kInt64}, {"node", DataType::kInt64}, {"v", DataType::kFloat64}};
  struct Reading {
    int second;
    int node;
    double v;
  };
  const auto make = [&](std::initializer_list<Reading> rows) {
    Table t{schema};
    for (const auto& r : rows) {
      t.append_row({Value(r.second * kSecond), Value(std::int64_t{r.node}), Value(r.v)});
    }
    return t;
  };
  const std::vector<std::string> keys{"node"};
  const std::vector<sql::AggSpec> aggs{
      {"v", sql::AggKind::kSum, "s"}, {"v", sql::AggKind::kMean, "m"}, {"v", sql::AggKind::kCount, "n"}};
  WindowAggOp op("w", "time", 10 * kSecond, keys, aggs);

  // Pre-batch state: window [20,30) already buffers two rows.
  const Table pre = make({{21, 1, 1.0}, {25, 2, 2.0}});
  op.begin_batch();
  (void)op.process({pre, 0});
  op.commit_batch();
  const auto pre_state = op.checkpoint_state();

  // One batch: rows of windows [0,10), [10,20) and [20,30), interleaved
  // and out of time order.
  const Table batch = make({{27, 1, 3.0}, {4, 2, 4.0}, {15, 1, 5.0}, {2, 1, 6.0},
                            {22, 2, 7.0}, {11, 2, 8.0}, {9, 1, 9.0}, {13, 1, 10.0}});
  // Reference: each window's rows in arrival order, aggregated by
  // sql::window_aggregate, windows in start order.
  std::vector<Table> per_window;
  for (int w = 0; w < 3; ++w) {
    Table part{schema};
    for (const Table* t : {&pre, &batch}) {
      for (std::size_t r = 0; r < t->num_rows(); ++r) {
        if (t->column("time").int_at(r) / (10 * kSecond) == w) part.append_row(t->row(r));
      }
    }
    per_window.push_back(sql::window_aggregate(part, "time", 10 * kSecond, keys, aggs));
  }
  const std::string want = sql::to_csv(sql::concat(per_window));

  op.begin_batch();
  EXPECT_EQ(sql::to_csv(op.process({batch, 40 * kSecond}).table), want);
  op.rollback_batch();
  EXPECT_EQ(op.pending_windows(), 1u);
  EXPECT_EQ(op.checkpoint_state(), pre_state);  // pending rows, max-emitted and late count restored

  op.begin_batch();
  EXPECT_EQ(sql::to_csv(op.process({batch, 40 * kSecond}).table), want);
  op.commit_batch();
  EXPECT_EQ(op.pending_windows(), 0u);
}

TEST(WindowAggOpTest, CheckpointStateRoundTrips) {
  auto op = make_op();
  op.begin_batch();
  (void)op.process({rows_at({{1 * kSecond, 1.0}, {11 * kSecond, 2.0}}), 5 * kSecond});
  op.commit_batch();
  const auto state = op.checkpoint_state();

  auto restored = make_op();
  restored.restore_state(state);
  EXPECT_EQ(restored.pending_windows(), op.pending_windows());
  const Batch a = restored.flush();
  const Batch b = op.flush();
  ASSERT_EQ(a.table.num_rows(), b.table.num_rows());
  for (std::size_t r = 0; r < a.table.num_rows(); ++r) {
    EXPECT_EQ(a.table.column("s").get(r), b.table.column("s").get(r));
  }
}

// ---- StreamingQuery end-to-end over a broker --------------------------------

struct QueryRig {
  stream::Broker broker;
  // One partition so produce order == consume order (deterministic
  // batch boundaries for the fault/poison tests). The cached handle
  // skips the name lookup on every produced record.
  stream::Producer in_producer{broker.create_topic("in", {1, 1 << 20, {}})};
  void produce(common::TimePoint t, double v) {
    Table row = rows_at({{t, v}});
    stream::Record rec;
    rec.timestamp = t;
    const auto blob = storage::write_columnar(row);
    rec.payload.assign(reinterpret_cast<const char*>(blob.data()), blob.size());
    in_producer.produce(std::move(rec));
  }
  std::unique_ptr<StreamingQuery> make_query(QueryConfig qc = {}) {
    auto q = std::make_unique<StreamingQuery>(
        qc, std::make_unique<BrokerSource>(broker, "in", "g", decode_columnar_records));
    return q;
  }
};

TEST(QueryConfigTest, FluentSettersAndValidate) {
  const QueryConfig qc = QueryConfig{}
                             .with_name("fluent")
                             .with_batch_size(256)
                             .with_time_column("ts")
                             .with_allowed_lateness(5 * kSecond)
                             .with_max_retries(2);
  EXPECT_EQ(qc.name, "fluent");
  EXPECT_EQ(qc.max_records_per_batch, 256u);
  EXPECT_EQ(qc.time_column, "ts");
  EXPECT_NO_THROW(qc.validate());

  QueryRig rig;
  EXPECT_THROW(rig.make_query(QueryConfig{}.with_name("")), std::invalid_argument);
  EXPECT_THROW(rig.make_query(QueryConfig{}.with_name("q").with_batch_size(0)),
               std::invalid_argument);
  EXPECT_THROW(rig.make_query(QueryConfig{}.with_name("q").with_time_column("")),
               std::invalid_argument);
}

TEST(StreamingQueryTest, EndToEndWindowedSum) {
  QueryRig rig;
  for (int i = 0; i < 40; ++i) rig.produce(i * kSecond, 1.0);
  auto q = rig.make_query();
  q->add_operator(std::make_unique<WindowAggOp>(
      "w", "time", 10 * kSecond, std::vector<std::string>{},
      std::vector<sql::AggSpec>{{"v", sql::AggKind::kSum, "s"}}));
  auto sink = std::make_unique<TableSink>();
  auto* out = sink.get();
  q->add_sink(std::move(sink));
  q->run_until_caught_up();
  q->finalize();
  // 40 seconds -> 4 windows of sum 10.
  ASSERT_EQ(out->table().num_rows(), 4u);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(out->table().column("s").double_at(r), 10.0);
  EXPECT_EQ(q->metrics().failures, 0u);
  EXPECT_GT(q->metrics().batches, 0u);
}

TEST(StreamingQueryTest, InjectedFaultRecoversWithoutLossOrDuplication) {
  QueryRig rig;
  for (int i = 0; i < 60; ++i) rig.produce(i * kSecond, 1.0);
  QueryConfig qc;
  qc.max_records_per_batch = 10;
  auto q = rig.make_query(qc);
  q->add_operator(std::make_unique<WindowAggOp>(
      "w", "time", 10 * kSecond, std::vector<std::string>{},
      std::vector<sql::AggSpec>{{"v", sql::AggKind::kSum, "s"}}));
  auto sink = std::make_unique<TableSink>();
  auto* out = sink.get();
  q->add_sink(std::move(sink));
  q->set_fault_plan({2});  // fail the third batch once
  q->run_until_caught_up();
  q->finalize();
  EXPECT_EQ(q->metrics().failures, 1u);
  double total = 0.0;
  for (std::size_t r = 0; r < out->table().num_rows(); ++r) {
    total += out->table().column("s").double_at(r);
  }
  EXPECT_DOUBLE_EQ(total, 60.0);  // exactly-once despite the fault
}

TEST(StreamingQueryTest, PoisonBatchIsSkippedAfterMaxRetries) {
  QueryRig rig;
  for (int i = 0; i < 30; ++i) rig.produce(i * kSecond, 1.0);
  QueryConfig qc;
  qc.max_records_per_batch = 10;
  qc.max_retries = 3;
  auto q = rig.make_query(qc);
  // A transform that always throws on rows with time in [10s, 20s).
  q->add_transform("poison", storage::DataClass::kSilver, [](const Table& t) {
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      const auto time = t.column("time").int_at(r);
      if (time >= 10 * kSecond && time < 20 * kSecond) throw std::runtime_error("corrupt record");
    }
    return t;
  });
  auto sink = std::make_unique<TableSink>();
  auto* out = sink.get();
  q->add_sink(std::move(sink));
  q->run_until_caught_up();
  EXPECT_EQ(q->metrics().batches_skipped, 1u);
  EXPECT_EQ(q->metrics().failures, 3u);
  EXPECT_EQ(q->metrics().last_error, "corrupt record");
  EXPECT_EQ(out->table().num_rows(), 20u);  // the other two batches flowed through
}

TEST(StreamingQueryTest, StageMetricsTrackRows) {
  QueryRig rig;
  for (int i = 0; i < 20; ++i) rig.produce(i * kSecond, static_cast<double>(i));
  auto q = rig.make_query();
  q->add_transform("filter", storage::DataClass::kBronze, [](const Table& t) {
    return sql::filter(t, sql::col("v") >= sql::lit(Value(10.0)));
  });
  q->add_sink(std::make_unique<TableSink>());
  q->run_until_caught_up();
  ASSERT_EQ(q->metrics().stages.size(), 1u);
  EXPECT_EQ(q->metrics().stages[0].rows_in, 20u);
  EXPECT_EQ(q->metrics().stages[0].rows_out, 10u);
}

TEST(StreamingQueryTest, StreamEqualsBatchResult) {
  // The streaming windowed sum must equal a one-shot batch aggregation —
  // the correctness core of the batch->stream transition (Sec VI-B).
  QueryRig rig;
  common::Rng rng(21);
  Table all{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
  // Event times advance monotonically (in-order stream); disorder beyond
  // the allowed lateness would legitimately drop late rows and the two
  // results would differ by design.
  common::TimePoint t = 0;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<common::TimePoint>(rng.uniform_index(3)) * kSecond;
    const double v = rng.normal(10, 3);
    all.append_row({Value(t), Value(v)});
    rig.produce(t, v);
  }
  QueryConfig qc;
  qc.max_records_per_batch = 37;  // odd size to shuffle batch boundaries
  auto q = rig.make_query(qc);
  q->add_operator(std::make_unique<WindowAggOp>(
      "w", "time", 15 * kSecond, std::vector<std::string>{},
      std::vector<sql::AggSpec>{{"v", sql::AggKind::kSum, "s"}}));
  auto sink = std::make_unique<TableSink>();
  auto* out = sink.get();
  q->add_sink(std::move(sink));
  q->run_until_caught_up();
  q->finalize();

  const std::vector<std::string> no_keys;
  const std::vector<sql::AggSpec> aggs{{"v", sql::AggKind::kSum, "s"}};
  const Table batch = sql::sort_by(sql::window_aggregate(all, "time", 15 * kSecond, no_keys, aggs),
                                   {{"window_start", true}});
  const Table streamed = sql::sort_by(out->table(), {{"window_start", true}});
  ASSERT_EQ(streamed.num_rows(), batch.num_rows());
  for (std::size_t r = 0; r < batch.num_rows(); ++r) {
    EXPECT_EQ(streamed.column("window_start").int_at(r), batch.column("window_start").int_at(r));
    EXPECT_NEAR(streamed.column("s").double_at(r), batch.column("s").double_at(r), 1e-9);
  }
}

TEST(SinkTest, OceanSinkChunksObjects) {
  storage::ObjectStore ocean;
  OceanSink sink(ocean, "ds", storage::DataClass::kSilver, /*rows_per_object=*/100);
  Table t{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
  for (int i = 0; i < 250; ++i) t.append_row({Value(std::int64_t{i}), Value(1.0)});
  sink.write(t);
  EXPECT_EQ(sink.objects_written(), 2u);  // 2 full chunks, 50 buffered
  sink.flush();
  EXPECT_EQ(sink.objects_written(), 3u);
  std::size_t total = 0;
  for (const auto& meta : ocean.list("ds")) {
    total += storage::inspect_columnar(*ocean.get(meta.key)).num_rows;
  }
  EXPECT_EQ(total, 250u);
}

TEST(SinkTest, OceanSinkRollbackReplaysSamePartsAndBytes) {
  storage::ObjectStore ocean;
  OceanSink sink(ocean, "ds", storage::DataClass::kSilver, /*rows_per_object=*/100);
  const auto rows = [](int lo, int hi) {
    Table t{Schema{{"time", DataType::kInt64}, {"host", DataType::kString}, {"v", DataType::kFloat64}}};
    for (int i = lo; i < hi; ++i) {
      const Value host = i % 7 == 3 ? Value::null() : Value("n" + std::to_string(i % 5));
      t.append_row({Value(std::int64_t{i}), host, Value(i * 0.5)});
    }
    return t;
  };
  const auto object = [&](std::size_t part) {
    char name[32];
    std::snprintf(name, sizeof(name), "ds/part%06zu", part);
    return ocean.get(name);
  };

  sink.begin_batch();
  sink.write(rows(0, 60));
  sink.commit_batch();
  EXPECT_EQ(sink.objects_written(), 0u);

  // A batch that puts two objects mid-batch, then fails downstream.
  sink.begin_batch();
  sink.write(rows(60, 140));
  EXPECT_EQ(sink.objects_written(), 1u);
  sink.write(rows(140, 230));
  ASSERT_EQ(sink.objects_written(), 2u);
  const auto part0 = object(0), part1 = object(1);
  ASSERT_TRUE(part0 && part1);
  EXPECT_EQ(*part0, storage::write_columnar(rows(0, 100)));
  EXPECT_EQ(*part1, storage::write_columnar(rows(100, 200)));
  sink.rollback_batch();
  EXPECT_EQ(sink.objects_written(), 0u);
  EXPECT_EQ(sink.buffered_rows(), 60u);

  // The replay re-puts the same part keys with the same bytes.
  sink.begin_batch();
  sink.write(rows(60, 140));
  sink.write(rows(140, 230));
  sink.commit_batch();
  EXPECT_EQ(sink.objects_written(), 2u);
  EXPECT_EQ(ocean.list("ds").size(), 2u);
  EXPECT_EQ(object(0), part0);
  EXPECT_EQ(object(1), part1);
  EXPECT_EQ(sink.buffered_rows(), 30u);  // only the unflushed tail survives commit

  sink.flush();
  EXPECT_EQ(sink.buffered_rows(), 0u);
  ASSERT_TRUE(object(2));
  EXPECT_EQ(*object(2), storage::write_columnar(rows(200, 230)));
}

TEST(SinkTest, LakeSinkWritesTaggedSeries) {
  storage::TimeSeriesDb lake;
  LakeSink sink(lake, "m", "time", "v", {"node"});
  Table t{Schema{{"time", DataType::kInt64}, {"node", DataType::kString}, {"v", DataType::kFloat64}}};
  t.append_row({Value(std::int64_t{100}), Value("a"), Value(1.0)});
  t.append_row({Value(std::int64_t{200}), Value("b"), Value(2.0)});
  t.append_row({Value(std::int64_t{300}), Value("a"), Value::null()});  // skipped
  sink.write(t);
  EXPECT_EQ(lake.series_count(), 2u);
  EXPECT_EQ(lake.point_count(), 2u);
}

TEST(SinkTest, LakeSinkTagTextMatchesValueToString) {
  storage::TimeSeriesDb lake;
  LakeSink sink(lake, "m", "time", "v", {"node", "host", "w", "up"});
  Table t{Schema{{"time", DataType::kInt64},
                 {"node", DataType::kInt64},
                 {"host", DataType::kString},
                 {"w", DataType::kFloat64},
                 {"up", DataType::kBool},
                 {"v", DataType::kFloat64}}};
  t.append_row({Value(std::int64_t{1}), Value(std::int64_t{-42}), Value("h,1"), Value(0.1), Value(true),
                Value(1.0)});
  t.append_row({Value(std::int64_t{2}), Value(std::int64_t{7}), Value::null(), Value(2.5e9),
                Value::null(), Value(2.0)});
  sink.write(t);
  const auto keys = lake.matched_keys("m", {});
  ASSERT_EQ(keys.size(), 2u);
  std::vector<std::map<std::string, std::string>> tags{keys[0].tags, keys[1].tags};
  const std::map<std::string, std::string> first{{"node", Value(std::int64_t{-42}).to_string()},
                                                 {"host", "h,1"},
                                                 {"w", Value(0.1).to_string()},
                                                 {"up", Value(true).to_string()}};
  const std::map<std::string, std::string> second{{"node", "7"}, {"w", Value(2.5e9).to_string()}};
  EXPECT_NE(std::find(tags.begin(), tags.end(), first), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), second), tags.end());
}

TEST(SinkTest, TopicSinkRoundTripsThroughDecoder) {
  stream::Broker broker;
  TopicSink sink(broker, "out");
  Table t = rows_at({{5 * kSecond, 1.5}, {6 * kSecond, 2.5}});
  sink.write(t);
  stream::Consumer c(broker, "g", "out");
  const auto records = c.poll(10);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].timestamp, 6 * kSecond);  // batch max event time
  const Table back = decode_columnar_records(records.records());
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(back.column("v").double_at(1), 2.5);
}

}  // namespace
}  // namespace oda::pipeline
