// oda::observe coverage: metrics registry snapshot correctness, trace
// span parent/child structure across a produce → pipeline → sink run,
// lag tracker agreement with the broker's own offset store, SLO state
// transitions under injected faults, exporters, and a mini golden-run
// determinism check with observation fully enabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/oda_monitor.hpp"
#include "common/faults.hpp"
#include "engine/engine.hpp"
#include "observe/chaos_bridge.hpp"
#include "observe/export.hpp"
#include "observe/lag.hpp"
#include "observe/metrics.hpp"
#include "observe/slo.hpp"
#include "observe/trace.hpp"
#include "storage/tiers.hpp"
#include "stream/broker.hpp"
#include "telemetry/collection.hpp"

#include "json_check.hpp"

namespace oda::observe {
namespace {

using common::kMinute;
using common::kSecond;
using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

// --- metrics registry ----------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesHistogramsSnapshotCorrectly) {
  MetricsRegistry reg;
  Counter* c = reg.counter("test.count", {{"topic", "a"}});
  c->inc();
  c->inc(4);
  reg.gauge("test.level")->set(2.5);
  Histogram* h = reg.histogram("test.lat", {}, {0.1, 1.0, 10.0});
  h->add(0.05);
  h->add(0.5);
  h->add(100.0);  // overflow bucket

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Sorted by name: test.count < test.lat < test.level.
  EXPECT_EQ(snap[0].name, "test.count");
  EXPECT_EQ(snap[0].kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snap[0].value, 5.0);
  ASSERT_EQ(snap[0].labels.size(), 1u);
  EXPECT_EQ(snap[0].labels[0].second, "a");

  EXPECT_EQ(snap[1].name, "test.lat");
  EXPECT_EQ(snap[1].count, 3u);
  ASSERT_EQ(snap[1].buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap[1].buckets[0].second, 1u);
  EXPECT_EQ(snap[1].buckets[1].second, 1u);
  EXPECT_EQ(snap[1].buckets[3].second, 1u);

  EXPECT_EQ(snap[2].name, "test.level");
  EXPECT_DOUBLE_EQ(snap[2].value, 2.5);
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameHandle) {
  MetricsRegistry reg;
  Counter* a = reg.counter("dup", {{"k", "v"}});
  Counter* b = reg.counter("dup", {{"k", "v"}});
  Counter* c = reg.counter("dup", {{"k", "other"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Label order must not matter (labels are canonicalized).
  Counter* d = reg.counter("two", {{"x", "1"}, {"a", "2"}});
  Counter* e = reg.counter("two", {{"a", "2"}, {"x", "1"}});
  EXPECT_EQ(d, e);
}

TEST(MetricsRegistryTest, ResetValuesKeepsHandlesValid) {
  MetricsRegistry reg;
  Counter* c = reg.counter("persist");
  c->inc(9);
  reg.reset_values();
  EXPECT_EQ(c->value(), 0u);
  c->inc(2);  // handle still live
  EXPECT_EQ(c->value(), 2u);
  EXPECT_EQ(reg.metric_count(), 1u);
}

TEST(MetricsRegistryTest, DisabledMetricsDropWrites) {
  MetricsRegistry reg;
  Counter* c = reg.counter("gated");
  set_metrics_enabled(false);
  c->inc(100);
  set_metrics_enabled(true);
  EXPECT_EQ(c->value(), 0u);
  c->inc();
  EXPECT_EQ(c->value(), 1u);
}

TEST(MetricsRegistryTest, ShardedCounterSlotsIsolateAndMerge) {
  ShardedCounter c;
  c.inc(0, 5);
  c.inc(3, 7);
  c.inc(3);
  // Writes land in their own slot; value() is the merge.
  EXPECT_EQ(c.slot_value(0), 5u);
  EXPECT_EQ(c.slot_value(3), 8u);
  EXPECT_EQ(c.slot_value(1), 0u);
  EXPECT_EQ(c.value(), 13u);
  // Shard indices wrap rather than overflow: shard kSlots aliases slot 0.
  c.inc(ShardedCounter::kSlots, 2);
  EXPECT_EQ(c.slot_value(0), 7u);
  EXPECT_EQ(c.value(), 15u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistryTest, ShardedCounterSnapshotsAsPlainCounter) {
  MetricsRegistry reg;
  ShardedCounter* s = reg.sharded_counter("shard.rows", {{"query", "q"}});
  ShardedCounter* same = reg.sharded_counter("shard.rows", {{"query", "q"}});
  EXPECT_EQ(s, same);
  s->inc(1, 10);
  s->inc(9, 4);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  // Exporters see an ordinary pre-merged counter.
  EXPECT_EQ(snap[0].kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snap[0].value, 14.0);
  // reset_values clears every slot but keeps the handle live.
  reg.reset_values();
  EXPECT_EQ(s->value(), 0u);
  s->inc(2, 3);
  EXPECT_EQ(s->value(), 3u);
}

TEST(MetricsRegistryTest, ShardedCounterRespectsMetricsGate) {
  ShardedCounter c;
  set_metrics_enabled(false);
  c.inc(0, 100);
  set_metrics_enabled(true);
  EXPECT_EQ(c.value(), 0u);
}

TEST(HistogramTest, QuantilesInterpolate) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 100; ++i) h.add(1.5);  // all in (1, 2]
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 150.0);
}

// --- trace spans ---------------------------------------------------------

TEST(TraceTest, NestedSpansFormParentChildChain) {
  Tracer tracer;
  ScopedTracer scoped(tracer);
  {
    Span root("root");
    EXPECT_TRUE(root.context().valid());
    {
      Span child("child");
      EXPECT_EQ(child.context().trace_id, root.context().trace_id);
      { Span grand("grand"); }
    }
  }
  const auto spans = tracer.store().snapshot();
  ASSERT_EQ(spans.size(), 3u);  // completion order: grand, child, root
  EXPECT_EQ(spans[0].name, "grand");
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[2].name, "root");
  EXPECT_EQ(spans[2].parent_id, 0u);
  EXPECT_EQ(spans[1].parent_id, spans[2].span_id);
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  EXPECT_EQ(spans[0].trace_id, spans[2].trace_id);
}

TEST(TraceTest, NoTracerMeansInertSpans) {
  {
    Span s("orphan");
    EXPECT_FALSE(s.active());
    EXPECT_FALSE(s.context().valid());
  }
  EXPECT_EQ(current_context().trace_id, 0u);
}

TEST(TraceTest, LinkReHomesFreshTraceUnderRemote) {
  Tracer tracer;
  ScopedTracer scoped(tracer);
  TraceContext remote;
  {
    Span producer("producer");
    remote = producer.context();
  }
  {
    Span continued("continued");
    continued.link(remote);
    EXPECT_EQ(continued.context().trace_id, remote.trace_id);
    { Span inner("inner"); }  // must inherit the adopted trace id
  }
  // Completion order: producer, inner, continued.
  const auto spans = tracer.store().snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[2].name, "continued");
  EXPECT_EQ(spans[2].parent_id, remote.span_id);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].trace_id, remote.trace_id);
  EXPECT_EQ(spans[1].parent_id, spans[2].span_id);
}

TEST(TraceTest, SpanStoreRingEvictsOldest) {
  SpanStore store(4);
  for (int i = 0; i < 10; ++i) {
    SpanRecord r;
    r.span_id = static_cast<std::uint64_t>(i + 1);
    r.name = "s" + std::to_string(i);
    store.add(std::move(r));
  }
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.dropped(), 6u);
  const auto spans = store.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().name, "s6");  // oldest retained
  EXPECT_EQ(spans.back().name, "s9");
}

// --- produce → pipeline → sink trace continuity --------------------------

sql::Table decode_simple(std::span<const stream::RecordView> records) {
  Table t{Schema{{"time", DataType::kInt64}, {"v", DataType::kFloat64}}};
  for (const auto& v : records) t.append_row({Value(v.timestamp), Value(1.0)});
  return t;
}

TEST(TraceTest, TraceContinuesAcrossBrokerHopIntoPipeline) {
  Tracer tracer;
  ScopedTracer scoped(tracer);

  stream::Broker broker;
  broker.create_topic("t", {.num_partitions = 2});
  auto producer = broker.producer("t");
  TraceContext ingest_ctx;
  {
    Span ingest("ingest");
    ingest_ctx = ingest.context();
    for (int i = 0; i < 10; ++i) {
      producer.produce(stream::Record{i * kSecond, "k" + std::to_string(i), "x"});
    }
  }

  pipeline::QueryConfig qc;
  qc.name = "obs";
  engine::Query q(qc, engine::SourceSpec{&broker, "t", "g", decode_simple}, 1);
  q.add_transform("ident", storage::DataClass::kSilver, [](const Table& t) { return t; });
  q.add_sink(std::make_unique<pipeline::TableSink>());
  ASSERT_EQ(q.run_once(), 10u);

  // Records must carry the ingest span's context.
  std::vector<stream::StoredRecord> raw;
  broker.topic("t").partition(0).fetch_copy(0, 100, raw);
  ASSERT_FALSE(raw.empty());
  EXPECT_EQ(raw.front().record.trace_id, ingest_ctx.trace_id);
  EXPECT_EQ(raw.front().record.span_id, ingest_ctx.span_id);

  // Span forest: batch re-homed under the producer, operator and sink
  // spans are children of the batch.
  std::map<std::string, SpanRecord> by_name;
  for (const auto& s : tracer.store().snapshot()) by_name[s.name] = s;
  ASSERT_TRUE(by_name.count("query.obs.batch"));
  ASSERT_TRUE(by_name.count("ident"));
  ASSERT_TRUE(by_name.count("sink.write"));
  const SpanRecord& batch = by_name["query.obs.batch"];
  EXPECT_EQ(batch.trace_id, ingest_ctx.trace_id);
  EXPECT_EQ(batch.parent_id, ingest_ctx.span_id);
  EXPECT_EQ(by_name["ident"].parent_id, batch.span_id);
  EXPECT_EQ(by_name["sink.write"].parent_id, batch.span_id);
  EXPECT_EQ(by_name["ident"].trace_id, ingest_ctx.trace_id);

  // The text exporter renders the forest with the root first.
  const std::string text = spans_to_text(tracer.store().snapshot());
  EXPECT_NE(text.find("ingest"), std::string::npos);
  EXPECT_NE(text.find("query.obs.batch"), std::string::npos);
}

// --- lag tracker vs broker -----------------------------------------------

TEST(LagTrackerTest, AgreesWithBrokerOffsets) {
  stream::Broker broker;
  broker.create_topic("lag", {.num_partitions = 4});
  auto producer = broker.producer("lag");
  for (int i = 0; i < 1000; ++i) {
    producer.produce(stream::Record{i * kSecond, std::to_string(i), "p"});
  }
  stream::Consumer consumer(broker, "grp", "lag");
  const auto consumed = static_cast<std::int64_t>(consumer.poll(300).size());
  consumer.commit();
  const std::int64_t expected_lag = 1000 - consumed;
  ASSERT_GT(expected_lag, 0);

  LagTracker tracker;
  for (const auto& row : broker.committed_offsets()) {
    tracker.observe_offsets(row.group, row.tp.topic, row.tp.partition,
                            broker.topic(row.tp.topic).partition(row.tp.partition).end_offset(),
                            row.offset);
  }
  EXPECT_EQ(tracker.total_lag("grp", "lag"), broker.lag("grp", "lag"));
  EXPECT_EQ(tracker.total_lag("grp", "lag"), expected_lag);
  EXPECT_EQ(tracker.fleet_lag(), expected_lag);

  const auto groups = tracker.group_lags();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].partitions.size(), 4u);
  EXPECT_EQ(groups[0].peak_lag, expected_lag);

  // Drain and re-sample: lag returns to zero, peak is retained.
  while (!consumer.poll(500).empty()) {
  }
  consumer.commit();
  for (const auto& row : broker.committed_offsets()) {
    tracker.observe_offsets(row.group, row.tp.topic, row.tp.partition,
                            broker.topic(row.tp.topic).partition(row.tp.partition).end_offset(),
                            row.offset);
  }
  EXPECT_EQ(tracker.total_lag("grp", "lag"), 0);
  EXPECT_EQ(tracker.group_lags()[0].peak_lag, expected_lag);
}

TEST(LagTrackerTest, WatermarkDelayAndNeverAdvanced) {
  LagTracker tracker;
  tracker.observe_watermark("q", INT64_MIN, 10 * kSecond);
  auto ws = tracker.watermark("q");
  ASSERT_TRUE(ws.has_value());
  EXPECT_FALSE(ws->ever_advanced);
  tracker.observe_watermark("q", 7 * kSecond, 10 * kSecond);
  ws = tracker.watermark("q");
  EXPECT_TRUE(ws->ever_advanced);
  EXPECT_EQ(ws->delay, 3 * kSecond);
}

// --- SLO state machine ---------------------------------------------------

TEST(SloTest, DegradesThenBreachesAfterHold) {
  Slo slo({.name = "lag",
           .subject = "t",
           .unit = "records",
           .warn = 100,
           .crit = 1000,
           .breach_hold = 60 * kSecond,
           .clear_after = 2});
  EXPECT_EQ(slo.update(50, 0), SloState::kHealthy);
  EXPECT_EQ(slo.update(500, 10 * kSecond), SloState::kDegraded);
  // Over crit, but the hold window hasn't elapsed: still degraded.
  EXPECT_EQ(slo.update(5000, 20 * kSecond), SloState::kDegraded);
  EXPECT_EQ(slo.update(5000, 50 * kSecond), SloState::kDegraded);
  // Hold elapsed (first crit at t=20s, now t=80s): breach.
  EXPECT_EQ(slo.update(5000, 80 * kSecond), SloState::kBreached);
  // One healthy sample is not enough (clear_after = 2).
  EXPECT_EQ(slo.update(10, 90 * kSecond), SloState::kBreached);
  EXPECT_EQ(slo.update(10, 100 * kSecond), SloState::kHealthy);

  const auto& tr = slo.transitions();
  ASSERT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr[0].to, SloState::kDegraded);
  EXPECT_EQ(tr[1].to, SloState::kBreached);
  EXPECT_EQ(tr[2].to, SloState::kHealthy);
  EXPECT_EQ(tr[1].at, 80 * kSecond);
}

TEST(SloTest, BreachDoesNotSoftenToDegraded) {
  Slo slo({.name = "x", .subject = "t", .unit = "u", .warn = 10, .crit = 20, .breach_hold = 0,
           .clear_after = 1});
  EXPECT_EQ(slo.update(25, 1), SloState::kBreached);
  // Back between warn and crit: a breach must clear via healthy, not decay.
  EXPECT_EQ(slo.update(15, 2), SloState::kBreached);
  EXPECT_EQ(slo.update(5, 3), SloState::kHealthy);
}

TEST(SloTest, TransitionsUnderInjectedFaults) {
  // Drive the telemetry-drop SLO with real injected faults: a fault plan
  // that hard-fails collection delivery produces drops, which push the
  // SLO out of Healthy; recovery clears it.
  MetricsRegistry reg;
  ScopedChaosBridge bridge(reg);

  stream::Broker broker;
  broker.create_topic("telem");
  chaos::RetryPolicy rp;
  rp.max_attempts = 2;
  telemetry::CollectionChannel channel(broker, rp);

  SloBook book;
  book.add({.name = "drops", .subject = "collection", .unit = "records", .warn = 0.5,
            .crit = 1e9, .breach_hold = 0, .clear_after = 1});

  chaos::FaultPlan plan(77);
  chaos::SiteConfig cfg;
  cfg.hard_p = 1.0;  // every delivery attempt hard-fails
  plan.configure("telemetry.collect", cfg);

  std::uint64_t dropped = 0;
  {
    chaos::ScopedFaultPlan scoped(plan);
    for (int i = 0; i < 5; ++i) {
      if (!channel.deliver("telem", stream::Record{i * kSecond, "n", "x"})) ++dropped;
    }
  }
  EXPECT_EQ(dropped, 5u);
  EXPECT_EQ(book.update("drops", static_cast<double>(dropped), 10 * kSecond),
            SloState::kDegraded);
  // The chaos bridge counted the injected faults into the registry.
  double injected = 0;
  for (const auto& m : reg.snapshot()) {
    if (m.name == "chaos.faults.injected") injected += m.value;
  }
  EXPECT_GE(injected, 5.0);

  // Faults stop; drop *rate* goes to zero and the SLO clears.
  EXPECT_EQ(book.update("drops", 0.0, 20 * kSecond), SloState::kHealthy);
  EXPECT_EQ(book.worst(), SloState::kHealthy);
  ASSERT_EQ(book.find("drops")->transitions().size(), 2u);
}

// --- exporters -----------------------------------------------------------

TEST(ExportTest, TextAndJsonAndOneLine) {
  MetricsRegistry reg;
  reg.counter("stream.produced.records", {{"topic", "a"}})->inc(10);
  reg.counter("stream.produced.records", {{"topic", "b"}})->inc(5);
  reg.counter("pipeline.batches", {{"query", "q"}})->inc(3);
  reg.gauge("g\"uoted")->set(1.0);

  const auto snap = reg.snapshot();
  const std::string text = metrics_to_text(snap);
  EXPECT_NE(text.find("stream.produced.records{topic=a} counter 10"), std::string::npos);

  const std::string json = metrics_to_json(snap);
  EXPECT_NE(json.find("\"name\":\"stream.produced.records\""), std::string::npos);
  EXPECT_NE(json.find("g\\\"uoted"), std::string::npos);  // escaping

  const std::string line = one_line_summary(snap);
  EXPECT_NE(line.find("produced=15"), std::string::npos);
  EXPECT_NE(line.find("batches=3"), std::string::npos);
}

TEST(ExportTest, SpanTreeIndentsChildren) {
  std::vector<SpanRecord> spans;
  SpanRecord root;
  root.trace_id = 1;
  root.span_id = 1;
  root.name = "root";
  SpanRecord child;
  child.trace_id = 1;
  child.span_id = 2;
  child.parent_id = 1;
  child.name = "child";
  spans.push_back(child);  // completion order: child first
  spans.push_back(root);
  const std::string text = spans_to_text(spans);
  EXPECT_NE(text.find("trace 1:\n  root"), std::string::npos);
  EXPECT_NE(text.find("\n    child"), std::string::npos);
}

// --- the monitor app -----------------------------------------------------

TEST(OdaMonitorTest, TicksAndReports) {
  stream::Broker broker;
  storage::TimeSeriesDb lake;
  storage::ObjectStore ocean;
  storage::TapeArchive glacier;
  storage::TierManager tiers(broker, lake, ocean, glacier, {});

  broker.create_topic("t", {.num_partitions = 2});
  auto producer = broker.producer("t");
  for (int i = 0; i < 100; ++i) producer.produce(stream::Record{i * kSecond, "", "x"});
  stream::Consumer consumer(broker, "g", "t");
  (void)consumer.poll(40);
  consumer.commit();

  apps::MonitorThresholds th;
  th.lag_warn = 50;
  th.lag_crit = 1000;
  apps::OdaMonitor monitor(broker, tiers, th);
  monitor.tick(10 * kMinute);

  EXPECT_EQ(monitor.lag().total_lag("g", "t"), broker.lag("g", "t"));
  EXPECT_EQ(monitor.overall(), SloState::kDegraded);  // 60 > warn of 50

  const std::string report = monitor.render();
  EXPECT_NE(report.find("stream.lag"), std::string::npos);
  EXPECT_NE(report.find("consumer lag"), std::string::npos);
  const std::string json = monitor.to_json();
  EXPECT_NE(json.find("\"fleet_lag\":60"), std::string::npos);
  EXPECT_NE(apps::OdaMonitor::one_line().find("oda-metrics:"), std::string::npos);
}

// --- determinism with observation enabled --------------------------------

std::vector<std::pair<std::string, std::int64_t>> traced_flow_fingerprint(std::uint64_t seed) {
  Tracer tracer;
  ScopedTracer scoped(tracer);
  set_virtual_now(0);

  stream::Broker broker;
  broker.create_topic("d", {.num_partitions = 3});
  auto producer = broker.producer("d");
  common::Rng rng(seed);
  {
    Span ingest("ingest");
    for (int i = 0; i < 500; ++i) {
      producer.produce(stream::Record{i * kSecond, std::to_string(rng.next() % 17),
                                      std::to_string(rng.next() % 1000)});
    }
  }

  pipeline::QueryConfig qc;
  qc.name = "det";
  qc.max_records_per_batch = 128;
  engine::Query q(qc, engine::SourceSpec{&broker, "d", "g", decode_simple}, 1);
  q.add_transform("ident", storage::DataClass::kSilver, [](const Table& t) { return t; });
  auto sink = std::make_unique<pipeline::TableSink>();
  const auto* table = sink.get();
  q.add_sink(std::move(sink));
  q.run_until_caught_up();

  // Fingerprint: every span's (name, virtual interval) in completion
  // order, plus the row count that landed. Wall times are excluded — they
  // are the one non-deterministic field by design.
  std::vector<std::pair<std::string, std::int64_t>> fp;
  for (const auto& s : tracer.store().snapshot()) {
    fp.emplace_back(s.name, s.virtual_end - s.virtual_start);
  }
  fp.emplace_back("rows", static_cast<std::int64_t>(table->table().num_rows()));
  return fp;
}

TEST(DeterminismTest, GoldenRunEqualWithObservationEnabled) {
  const auto a = traced_flow_fingerprint(1234);
  const auto b = traced_flow_fingerprint(1234);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 4u);  // ingest + batches + operators + sinks + rows
  const auto c = traced_flow_fingerprint(99);
  EXPECT_EQ(c.back().second, 500);  // all rows always land regardless of seed
}

// --- p999 quantile column ------------------------------------------------

TEST(HistogramTest, QuantilesAreMonotonicThroughTheTail) {
  Histogram h({1.0, 2.0, 4.0, 8.0, 16.0});
  for (int i = 0; i < 1000; ++i) h.add(1.5);  // bulk in (1, 2]
  for (int i = 0; i < 20; ++i) h.add(6.0);    // p99 in (4, 8]
  h.add(100.0);                                // p999 tail in overflow
  h.add(200.0);
  const double p50 = h.quantile(0.5);
  const double p99 = h.quantile(0.99);
  const double p999 = h.quantile(0.999);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);

  // The snapshot-level path (what the exporters use) must agree with the
  // live handle and stay monotonic too.
  MetricsRegistry reg;
  Histogram* rh = reg.histogram("lat", {}, {1.0, 2.0, 4.0, 8.0, 16.0});
  for (int i = 0; i < 1000; ++i) rh->add(1.5);
  for (int i = 0; i < 20; ++i) rh->add(6.0);
  rh->add(100.0);
  rh->add(200.0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const double s50 = quantile_from_buckets(snap[0].buckets, snap[0].count, 0.5);
  const double s99 = quantile_from_buckets(snap[0].buckets, snap[0].count, 0.99);
  const double s999 = quantile_from_buckets(snap[0].buckets, snap[0].count, 0.999);
  EXPECT_DOUBLE_EQ(s50, p50);
  EXPECT_DOUBLE_EQ(s99, p99);
  EXPECT_DOUBLE_EQ(s999, p999);
  EXPECT_LE(s50, s99);
  EXPECT_LE(s99, s999);

  const std::string text = metrics_to_text(snap);
  EXPECT_NE(text.find("p999="), std::string::npos);
  const std::string json = metrics_to_json(snap);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

// --- json_escape property + strict exporter validity ---------------------

TEST(ExportTest, JsonEscapeHandlesEveryByteValue) {
  // Property: for every single byte value, embedding the escaped form in
  // a JSON string literal yields a strictly valid document.
  for (int b = 0; b < 256; ++b) {
    std::string s = "pre";
    s += static_cast<char>(b);
    s += "post";
    const std::string doc = "{\"k\":\"" + json_escape(s) + "\"}";
    std::string err;
    EXPECT_TRUE(oda::testing::json_valid(doc, &err)) << "byte " << b << ": " << err;
  }
  // Multi-byte UTF-8 must pass through unmangled (no per-byte escaping).
  const std::string utf8 = "naïve – 計測 🎯 ▁▂▃█";
  EXPECT_EQ(json_escape(utf8), utf8);
  std::string err;
  EXPECT_TRUE(oda::testing::json_valid("\"" + json_escape(utf8) + "\"", &err)) << err;
  // The named escapes render canonically.
  EXPECT_EQ(json_escape("a\"b\\c\nd\re\tf"), "a\\\"b\\\\c\\nd\\re\\tf");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(ExportTest, AllJsonExportersEmitStrictlyValidJson) {
  MetricsRegistry reg;
  reg.counter("nasty\"name\\with\nescapes", {{"k\tkey", "v\"val\\"}})->inc(3);
  reg.gauge(std::string("ctl\x01\x1f") + "gauge")->set(-2.75);
  Histogram* h = reg.histogram("lat", {{"q", "a\\b"}}, {0.5, 5.0});
  h->add(0.1);
  h->add(1.0);
  h->add(100.0);  // overflow bucket: the infinite bound must render as "+Inf"
  std::string err;
  const std::string mj = metrics_to_json(reg.snapshot());
  EXPECT_TRUE(oda::testing::json_valid(mj, &err)) << err << "\n" << mj;
  EXPECT_NE(mj.find("\"le\":\"+Inf\""), std::string::npos);

  std::vector<SpanRecord> spans;
  SpanRecord s;
  s.trace_id = 7;
  s.span_id = 1;
  s.name = "sp\"an\nwith\tcontrol";
  s.virtual_start = 1000;
  s.virtual_end = 3500;
  s.wall_us = 1.5;
  s.tags = {{"topic", "_oda.metrics"}, {"weird\"tag", "\t\\"}};
  spans.push_back(s);
  const std::string sj = spans_to_json(spans);
  EXPECT_TRUE(oda::testing::json_valid(sj, &err)) << err << "\n" << sj;
  const std::string cj = spans_to_chrome_json(spans);
  EXPECT_TRUE(oda::testing::json_valid(cj, &err)) << err << "\n" << cj;
  EXPECT_TRUE(oda::testing::json_valid(spans_to_chrome_json({}), &err)) << err;

  SloBook book;
  book.add({.name = "s\"lo", .subject = "x\ny", .unit = "u", .warn = 1, .crit = 2,
            .breach_hold = 0, .clear_after = 1});
  book.update("s\"lo", 5.0, kSecond);
  const std::string lj = slos_to_json(book);
  EXPECT_TRUE(oda::testing::json_valid(lj, &err)) << err << "\n" << lj;
}

// --- Chrome trace-event export -------------------------------------------

TEST(ExportTest, ChromeTraceEmitsOneCompleteEventPerSpan) {
  Tracer tracer;
  ScopedTracer scoped(tracer);
  set_virtual_now(10 * kSecond);
  {
    Span a("alpha");
    set_virtual_now(12 * kSecond);
    {
      Span b("beta");
      set_virtual_now(13 * kSecond);
    }
    set_virtual_now(15 * kSecond);
  }
  const auto spans = tracer.store().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const std::string doc = spans_to_chrome_json(spans);
  std::string err;
  ASSERT_TRUE(oda::testing::json_valid(doc, &err)) << err << "\n" << doc;

  std::size_t events = 0;
  for (std::size_t pos = 0; (pos = doc.find("\"ph\":\"X\"", pos)) != std::string::npos; pos += 8) {
    ++events;
  }
  EXPECT_EQ(events, spans.size());
  // ts/dur are virtual microseconds passed straight through: beta opened
  // at 12 s and closed at 13 s of facility time.
  EXPECT_NE(doc.find("\"ts\":12000000"), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":1000000"), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  set_virtual_now(0);
}

TEST(ExportTest, ChromeTracePidTidComeFromTags) {
  std::vector<SpanRecord> spans;
  SpanRecord tagged;
  tagged.trace_id = 99;
  tagged.span_id = 5;
  tagged.name = "tagged";
  tagged.virtual_start = 0;
  tagged.virtual_end = 10;
  tagged.tags = {{"pid", "3"}, {"tid", "12"}, {"note", "x"}};
  spans.push_back(tagged);
  SpanRecord fallback;
  fallback.trace_id = 42;
  fallback.span_id = 6;
  fallback.name = "fallback";
  fallback.virtual_start = 5;
  fallback.virtual_end = 2;  // clock went nowhere: dur clamps to 0, not negative
  spans.push_back(fallback);

  const std::string doc = spans_to_chrome_json(spans);
  std::string err;
  ASSERT_TRUE(oda::testing::json_valid(doc, &err)) << err;
  EXPECT_NE(doc.find("\"pid\":3,\"tid\":12"), std::string::npos);
  // Untagged spans land on pid 1, tid = trace id (one track per trace).
  EXPECT_NE(doc.find("\"pid\":1,\"tid\":42"), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":0"), std::string::npos);
  EXPECT_EQ(doc.find("\"dur\":-"), std::string::npos);
  // Non-pid/tid tags ride in args; consumed pid/tid tags are not repeated.
  EXPECT_NE(doc.find("\"note\":\"x\""), std::string::npos);
  EXPECT_EQ(doc.find("\"pid\":\"3\""), std::string::npos);
}

}  // namespace
}  // namespace oda::observe
