// Chaos tier: the full telemetry → broker → pipeline → tiers flow under
// randomized, seeded infrastructure faults (oda::chaos). The headline
// assertion is exactly-once: for every seed, a run with faults injected
// at every seam must produce byte-identical refined output (row counts,
// checksums, OCEAN objects) to the fault-free golden run — retries and
// batch replays may thrash, but nothing is lost or double-counted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/faults.hpp"
#include "core/framework.hpp"
#include "engine/engine.hpp"
#include "observe/export.hpp"
#include "pipeline/operator.hpp"
#include "storage/archive.hpp"
#include "storage/object_store.hpp"
#include "storage/tiers.hpp"
#include "storage/tsdb.hpp"
#include "stream/broker.hpp"
#include "telemetry/codec.hpp"
#include "telemetry/simulator.hpp"

namespace oda {
namespace {

using common::kMinute;
using common::kSecond;

// --- Retrier unit coverage -------------------------------------------------

TEST(RetrierTest, SucceedsWithoutRetryOnCleanCall) {
  chaos::Retrier r;
  int calls = 0;
  const int v = r.run("op", [&] { return ++calls; });
  EXPECT_EQ(v, 1);
  EXPECT_EQ(r.stats().attempts, 1u);
  EXPECT_EQ(r.stats().retries, 0u);
}

TEST(RetrierTest, RetriesTransientThenSucceeds) {
  chaos::Retrier r;
  int calls = 0, recoveries = 0;
  const int v = r.run(
      "op",
      [&] {
        if (++calls < 3) throw chaos::TransientFault("op");
        return calls;
      },
      [&] { ++recoveries; });
  EXPECT_EQ(v, 3);
  EXPECT_EQ(recoveries, 2);       // on_retry before each replay
  EXPECT_EQ(r.stats().retries, 2u);
  EXPECT_GT(r.stats().backoff_total, 0);
}

TEST(RetrierTest, ExhaustsAfterMaxAttempts) {
  chaos::RetryPolicy p;
  p.max_attempts = 4;
  chaos::Retrier r(p);
  int calls = 0;
  EXPECT_THROW(r.run("op", [&]() -> int { ++calls; throw chaos::TransientFault("op"); }),
               chaos::RetriesExhausted);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(r.stats().exhausted, 1u);
}

TEST(RetrierTest, HardFaultPropagatesImmediately) {
  chaos::Retrier r;
  int calls = 0;
  EXPECT_THROW(r.run("op", [&]() -> int { ++calls; throw chaos::HardFault("op"); }),
               chaos::HardFault);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(r.stats().retries, 0u);
}

TEST(RetrierTest, DeadlineBoundsVirtualBackoff) {
  chaos::RetryPolicy p;
  p.max_attempts = 1000;
  p.base_backoff = 100 * common::kMillisecond;
  p.jitter = 0.0;
  p.deadline = 500 * common::kMillisecond;  // 100+200 ok; +400 exceeds
  chaos::Retrier r(p);
  int calls = 0;
  EXPECT_THROW(r.run("op", [&]() -> int { ++calls; throw chaos::TransientFault("op"); }),
               chaos::RetriesExhausted);
  EXPECT_LT(calls, 10);  // deadline, not max_attempts, stopped it
  EXPECT_LE(r.stats().backoff_total, p.deadline);
}

TEST(RetrierTest, BackoffGrowsClampsAndJittersWithinBounds) {
  chaos::RetryPolicy p;
  p.base_backoff = 10 * common::kMillisecond;
  p.multiplier = 2.0;
  p.max_backoff = 60 * common::kMillisecond;
  p.jitter = 0.5;
  chaos::Retrier r(p);
  common::Duration prev = 0;
  for (std::size_t attempt = 1; attempt <= 10; ++attempt) {
    const auto b = r.backoff_for(attempt);
    const double nominal =
        std::min(static_cast<double>(p.max_backoff),
                 static_cast<double>(p.base_backoff) * std::pow(p.multiplier, attempt - 1.0));
    EXPECT_GE(b, static_cast<common::Duration>(nominal * (1.0 - p.jitter) - 1));
    EXPECT_LE(b, static_cast<common::Duration>(nominal * (1.0 + p.jitter) + 1));
    if (attempt <= 3) {
      EXPECT_GT(b, prev / 4);  // grows (modulo jitter)
    }
    prev = b;
  }
}

// --- FaultPlan unit coverage -----------------------------------------------

TEST(FaultPlanTest, SameSeedSameSchedule) {
  const auto run_schedule = [](std::uint64_t seed) {
    chaos::FaultPlan plan(seed);
    chaos::SiteConfig cfg;
    cfg.transient_p = 0.3;
    cfg.latency_p = 0.2;
    plan.configure("site.a", cfg);
    std::vector<int> outcomes;
    for (int i = 0; i < 200; ++i) {
      try {
        plan.inject("site.a");
        outcomes.push_back(0);
      } catch (const chaos::TransientFault&) {
        outcomes.push_back(1);
      }
    }
    return std::make_pair(outcomes, plan.site_stats("site.a"));
  };
  const auto [o1, s1] = run_schedule(99);
  const auto [o2, s2] = run_schedule(99);
  const auto [o3, s3] = run_schedule(100);
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(s1.transient_faults, s2.transient_faults);
  EXPECT_EQ(s1.latency_spikes, s2.latency_spikes);
  EXPECT_NE(o1, o3);  // different seed, different schedule
  EXPECT_GT(s1.transient_faults, 0u);
}

TEST(FaultPlanTest, SkipFirstEveryNthAndBudget) {
  chaos::FaultPlan plan(7);
  chaos::SiteConfig cfg;
  cfg.skip_first = 5;
  cfg.every_nth = 3;   // deterministic fault on visits 8, 11, 14, ...
  cfg.max_faults = 2;  // but only two total
  plan.configure("s", cfg);
  std::vector<std::uint64_t> faulted_visits;
  for (std::uint64_t v = 1; v <= 20; ++v) {
    try {
      plan.inject("s");
    } catch (const chaos::TransientFault&) {
      faulted_visits.push_back(v);
    }
  }
  EXPECT_EQ(faulted_visits, (std::vector<std::uint64_t>{8, 11}));
  EXPECT_EQ(plan.site_stats("s").visits, 20u);
  EXPECT_EQ(plan.total_faults(), 2u);
}

TEST(FaultPlanTest, DefaultConfigAppliesToUnnamedSites) {
  chaos::FaultPlan plan(1);
  chaos::SiteConfig cfg;
  cfg.every_nth = 1;  // every visit faults
  plan.configure_default(cfg);
  EXPECT_THROW(plan.inject("anything.at.all"), chaos::TransientFault);
  EXPECT_EQ(plan.site_stats("anything.at.all").transient_faults, 1u);
}

TEST(FaultPointTest, NoPlanInstalledIsANoOp) {
  ASSERT_EQ(chaos::installed_fault_plan(), nullptr);
  EXPECT_NO_THROW(chaos::fault_point("stream.produce"));
}

// --- end-to-end chaos flow -------------------------------------------------

telemetry::SystemSpec tiny_spec() {
  telemetry::SystemSpec s;
  s.name = "tiny";
  s.cabinets = 2;
  s.nodes_per_cabinet = 4;
  s.components = {
      {telemetry::ComponentKind::kCpu, 1, 50.0, 200.0, 32.0, 0.1},
      {telemetry::ComponentKind::kGpu, 1, 60.0, 400.0, 30.0, 0.08},
  };
  s.sensor_period = kSecond;
  s.sample_loss_rate = 0.0;
  return s;
}

std::uint64_t table_checksum(const sql::Table& t) {
  std::vector<std::string> rows;
  rows.reserve(t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    std::string line;
    for (std::size_t c = 0; c < t.num_columns(); ++c) {
      line += t.column(c).is_null(r) ? std::string("<null>") : t.column(c).get(r).to_string();
      line += '|';
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());  // order-independent content hash
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& s : rows) h = common::fnv1a(s, h);
  return h;
}

struct FlowResult {
  std::uint64_t rows_ingested = 0;
  std::uint64_t silver_rows = 0;
  std::uint64_t silver_checksum = 0;
  std::uint64_t downstream_rows = 0;
  std::uint64_t downstream_checksum = 0;
  std::vector<std::pair<std::string, std::size_t>> ocean_objects;
  std::uint64_t ocean_checksum = 0;
  std::uint64_t failures = 0;
  std::uint64_t batches_skipped = 0;
  std::uint64_t dropped_records = 0;
};

/// The silver stage's 15-second window aggregate, one per lane.
engine::OperatorFactory w15_factory() {
  return [] {
    return std::make_unique<pipeline::WindowAggOp>(
        "w15", "time", 15 * kSecond, std::vector<std::string>{"node_id", "sensor"},
        std::vector<sql::AggSpec>{{"value", sql::AggKind::kMean, "mean_value"},
                                  {"value", sql::AggKind::kCount, "samples"}});
  };
}

/// Run the full flow: simulate ~2 minutes of a tiny facility, refine the
/// power stream Bronze→Silver (windowed agg) into a silver topic + OCEAN
/// + memory, and consume the silver topic downstream. If `plan` is given
/// it is installed for simulation and draining and removed for the final
/// clean drain/finalize (an outage that ends before shutdown).
FlowResult run_flow(std::uint64_t seed, chaos::FaultPlan* plan) {
  stream::Broker broker;
  storage::ObjectStore ocean;

  telemetry::SimulatorConfig cfg;
  cfg.seed = seed;
  telemetry::FacilitySimulator sim(tiny_spec(), broker, cfg);
  chaos::RetryPolicy rp;
  rp.max_attempts = 12;
  sim.set_collection_retry(rp);

  pipeline::QueryConfig qc;
  qc.name = "chaos_silver";
  qc.max_records_per_batch = 500;
  // Tight enough that windows close (and sinks run) *while* faults are
  // still being injected, not only during the clean finalize().
  qc.allowed_lateness = 20 * kSecond;
  qc.max_retries = 0;  // poison-free flow: replay until the batch commits
  engine::Query q(
      qc,
      engine::SourceSpec{&broker, sim.topics().power, "chaos-silver", telemetry::packets_to_bronze,
                         rp},
      1);
  q.add_operator(w15_factory());
  auto table_sink = std::make_unique<pipeline::TableSink>();
  const auto* silver_table = table_sink.get();
  q.add_sink(std::make_unique<pipeline::TopicSink>(broker, "silver.chaos", rp));
  q.add_sink(std::make_unique<pipeline::OceanSink>(ocean, "silver/chaos",
                                                   storage::DataClass::kSilver, 64, rp));
  q.add_sink(std::move(table_sink));

  pipeline::QueryConfig qc2;
  qc2.name = "chaos_downstream";
  qc2.time_column = "window_start";
  qc2.max_retries = 0;
  engine::Query q2(
      qc2,
      engine::SourceSpec{&broker, "silver.chaos", "chaos-down", pipeline::decode_columnar_records,
                         rp},
      1);
  auto down_sink = std::make_unique<pipeline::TableSink>();
  const auto* down_table = down_sink.get();
  q2.add_sink(std::move(down_sink));

  if (plan) chaos::install_fault_plan(plan);
  sim.run_until(2 * kMinute);
  q.run_until_caught_up(100000);
  q2.run_until_caught_up(100000);
  if (plan) chaos::install_fault_plan(nullptr);

  // Clean shutdown: drain stragglers and flush buffered windows/objects.
  q.run_until_caught_up(1000);
  q.finalize();
  q2.run_until_caught_up(1000);
  q2.finalize();

  FlowResult res;
  res.rows_ingested = q.metrics().rows_ingested;
  res.silver_rows = silver_table->table().num_rows();
  res.silver_checksum = table_checksum(silver_table->table());
  res.downstream_rows = down_table->table().num_rows();
  res.downstream_checksum = table_checksum(down_table->table());
  std::uint64_t oh = 0xcbf29ce484222325ull;
  for (const auto& meta : ocean.list()) {
    res.ocean_objects.emplace_back(meta.key, meta.size_bytes);
    oh = common::fnv1a(meta.key, oh);
    oh = common::fnv1a(std::span<const std::uint8_t>(*ocean.get(meta.key)), oh);
  }
  res.ocean_checksum = oh;
  res.failures = q.metrics().failures + q2.metrics().failures;
  res.batches_skipped = q.metrics().batches_skipped + q2.metrics().batches_skipped;
  res.dropped_records = sim.channel().stats().dropped_records;
  return res;
}

void configure_everywhere(chaos::FaultPlan& plan) {
  chaos::SiteConfig cfg;
  cfg.transient_p = 0.05;
  plan.configure("stream.produce", cfg);
  plan.configure("pipeline.batch", cfg);
  plan.configure("pipeline.sink", cfg);
  cfg.transient_p = 0.03;  // fetch fires once per partition per poll
  plan.configure("stream.fetch", cfg);
  cfg.transient_p = 0.08;
  cfg.latency_p = 0.1;
  plan.configure("telemetry.collect", cfg);
  plan.configure("ocean.put", cfg);
}

TEST(ChaosFlowTest, ExactlyOnceAcrossManySeeds) {
  constexpr std::uint64_t kSeeds = 24;  // acceptance floor is 20 distinct seeds
  std::uint64_t total_faults = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const FlowResult golden = run_flow(seed, nullptr);
    ASSERT_GT(golden.silver_rows, 0u);
    ASSERT_GT(golden.ocean_objects.size(), 0u);
    ASSERT_EQ(golden.failures, 0u);

    chaos::FaultPlan plan(seed * 7919 + 13);
    configure_everywhere(plan);
    const FlowResult faulty = run_flow(seed, &plan);
    total_faults += plan.total_faults();

    // Retry budgets are sized so no sample is dropped and no batch is
    // dead-lettered; given that, output must be exactly the golden run's.
    EXPECT_EQ(faulty.dropped_records, 0u);
    EXPECT_EQ(faulty.batches_skipped, 0u);
    EXPECT_EQ(faulty.rows_ingested, golden.rows_ingested);
    EXPECT_EQ(faulty.silver_rows, golden.silver_rows);
    EXPECT_EQ(faulty.silver_checksum, golden.silver_checksum);
    EXPECT_EQ(faulty.downstream_rows, golden.downstream_rows);
    EXPECT_EQ(faulty.downstream_checksum, golden.downstream_checksum);
    EXPECT_EQ(faulty.ocean_objects, golden.ocean_objects);
    EXPECT_EQ(faulty.ocean_checksum, golden.ocean_checksum);
  }
  // The whole exercise is vacuous if the plans never actually fired.
  EXPECT_GT(total_faults, 100u);
}

TEST(ChaosFlowTest, SinkOutageRollsBackThenRecoversExactlyOnce) {
  const FlowResult golden = run_flow(5, nullptr);

  // Total OCEAN outage: every put faults, exhausting the sink's retries.
  chaos::FaultPlan outage(123);
  chaos::SiteConfig down;
  down.transient_p = 1.0;
  outage.configure("ocean.put", down);

  stream::Broker broker;
  storage::ObjectStore ocean;
  telemetry::SimulatorConfig cfg;
  cfg.seed = 5;
  telemetry::FacilitySimulator sim(tiny_spec(), broker, cfg);
  sim.run_until(2 * kMinute);

  chaos::RetryPolicy rp;
  rp.max_attempts = 3;
  pipeline::QueryConfig qc;
  qc.name = "outage";
  qc.max_records_per_batch = 500;
  qc.allowed_lateness = 20 * kSecond;  // must match run_flow's golden config
  qc.max_retries = 0;  // never dead-letter; wait out the outage
  engine::Query q(
      qc, engine::SourceSpec{&broker, sim.topics().power, "outage", telemetry::packets_to_bronze},
      1);
  q.add_operator(w15_factory());
  auto table_sink = std::make_unique<pipeline::TableSink>();
  const auto* silver_table = table_sink.get();
  q.add_sink(std::make_unique<pipeline::OceanSink>(ocean, "silver/chaos",
                                                   storage::DataClass::kSilver, 64, rp));
  q.add_sink(std::move(table_sink));

  {
    chaos::ScopedFaultPlan scoped(outage);
    // Grind against the outage: every batch that reaches a put rolls back.
    for (int i = 0; i < 50; ++i) q.run_once();
  }
  EXPECT_GT(q.metrics().failures, 0u);
  EXPECT_EQ(q.metrics().batches_skipped, 0u);
  EXPECT_EQ(ocean.object_count(), 0u);  // nothing landed during the outage

  // Outage over: drain to completion and match the golden run.
  q.run_until_caught_up(100000);
  q.finalize();
  EXPECT_EQ(silver_table->table().num_rows(), golden.silver_rows);
  EXPECT_EQ(table_checksum(silver_table->table()), golden.silver_checksum);
  std::vector<std::pair<std::string, std::size_t>> objects;
  for (const auto& meta : ocean.list()) objects.emplace_back(meta.key, meta.size_bytes);
  EXPECT_EQ(objects, golden.ocean_objects);
}

TEST(ChaosFlowTest, HardFaultsDeadLetterWithoutCrashing) {
  stream::Broker broker;
  telemetry::SimulatorConfig cfg;
  cfg.seed = 9;
  telemetry::FacilitySimulator sim(tiny_spec(), broker, cfg);
  sim.run_until(kMinute);

  chaos::FaultPlan plan(55);
  chaos::SiteConfig hard;
  hard.hard_p = 1.0;
  hard.max_faults = 3;  // three poison batches, then healthy
  plan.configure("pipeline.batch", hard);

  pipeline::QueryConfig qc;
  qc.name = "hard";
  qc.max_records_per_batch = 200;
  qc.max_retries = 2;  // dead-letter quickly
  engine::Query q(
      qc, engine::SourceSpec{&broker, sim.topics().power, "hard", telemetry::packets_to_bronze}, 1);
  auto sink = std::make_unique<pipeline::TableSink>();
  const auto* table = sink.get();
  q.add_sink(std::move(sink));

  {
    chaos::ScopedFaultPlan scoped(plan);
    EXPECT_NO_THROW(q.run_until_caught_up(100000));
  }
  // Hard faults are not retried by the pipeline's outer loop either: each
  // one burns a batch attempt until the dead-letter policy skips it.
  EXPECT_GT(q.metrics().batches_skipped, 0u);
  EXPECT_GT(q.metrics().failures, 0u);
  EXPECT_GT(table->table().num_rows(), 0u);  // the healthy remainder flowed
  EXPECT_EQ(q.lag(), 0);                     // and the query fully caught up
}

TEST(ChaosFlowTest, CollectionDropsAreCountedNotFatal) {
  stream::Broker broker;
  telemetry::SimulatorConfig cfg;
  cfg.seed = 3;
  telemetry::FacilitySimulator sim(tiny_spec(), broker, cfg);
  chaos::RetryPolicy rp;
  rp.max_attempts = 2;
  sim.set_collection_retry(rp);

  chaos::FaultPlan plan(77);
  chaos::SiteConfig down;
  down.transient_p = 1.0;  // broker unreachable: every delivery drops
  plan.configure("telemetry.collect", down);
  {
    chaos::ScopedFaultPlan scoped(plan);
    EXPECT_NO_THROW(sim.run_until(30 * kSecond));
  }
  const auto& cs = sim.channel().stats();
  EXPECT_EQ(cs.delivered_records, 0u);
  EXPECT_GT(cs.dropped_records, 0u);
  EXPECT_GT(cs.retries, 0u);
  // Emission accounting is unaffected: the models kept producing.
  EXPECT_EQ(sim.ingest_stats().power_records + sim.ingest_stats().facility_records +
                sim.ingest_stats().scheduler_records + sim.ingest_stats().syslog_records +
                sim.ingest_stats().io_records + sim.ingest_stats().storage_records +
                sim.ingest_stats().nic_records + sim.ingest_stats().fabric_records,
            cs.dropped_records);

  // Broker back up: deliveries resume.
  sim.run_until(kMinute);
  EXPECT_GT(sim.channel().stats().delivered_records, 0u);
}

// --- the framework's own pipelines under chaos ------------------------------

/// Everything the framework commits: the LAKE CSV of each metric, every
/// OCEAN object (key and bytes), and the `_oda.history` dump of the
/// committed-progress series (wall-clock and failure series differ
/// between a faulted and a clean run by design).
struct FrameworkOutput {
  std::vector<std::string> lake_csv;
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> ocean;
  std::string history;
};

FrameworkOutput run_framework(chaos::FaultPlan* plan) {
  observe::default_registry().reset_values();
  observe::set_virtual_now(0);
  core::OdaFramework fw;
  telemetry::SimulatorConfig sim;
  sim.seed = 42;
  const std::string sys = fw.add_system(telemetry::mountain_spec(0.004), sim).spec().name;
  fw.register_query(fw.make_bronze_to_silver_power(sys));
  fw.register_query(fw.make_silver_to_lake(sys, "node.power_w", "node_power_w"));
  fw.register_query(fw.make_silver_to_lake_max(sys, "gpu", ".temp_c", "gpu_temp_max_c"));
  fw.register_query(fw.make_bronze_archiver(sys));
  fw.register_query(fw.make_ost_to_lake(sys));
  fw.register_query(fw.make_fabric_to_lake(sys));
  fw.enable_self_telemetry();
  {
    std::optional<chaos::ScopedFaultPlan> scoped;
    if (plan != nullptr) scoped.emplace(*plan);
    fw.advance(3 * kMinute);
  }
  // Clean shutdown: flush open windows and buffered objects.
  fw.flush_self_telemetry();
  for (const auto& q : fw.queries()) q->finalize();

  FrameworkOutput out;
  for (const char* metric : {"node_power_w", "gpu_temp_max_c", "ost_latency_ms", "switch_stall_pct"}) {
    storage::TsQuery q;
    q.metric = metric;
    out.lake_csv.push_back(sql::to_csv(fw.lake().query(q)));
  }
  for (const auto& meta : fw.ocean().list()) out.ocean.emplace_back(meta.key, *fw.ocean().get(meta.key));
  const observe::HistoryStore& history = *fw.history();
  for (const auto& series : history.series_names()) {
    if (series.rfind("pipeline.rows.ingested{", 0) != 0 && series.rfind("pipeline.batches{", 0) != 0 &&
        series.rfind("pipeline.watermark{", 0) != 0) {
      continue;
    }
    out.history += observe::history_to_text(history, series, INT64_MIN, INT64_MAX,
                                            observe::Resolution::kRaw);
  }
  return out;
}

TEST(ChaosFlowTest, FrameworkPipelinesExactlyOnceUnderChaos) {
  const FrameworkOutput golden = run_framework(nullptr);
  ASSERT_FALSE(golden.ocean.empty());
  for (const auto& csv : golden.lake_csv) EXPECT_GT(csv.size(), 64u);
  EXPECT_NE(golden.history.find("pipeline.rows.ingested{query=bronze_to_silver_power."),
            std::string::npos);
  EXPECT_NE(golden.history.find("pipeline.watermark{query=silver_to_lake."), std::string::npos);

  for (const std::uint64_t seed : {3, 17}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // Transient faults only, rare enough that no batch reaches the
    // dead-letter budget (5 consecutive failures) and no fetch exhausts
    // its retries for long.
    chaos::FaultPlan plan(seed);
    chaos::SiteConfig cfg;
    cfg.transient_p = 0.05;
    plan.configure("pipeline.batch", cfg);
    cfg.transient_p = 0.02;
    plan.configure("stream.fetch", cfg);
    const FrameworkOutput faulty = run_framework(&plan);
    EXPECT_GT(plan.site_stats("pipeline.batch").transient_faults, 0u);
    EXPECT_GT(plan.site_stats("stream.fetch").transient_faults, 0u);
    EXPECT_EQ(faulty.lake_csv, golden.lake_csv);
    EXPECT_EQ(faulty.ocean, golden.ocean);
    EXPECT_EQ(faulty.history, golden.history);
  }
}

TEST(ChaosTiersTest, MigrationDefersUnderFaultsThenCompletes) {
  stream::Broker broker;
  storage::TimeSeriesDb lake;
  storage::ObjectStore ocean;
  storage::TapeArchive glacier;
  storage::TierRetention ret;
  ret.ocean_age = common::kHour;
  storage::TierManager tiers(broker, lake, ocean, glacier, ret);
  chaos::RetryPolicy rp;
  rp.max_attempts = 2;
  tiers.set_migration_retry(rp);

  ocean.put("bronze/a", std::vector<std::uint8_t>(64, 1), "bronze", storage::DataClass::kBronze, 0);
  ocean.put("bronze/b", std::vector<std::uint8_t>(64, 2), "bronze", storage::DataClass::kBronze, 0);

  chaos::FaultPlan plan(31);
  chaos::SiteConfig down;
  down.transient_p = 1.0;
  plan.configure("tiers.migrate", down);
  {
    chaos::ScopedFaultPlan scoped(plan);
    const auto out = tiers.enforce(2 * common::kHour);
    EXPECT_EQ(out.ocean_objects_migrated, 0u);
    EXPECT_EQ(out.ocean_migrations_deferred, 2u);
    EXPECT_GT(out.migration_retries, 0u);
  }
  // Deferred, not lost: both objects still in OCEAN, none half-archived.
  EXPECT_EQ(ocean.object_count(), 2u);
  EXPECT_EQ(glacier.object_count(), 0u);

  // Next sweep after the glitch clears migrates everything exactly once.
  const auto out = tiers.enforce(2 * common::kHour);
  EXPECT_EQ(out.ocean_objects_migrated, 2u);
  EXPECT_EQ(out.ocean_migrations_deferred, 0u);
  EXPECT_EQ(ocean.object_count(), 0u);
  EXPECT_EQ(glacier.object_count(), 2u);
}

}  // namespace
}  // namespace oda
