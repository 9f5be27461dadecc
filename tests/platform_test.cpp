// Tests for platform features added on top of the core reproduction:
// interconnect telemetry, durable query checkpoints, the Constellation
// public repository, and the system-health dashboard.
#include <gtest/gtest.h>

#include "apps/health_dashboard.hpp"
#include "core/framework.hpp"
#include "engine/engine.hpp"
#include "governance/constellation.hpp"
#include "storage/columnar.hpp"
#include "telemetry/interconnect.hpp"

namespace oda {
namespace {

using common::kHour;
using common::kMinute;
using common::kSecond;
using sql::DataType;
using sql::Schema;
using sql::Table;
using sql::Value;

// ---- interconnect ---------------------------------------------------------

class InterconnectTest : public ::testing::Test {
 protected:
  telemetry::JobScheduler make_sched(double rate = 1200.0) {
    telemetry::SchedulerConfig cfg;
    cfg.arrival_rate_per_hour = rate;
    cfg.mean_duration_hours = 0.5;
    telemetry::JobScheduler sched(64, cfg, common::Rng(3));
    sched.advance_to(20 * kMinute);
    return sched;
  }
};

TEST_F(InterconnectTest, NicSamplesForBusyNodesOnly) {
  auto sched = make_sched();
  telemetry::InterconnectModel model({}, common::Rng(1));
  std::vector<telemetry::NicSample> nics;
  std::vector<telemetry::SwitchSample> switches;
  model.sample(20 * kMinute, 10 * kSecond, sched, nics, switches);
  EXPECT_EQ(nics.size(), sched.busy_nodes(20 * kMinute));
  EXPECT_EQ(switches.size(), telemetry::FabricConfig{}.switches);
  for (const auto& n : nics) {
    EXPECT_GE(n.tx_bytes_s, 0.0);
    EXPECT_LE(n.tx_bytes_s, telemetry::FabricConfig{}.link_bandwidth_bytes_s);
  }
}

TEST_F(InterconnectTest, CongestionSuperLinearInUtilization) {
  for (const auto& s : [&] {
         auto sched = make_sched();
         telemetry::InterconnectModel model({}, common::Rng(1));
         std::vector<telemetry::NicSample> nics;
         std::vector<telemetry::SwitchSample> switches;
         model.sample(20 * kMinute, 10 * kSecond, sched, nics, switches);
         return switches;
       }()) {
    EXPECT_NEAR(s.congestion_stall_pct, 100.0 * s.utilization * s.utilization * s.utilization,
                1e-6);
  }
}

TEST_F(InterconnectTest, MultiNodeJobsDriveFabricHarder) {
  // comm profile fabric_factor: single-node jobs ~5% of injection.
  const auto profile = telemetry::comm_profile_for(telemetry::JobArchetype::kPeriodic);
  EXPECT_TRUE(profile.allreduce_heavy);
  EXPECT_GT(profile.inject_rate, telemetry::comm_profile_for(telemetry::JobArchetype::kPhased).inject_rate);
}

TEST_F(InterconnectTest, CodecsRoundTrip) {
  telemetry::NicSample n;
  n.time = kMinute;
  n.node_id = 9;
  n.tx_bytes_s = 1.25e10;
  n.rx_bytes_s = 1.5e10;
  n.messages_s = 2e5;
  n.link_errors = 3;
  const auto nb = telemetry::decode_nic_sample(telemetry::encode_nic_sample(n));
  EXPECT_EQ(nb.node_id, 9u);
  EXPECT_DOUBLE_EQ(nb.tx_bytes_s, 1.25e10);
  EXPECT_EQ(nb.link_errors, 3u);

  telemetry::SwitchSample s;
  s.time = kMinute;
  s.switch_id = 2;
  s.throughput_bytes_s = 4e11;
  s.utilization = 0.5;
  s.congestion_stall_pct = 12.5;
  const auto sb = telemetry::decode_switch_sample(telemetry::encode_switch_sample(s));
  EXPECT_EQ(sb.switch_id, 2u);
  EXPECT_DOUBLE_EQ(sb.congestion_stall_pct, 12.5);
}

// ---- durable checkpoints -----------------------------------------------

/// A topic of one-row columnar records and the keyed 10-second window sum
/// the checkpoint tests run over it. Keys spread rows over the topic's
/// partitions, so each lane carries its own open windows; a batch is large
/// enough to read everything produced so far, so no lane runs ahead of
/// another in event time and no row arrives behind the watermark.
struct CheckpointRig {
  stream::Broker broker;
  storage::ObjectStore store;

  explicit CheckpointRig(std::size_t partitions = 1) {
    broker.create_topic("in", stream::TopicConfig{}.with_partitions(partitions));
  }

  void produce(common::TimePoint t, double v, const std::string& node = "n0") {
    Table row{Schema{{"time", DataType::kInt64}, {"node", DataType::kString},
                     {"v", DataType::kFloat64}}};
    row.append_row({Value(t), Value(node), Value(v)});
    stream::Record rec;
    rec.timestamp = t;
    rec.key = node;
    const auto blob = storage::write_columnar(row);
    rec.payload.assign(reinterpret_cast<const char*>(blob.data()), blob.size());
    broker.producer("in").produce(std::move(rec));
  }
  /// Seconds [from, to) for eight nodes.
  void produce_range(int from, int to) {
    for (int i = from; i < to; ++i) {
      for (int n = 0; n < 8; ++n) {
        produce(i * kSecond, static_cast<double>(i * 8 + n), "n" + std::to_string(n));
      }
    }
  }

  std::unique_ptr<engine::Query> make_query(std::size_t workers = 1,
                                            const std::string& name = "ckpt-query",
                                            const std::string& topic = "in") {
    auto q = std::make_unique<engine::Query>(
        pipeline::QueryConfig{}.with_name(name).with_batch_size(1024),
        engine::SourceSpec{&broker, topic, "g", pipeline::decode_columnar_records}, workers);
    q->add_operator([] {
      return std::make_unique<pipeline::WindowAggOp>(
          "w", "time", 10 * kSecond, std::vector<std::string>{"node"},
          std::vector<sql::AggSpec>{{"v", sql::AggKind::kSum, "s"}});
    });
    return q;
  }
};

TEST(DurableCheckpointTest, RestartResumesWindowState) {
  CheckpointRig rig;
  // First incarnation: consume a partial window, checkpoint, "crash".
  for (int i = 0; i < 5; ++i) rig.produce(i * kSecond, 1.0);
  {
    auto q1 = rig.make_query();
    q1->add_sink(std::make_unique<pipeline::TableSink>());
    q1->run_until_caught_up();
    q1->checkpoint_to(rig.store, "ckpt/q1", 0);
  }  // q1 destroyed: process gone

  // Second incarnation restores and finishes the window.
  for (int i = 5; i < 10; ++i) rig.produce(i * kSecond, 1.0);
  rig.produce(20 * kSecond, 0.0);  // watermark pusher
  auto q2 = rig.make_query();
  auto sink2 = std::make_unique<pipeline::TableSink>();
  auto* out = sink2.get();
  q2->add_sink(std::move(sink2));
  ASSERT_TRUE(q2->restore_from(rig.store, "ckpt/q1"));
  q2->run_until_caught_up();
  q2->finalize();

  // The [0,10s) window must contain all ten 1.0 rows exactly once.
  double window0 = -1.0;
  for (std::size_t r = 0; r < out->table().num_rows(); ++r) {
    if (out->table().column("window_start").int_at(r) == 0) {
      window0 = out->table().column("s").double_at(r);
    }
  }
  EXPECT_DOUBLE_EQ(window0, 10.0);
}

TEST(DurableCheckpointTest, MissingAndMismatchedCheckpoints) {
  CheckpointRig rig;
  auto qa = rig.make_query(1, "a");
  EXPECT_FALSE(qa->restore_from(rig.store, "nope"));

  qa->checkpoint_to(rig.store, "ckpt/a", 0);
  auto qb = rig.make_query(1, "b");
  EXPECT_THROW(qb->restore_from(rig.store, "ckpt/a"), std::runtime_error);
}

/// Committed sink bytes of the keyed window sum over 40 seconds of input,
/// produced in two halves. With `restart`, the first incarnation (team of
/// `before`) checkpoints after the first half and is destroyed; a second
/// incarnation (team of `after`) restores and finishes into the same sink.
std::vector<std::uint8_t> window_sums(bool restart, std::size_t before, std::size_t after) {
  CheckpointRig rig(4);
  pipeline::TableSink sink;
  rig.produce_range(0, 25);
  auto q = rig.make_query(before);
  q->add_sink_ref(sink);
  q->run_until_caught_up();
  if (restart) {
    q->checkpoint_to(rig.store, "ckpt/q", 0);
    q.reset();
  }
  rig.produce_range(25, 40);
  if (restart) {
    q = rig.make_query(after);
    q->add_sink_ref(sink);
    EXPECT_TRUE(q->restore_from(rig.store, "ckpt/q"));
  }
  q->run_until_caught_up();
  q->finalize();
  EXPECT_EQ(sink.table().num_rows(), 4u * 8u);  // 4 windows x 8 nodes
  return storage::write_columnar(sink.table());
}

TEST(DurableCheckpointTest, RestoreIntoAnyTeamSizeIsByteIdentical) {
  const auto uninterrupted = window_sums(false, 1, 1);
  EXPECT_EQ(window_sums(true, 1, 4), uninterrupted);
  EXPECT_EQ(window_sums(true, 4, 1), uninterrupted);
}

TEST(DurableCheckpointTest, LaneCountMismatchThrows) {
  CheckpointRig rig;
  rig.broker.create_topic("in4", stream::TopicConfig{}.with_partitions(4));
  rig.make_query(1, "q", "in")->checkpoint_to(rig.store, "ckpt/q", 0);
  auto wide = rig.make_query(1, "q", "in4");
  EXPECT_THROW(wide->restore_from(rig.store, "ckpt/q"), std::runtime_error);
}

TEST(DurableCheckpointTest, TruncatedBlobThrowsAndLeavesQueryUsable) {
  CheckpointRig rig;
  for (int i = 0; i < 5; ++i) rig.produce(i * kSecond, 1.0);
  {
    auto q1 = rig.make_query();
    q1->run_until_caught_up();
    q1->checkpoint_to(rig.store, "ckpt/q1", 0);
  }
  auto blob = *rig.store.get("ckpt/q1");
  ASSERT_GT(blob.size(), 1u);
  blob.pop_back();
  rig.store.put("ckpt/cut", blob, "checkpoints", storage::DataClass::kBronze, 0);

  auto q2 = rig.make_query();
  auto sink = std::make_unique<pipeline::TableSink>();
  auto* out = sink.get();
  q2->add_sink(std::move(sink));
  EXPECT_THROW(q2->restore_from(rig.store, "ckpt/cut"), std::out_of_range);
  EXPECT_EQ(q2->watermark(), INT64_MIN);

  // Still usable: the good checkpoint restores and the run completes.
  for (int i = 5; i < 10; ++i) rig.produce(i * kSecond, 1.0);
  ASSERT_TRUE(q2->restore_from(rig.store, "ckpt/q1"));
  q2->run_until_caught_up();
  q2->finalize();
  ASSERT_EQ(out->table().num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out->table().column("s").double_at(0), 10.0);
}

// ---- Constellation ------------------------------------------------------

Table usage_artifact() {
  Table t{Schema{{"project", DataType::kString},
                 {"user", DataType::kString},
                 {"node_hours", DataType::kFloat64}}};
  t.append_row({Value("P1"), Value("alice"), Value(10.0)});
  t.append_row({Value("P1"), Value("bob"), Value(20.0)});
  t.append_row({Value("P2"), Value("carol"), Value(30.0)});
  t.append_row({Value("P2"), Value("dan"), Value(40.0)});
  return t;
}

governance::ReleaseRequest standard_request() {
  governance::ReleaseRequest req;
  req.title = "per-project usage";
  req.description = "curated usage rollup";
  req.creators = {"energy-team"};
  req.requester = "energy-team";
  req.sanitize_policy.hash_columns = {"user"};
  req.sanitize_policy.drop_columns = {};
  req.quasi_identifiers = {"project"};
  req.min_k = 2;
  return req;
}

TEST(ConstellationTest, PublishLandingDownload) {
  governance::Constellation repo;
  const auto doi = repo.publish("t", "d", {"a"}, {1, 2, 3}, 7, 100);
  EXPECT_EQ(doi.rfind("10.13139/SIM/", 0), 0u);
  const auto landing = repo.landing(doi);
  ASSERT_TRUE(landing.has_value());
  EXPECT_EQ(landing->size_bytes, 3u);
  EXPECT_EQ(landing->downloads, 0u);
  EXPECT_EQ(repo.download(doi)->size(), 3u);
  EXPECT_EQ(repo.landing(doi)->downloads, 1u);
  EXPECT_FALSE(repo.download("10.13139/SIM/9999999").has_value());
  EXPECT_EQ(repo.catalog().size(), 1u);
}

TEST(ConstellationTest, ReleasePathEndToEnd) {
  governance::AdvisoryChainConfig cfg;
  for (auto& p : cfg.reject_prob) p = 0.0;
  governance::DataRuc ruc(cfg, common::Rng(1));
  governance::Constellation repo;
  // Artifact with the marker column dropped post-sanitization.
  auto req = standard_request();
  req.sanitize_policy.drop_columns = {"user"};
  req.sanitize_policy.hash_columns = {};
  std::string why;
  const auto doi = governance::release_dataset(ruc, repo, usage_artifact(), req, 0, &why);
  ASSERT_TRUE(doi.has_value()) << why;
  // Downloaded dataset decodes and is sanitized.
  const auto blob = repo.download(*doi);
  const Table back = storage::read_columnar(*blob);
  EXPECT_FALSE(back.schema().contains("user"));
  EXPECT_EQ(back.num_rows(), 4u);
}

TEST(ConstellationTest, KAnonymityGateBlocks) {
  governance::AdvisoryChainConfig cfg;
  for (auto& p : cfg.reject_prob) p = 0.0;
  governance::DataRuc ruc(cfg, common::Rng(2));
  governance::Constellation repo;
  Table tiny{Schema{{"project", DataType::kString}, {"node_hours", DataType::kFloat64}}};
  tiny.append_row({Value("P1"), Value(1.0)});  // singleton group: k=1
  auto req = standard_request();
  req.sanitize_policy.hash_columns = {};
  std::string why;
  EXPECT_FALSE(governance::release_dataset(ruc, repo, tiny, req, 0, &why).has_value());
  EXPECT_NE(why.find("k-anonymity"), std::string::npos);
  EXPECT_TRUE(repo.catalog().empty());
}

TEST(ConstellationTest, PiiGateBlocksResidualMarkers) {
  governance::AdvisoryChainConfig cfg;
  for (auto& p : cfg.reject_prob) p = 0.0;
  governance::DataRuc ruc(cfg, common::Rng(3));
  governance::Constellation repo;
  auto req = standard_request();  // hashes 'user' values but keeps the column name
  std::string why;
  EXPECT_FALSE(governance::release_dataset(ruc, repo, usage_artifact(), req, 0, &why).has_value());
  EXPECT_NE(why.find("PII"), std::string::npos);
}

TEST(ConstellationTest, AdvisoryRejectionStopsRelease) {
  governance::AdvisoryChainConfig cfg;
  for (auto& p : cfg.reject_prob) p = 0.0;
  cfg.reject_prob[static_cast<int>(governance::Consideration::kLegal)] = 1.0;
  governance::DataRuc ruc(cfg, common::Rng(4));
  governance::Constellation repo;
  auto req = standard_request();
  req.sanitize_policy.drop_columns = {"user"};
  req.sanitize_policy.hash_columns = {};
  std::string why;
  EXPECT_FALSE(governance::release_dataset(ruc, repo, usage_artifact(), req, 0, &why).has_value());
  EXPECT_NE(why.find("advisory"), std::string::npos);
}

// ---- health dashboard ------------------------------------------------------

class HealthDashboardTest : public ::testing::Test {
 protected:
  storage::TimeSeriesDb lake_;
  void add(const std::string& metric, const std::string& tag_key, const std::string& tag,
           double v) {
    lake_.append({metric, {{tag_key, tag}}}, kMinute, v);
  }
};

TEST_F(HealthDashboardTest, AllGreenWhenWithinThresholds) {
  add("node_power_w", "node_id", "0", 2000.0);
  add("gpu_temp_c", "node_id", "0", 55.0);
  add("ost_latency_ms", "ost", "0", 3.0);
  add("switch_stall_pct", "switch_id", "0", 5.0);
  apps::HealthDashboard dash(lake_);
  EXPECT_EQ(dash.overall(), apps::HealthStatus::kOk);
}

TEST_F(HealthDashboardTest, WorstSeriesDrivesStatus) {
  add("gpu_temp_c", "node_id", "0", 50.0);
  add("gpu_temp_c", "node_id", "1", 92.0);  // critical hotspot
  apps::HealthDashboard dash(lake_);
  EXPECT_EQ(dash.overall(), apps::HealthStatus::kCritical);
  bool found = false;
  for (const auto& p : dash.evaluate()) {
    if (p.name == "GPU thermals") {
      found = true;
      EXPECT_EQ(p.status, apps::HealthStatus::kCritical);
      EXPECT_DOUBLE_EQ(p.value, 92.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(HealthDashboardTest, WarningBetweenThresholds) {
  add("ost_latency_ms", "ost", "3", 30.0);
  apps::HealthDashboard dash(lake_);
  EXPECT_EQ(dash.overall(), apps::HealthStatus::kWarning);
}

TEST_F(HealthDashboardTest, EmptyLakeRendersNoData) {
  apps::HealthDashboard dash(lake_);
  EXPECT_EQ(dash.overall(), apps::HealthStatus::kOk);
  const std::string view = dash.render();
  EXPECT_NE(view.find("no data"), std::string::npos);
  EXPECT_NE(view.find("SYSTEM HEALTH [OK]"), std::string::npos);
}

TEST(HealthIntegrationTest, LiveFrameworkFeedsDashboard) {
  core::OdaFramework fw;
  telemetry::SimulatorConfig cfg;
  cfg.scheduler.arrival_rate_per_hour = 300.0;
  cfg.scheduler.mean_duration_hours = 0.3;
  fw.add_system(telemetry::compass_spec(0.005), cfg);
  fw.register_query(fw.make_bronze_to_silver_power("Compass"));
  fw.register_query(fw.make_silver_to_lake("Compass", "node.power_w", "node_power_w"));
  fw.register_query(fw.make_silver_to_lake_max("Compass", "gpu", ".temp_c", "gpu_temp_c"));
  fw.register_query(fw.make_ost_to_lake("Compass"));
  fw.register_query(fw.make_fabric_to_lake("Compass"));
  fw.advance(6 * kMinute);

  apps::HealthDashboard dash(fw.lake());
  const auto panels = dash.evaluate();
  // Every panel has data in a live run.
  for (const auto& p : panels) {
    EXPECT_EQ(p.detail.find("no data"), std::string::npos) << p.name;
  }
  EXPECT_NE(dash.render().find("fleet IT power"), std::string::npos);
}

}  // namespace
}  // namespace oda
