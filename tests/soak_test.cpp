// Soak/stress tests: sustained load through the platform's hot paths —
// broker under concurrent produce/consume with retention pressure, the
// Silver pipeline over a large backlog, and large-table columnar round
// trips. These guard the engine's behaviour at volumes the paper's
// platform lives at (scaled to CI-friendly sizes).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/framework.hpp"
#include "storage/columnar.hpp"

namespace oda {
namespace {

using common::kMinute;
using common::kSecond;

TEST(SoakTest, BrokerSustainsProducersConsumersAndRetention) {
  stream::Broker broker;
  broker.create_topic("soak", {4, 64 << 10, {30 * kSecond, -1}});

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> produced{0};
  std::vector<std::thread> producers;
  for (int tid = 0; tid < 3; ++tid) {
    producers.emplace_back([&, tid] {
      auto producer = broker.producer("soak");
      stream::Record r;
      r.payload.assign(64, 'x');
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        r.timestamp = static_cast<common::TimePoint>(i) * kSecond;
        r.key = "k" + std::to_string(tid * 1000 + i % 97);
        producer.produce(r);
        produced.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // A consumer and a retention sweeper run concurrently with producers,
  // until the producers have demonstrably made progress (robust to
  // arbitrary thread scheduling under a loaded test runner).
  std::uint64_t consumed = 0;
  stream::Consumer consumer(broker, "soak-group", "soak");
  int round = 0;
  while (produced.load(std::memory_order_relaxed) < 5000 || consumed < 1000) {
    consumed += consumer.poll(512).size();
    if (++round % 20 == 0) {
      broker.enforce_retention(static_cast<common::TimePoint>(round) * kSecond);
    }
  }
  stop.store(true);
  for (auto& t : producers) t.join();
  EXPECT_GE(produced.load(), 5000u);
  EXPECT_GE(consumed, 1000u);
  // The topic stayed bounded by retention despite sustained production.
  EXPECT_LT(broker.topic("soak").stats().retained_bytes, 64u << 20);
}

TEST(SoakTest, PipelineDrainsLargeBacklog) {
  // A backlog of ~25 simulated minutes lands in the broker before the
  // pipeline starts (the "catch up after maintenance" scenario), then
  // the Silver query must drain it completely.
  core::OdaFramework fw;
  telemetry::SimulatorConfig cfg;
  cfg.scheduler.arrival_rate_per_hour = 300.0;
  cfg.scheduler.mean_duration_hours = 0.2;
  auto& sys = fw.add_system(telemetry::compass_spec(0.005), cfg);
  sys.run_until(25 * kMinute);  // broker fills; no queries registered yet

  auto& q = fw.register_query(fw.make_bronze_to_silver_power("Compass"));
  const std::uint64_t rows = q.run_until_caught_up();
  EXPECT_GT(rows, 150000u);  // 128 nodes * 24 sensors * 1500 s, minus loss
  EXPECT_EQ(q.lag(), 0);
  EXPECT_EQ(q.metrics().failures, 0u);
  EXPECT_GT(q.metrics().batches, 10u);
}

TEST(SoakTest, ColumnarMillionRowRoundTrip) {
  sql::Table big{sql::Schema{{"time", sql::DataType::kInt64},
                             {"node", sql::DataType::kString},
                             {"v", sql::DataType::kFloat64}}};
  big.reserve(1000000);
  common::Rng rng(17);
  for (int i = 0; i < 1000000; ++i) {
    big.append_row({sql::Value(static_cast<common::TimePoint>(i)),
                    sql::Value("n" + std::to_string(i % 512)), sql::Value(rng.normal(100, 10))});
  }
  const auto blob = storage::write_columnar(big);
  EXPECT_LT(blob.size(), 12u << 20);  // well under the ~20 MB naive size
  const auto info = storage::inspect_columnar(blob);
  EXPECT_EQ(info.num_rows, 1000000u);

  // Pushdown reads a narrow slice without decoding the world.
  storage::ReadOptions opts;
  opts.columns = {"time", "v"};
  opts.filter = storage::RowGroupFilter{"time", 500000, 500999};
  const auto slice = storage::read_columnar(blob, opts);
  EXPECT_GE(slice.num_rows(), 1000u);
  EXPECT_LE(slice.num_rows(), 66000u);  // at most one 64k row group
  const auto full = storage::read_columnar(blob);
  EXPECT_EQ(full.num_rows(), 1000000u);
  EXPECT_EQ(full.column("node").str_at(513), "n1");
}

TEST(SoakTest, LakeHandlesManySeries) {
  storage::TimeSeriesDb lake;
  for (int node = 0; node < 2000; ++node) {
    storage::SeriesKey key{"m", {{"node", std::to_string(node)}}};
    for (int i = 0; i < 50; ++i) lake.append(key, i * kSecond, node + i);
  }
  EXPECT_EQ(lake.series_count(), 2000u);
  EXPECT_EQ(lake.point_count(), 100000u);
  const auto latest = lake.latest("m");
  EXPECT_EQ(latest.num_rows(), 2000u);
  storage::TsQuery q;
  q.metric = "m";
  q.tag_filter = {{"node", "1234"}};
  const auto series = lake.query(q);
  ASSERT_EQ(series.num_rows(), 50u);
  EXPECT_DOUBLE_EQ(series.column("value").double_at(0), 1234.0);
  // Eviction across all series stays correct.
  EXPECT_EQ(lake.evict_older_than(25 * kSecond, 50 * kSecond), 2000u * 25u);
}

}  // namespace
}  // namespace oda
