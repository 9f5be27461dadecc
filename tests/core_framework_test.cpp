// End-to-end integration tests of OdaFramework: telemetry → broker →
// Bronze→Silver pipeline → LAKE/OCEAN → Gold extraction.
#include <gtest/gtest.h>

#include "core/framework.hpp"
#include "telemetry/spec.hpp"

namespace oda {
namespace {

using common::kMinute;
using common::kSecond;

class FrameworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spec = telemetry::mountain_spec(0.004);  // 1 cabinet = 18 nodes
    telemetry::SimulatorConfig cfg;
    cfg.scheduler.arrival_rate_per_hour = 120.0;
    cfg.scheduler.mean_duration_hours = 0.2;
    sys_ = &fw_.add_system(spec, cfg);
    fw_.register_query(fw_.make_bronze_to_silver_power("Mountain"));
    fw_.register_query(fw_.make_silver_to_lake("Mountain", "node.power_w", "node_power_w"));
    fw_.register_query(fw_.make_silver_to_lake("Mountain", "gpu0.temp_c", "gpu0_temp_c"));
  }

  core::OdaFramework fw_;
  telemetry::FacilitySimulator* sys_ = nullptr;
};

TEST_F(FrameworkTest, AdvanceProducesBronzeIntoBroker) {
  fw_.advance(2 * kMinute);
  const auto stats = fw_.broker().topic(sys_->topics().power).stats();
  EXPECT_GT(stats.produced_records, 0u);
  EXPECT_GT(stats.produced_bytes, 0u);
}

TEST_F(FrameworkTest, SilverPipelinePopulatesLake) {
  fw_.advance(5 * kMinute);
  EXPECT_GT(fw_.lake().point_count(), 0u);
  const auto latest = fw_.lake().latest("node_power_w");
  // All 18 nodes should have a power series.
  EXPECT_EQ(latest.num_rows(), sys_->spec().total_nodes());
}

TEST_F(FrameworkTest, LakeValuesArePhysical) {
  fw_.advance(5 * kMinute);
  const auto latest = fw_.lake().latest("node_power_w");
  for (std::size_t r = 0; r < latest.num_rows(); ++r) {
    const double w = latest.column("value").double_at(r);
    EXPECT_GT(w, 100.0);   // above overhead floor
    EXPECT_LT(w, 6000.0);  // below node max
  }
}

TEST_F(FrameworkTest, SilverStreamTopicCarriesBatches) {
  fw_.advance(3 * kMinute);
  const auto stats = fw_.broker().topic("silver.power.Mountain").stats();
  EXPECT_GT(stats.produced_records, 0u);
}

TEST_F(FrameworkTest, PipelineStageMetricsPopulated) {
  fw_.advance(3 * kMinute);
  const auto& q = *fw_.queries().front();
  ASSERT_FALSE(q.metrics().stages.empty());
  EXPECT_GT(q.metrics().batches, 0u);
  EXPECT_GT(q.metrics().stages[0].rows_in, 0u);
  EXPECT_GT(q.metrics().stages[0].rows_out, 0u);
  // Every framework pipeline runs on the engine, so each one shows up in
  // the engine's phase profile.
  for (const auto& query : fw_.queries()) {
    EXPECT_GT(query->phase_profile().accounted_s(), 0.0) << query->name();
  }
}

TEST_F(FrameworkTest, ExtractJobProfilesFindsFinishedJobs) {
  fw_.advance(30 * kMinute);
  const auto profiles = fw_.extract_job_profiles("Mountain", 4);
  EXPECT_GT(profiles.size(), 0u);
  for (const auto& p : profiles) {
    EXPECT_GE(p.power_w.size(), 4u);
    EXPECT_LT(p.true_archetype, telemetry::kNumArchetypes);
    for (double w : p.power_w) EXPECT_GT(w, 0.0);
  }
}

TEST_F(FrameworkTest, MaxProjectionTracksHottestGpu) {
  fw_.register_query(fw_.make_silver_to_lake_max("Mountain", "gpu", ".temp_c", "gpu_max_temp_c"));
  fw_.advance(5 * kMinute);
  const auto latest = fw_.lake().latest("gpu_max_temp_c");
  ASSERT_EQ(latest.num_rows(), sys_->spec().total_nodes());
  // Max across GPUs >= the single-GPU projection for the same node.
  const auto gpu0 = fw_.lake().latest("gpu0_temp_c");
  ASSERT_EQ(gpu0.num_rows(), latest.num_rows());
  for (std::size_t r = 0; r < latest.num_rows(); ++r) {
    EXPECT_GE(latest.column("value").double_at(r) + 1.0, gpu0.column("value").double_at(r));
  }
}

TEST_F(FrameworkTest, SystemLookupByName) {
  EXPECT_EQ(&fw_.system("Mountain"), sys_);
  EXPECT_THROW(fw_.system("nope"), std::out_of_range);
  EXPECT_EQ(fw_.system_names(), std::vector<std::string>{"Mountain"});
}

}  // namespace
}  // namespace oda
