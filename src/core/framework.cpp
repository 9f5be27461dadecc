#include "core/framework.hpp"

#include <stdexcept>

#include "observe/metrics.hpp"
#include "pipeline/self_telemetry.hpp"
#include "sql/expr.hpp"
#include "sql/ops.hpp"
#include "telemetry/codec.hpp"

namespace oda::core {

using common::Duration;
using common::TimePoint;
using engine::Query;
using sql::Table;
using sql::Value;

OdaFramework::OdaFramework(FrameworkConfig config)
    : config_(config), tiers_(broker_, lake_, ocean_, glacier_, config.retention) {}

telemetry::FacilitySimulator& OdaFramework::add_system(telemetry::SystemSpec spec,
                                                       telemetry::SimulatorConfig config) {
  systems_.push_back(std::make_unique<telemetry::FacilitySimulator>(std::move(spec), broker_, config));
  return *systems_.back();
}

telemetry::FacilitySimulator& OdaFramework::system(const std::string& name) {
  for (auto& s : systems_) {
    if (s->spec().name == name) return *s;
  }
  throw std::out_of_range("OdaFramework: unknown system '" + name + "'");
}

std::vector<std::string> OdaFramework::system_names() const {
  std::vector<std::string> out;
  out.reserve(systems_.size());
  for (const auto& s : systems_) out.push_back(s->spec().name);
  return out;
}

namespace {

/// A framework query: one engine::Query with a team of kQueryWorkers.
std::unique_ptr<Query> make_query(pipeline::QueryConfig qc, stream::Broker& broker,
                                  std::string topic, std::string group,
                                  pipeline::RecordDecoder decoder, chaos::RetryPolicy retry = {}) {
  return std::make_unique<Query>(
      std::move(qc),
      engine::SourceSpec{&broker, std::move(topic), std::move(group), std::move(decoder), retry},
      OdaFramework::kQueryWorkers);
}

}  // namespace

std::unique_ptr<Query> make_history_query(stream::Broker& broker, observe::HistoryStore& store,
                                          pipeline::QueryConfig config, chaos::RetryPolicy retry) {
  broker.create_topic(stream::kMetricsTopic);
  if (config.name == pipeline::QueryConfig{}.name) config.name = "_oda.history";
  auto q = make_query(std::move(config), broker, stream::kMetricsTopic, "_oda.history",
                      pipeline::metric_records_to_table, retry);
  q->add_sink(std::make_unique<pipeline::HistorySink>(store));
  return q;
}

std::unique_ptr<Query> OdaFramework::make_bronze_to_silver_power(const std::string& system_name) {
  const auto topics = telemetry::TopicNames::for_system(system_name);
  pipeline::QueryConfig qc;
  qc.name = "bronze_to_silver_power." + system_name;
  qc.max_records_per_batch = 8192;
  // Watermark slack: a batch reads the topic's partitions side by side
  // and the watermark is the maximum over them, so event times within a
  // batch can be skewed by up to a batch's span. Without this, windows
  // close early and skewed rows drop as late.
  qc.allowed_lateness = 2 * common::kMinute;
  auto q = make_query(qc, broker_, topics.power, "silver-pipeline." + system_name,
                      telemetry::packets_to_bronze);
  q->add_operator([window = config_.silver_window] {
    return std::make_unique<pipeline::WindowAggOp>(
        "window_agg_15s", "time", window, std::vector<std::string>{"node_id", "sensor"},
        std::vector<sql::AggSpec>{{"value", sql::AggKind::kMean, "mean_value"},
                                  {"value", sql::AggKind::kMin, "min_value"},
                                  {"value", sql::AggKind::kMax, "max_value"},
                                  {"value", sql::AggKind::kCount, "samples"}});
  });
  q->add_sink(std::make_unique<pipeline::TopicSink>(broker_, "silver.power." + system_name));
  q->add_sink(std::make_unique<pipeline::OceanSink>(ocean_, "silver/power/" + system_name,
                                                    storage::DataClass::kSilver));
  return q;
}

std::unique_ptr<Query> OdaFramework::make_silver_to_lake(const std::string& system_name,
                                                         const std::string& sensor_label,
                                                         const std::string& metric) {
  broker_.create_topic("silver.power." + system_name);
  pipeline::QueryConfig qc;
  qc.name = "silver_to_lake." + metric + "." + system_name;
  qc.time_column = "window_start";
  auto q = make_query(qc, broker_, "silver.power." + system_name,
                      "lake." + metric + "." + system_name, pipeline::decode_columnar_records);
  q->add_transform("filter_" + sensor_label, storage::DataClass::kSilver,
                   [sensor_label](const Table& t) {
                     return sql::filter(t, sql::col("sensor") == sql::lit(Value(sensor_label)));
                   });
  q->add_sink(std::make_unique<pipeline::LakeSink>(lake_, metric, "window_start", "mean_value",
                                                   std::vector<std::string>{"node_id"}));
  return q;
}

std::unique_ptr<Query> OdaFramework::make_silver_to_lake_max(const std::string& system_name,
                                                             const std::string& sensor_prefix,
                                                             const std::string& sensor_suffix,
                                                             const std::string& metric) {
  broker_.create_topic("silver.power." + system_name);
  pipeline::QueryConfig qc;
  qc.name = "silver_to_lake_max." + metric + "." + system_name;
  qc.time_column = "window_start";
  auto q = make_query(qc, broker_, "silver.power." + system_name,
                      "lake-max." + metric + "." + system_name, pipeline::decode_columnar_records);
  q->add_transform(
      "max_" + sensor_prefix + "*" + sensor_suffix, storage::DataClass::kSilver,
      [sensor_prefix, sensor_suffix](const Table& t) {
        if (t.num_rows() == 0) return t;
        std::vector<std::size_t> keep;
        const auto& sensors = t.column("sensor");
        for (std::size_t r = 0; r < t.num_rows(); ++r) {
          const std::string& s = sensors.str_at(r);
          const bool prefix_ok = s.rfind(sensor_prefix, 0) == 0;
          const bool suffix_ok = s.size() >= sensor_suffix.size() &&
                                 s.compare(s.size() - sensor_suffix.size(), sensor_suffix.size(),
                                           sensor_suffix) == 0;
          if (prefix_ok && suffix_ok) keep.push_back(r);
        }
        const Table matched = t.take(keep);
        if (matched.num_rows() == 0) return Table(matched.schema());
        return sql::group_by(matched, {"window_start", "node_id"},
                             {sql::AggSpec{"mean_value", sql::AggKind::kMax, "max_value"}});
      });
  q->add_sink(std::make_unique<pipeline::LakeSink>(lake_, metric, "window_start", "max_value",
                                                   std::vector<std::string>{"node_id"}));
  return q;
}

std::unique_ptr<Query> OdaFramework::make_bronze_archiver(const std::string& system_name) {
  const auto topics = telemetry::TopicNames::for_system(system_name);
  pipeline::QueryConfig qc;
  qc.name = "bronze_archiver." + system_name;
  qc.max_records_per_batch = 16384;
  auto q = make_query(qc, broker_, topics.power, "bronze-archive." + system_name,
                      telemetry::packets_to_bronze);
  q->add_sink(std::make_unique<pipeline::OceanSink>(ocean_, "bronze/power/" + system_name,
                                                    storage::DataClass::kBronze));
  return q;
}

std::unique_ptr<Query> OdaFramework::make_ost_to_lake(const std::string& system_name) {
  const auto topics = telemetry::TopicNames::for_system(system_name);
  pipeline::QueryConfig qc;
  qc.name = "ost_to_lake." + system_name;
  auto q = make_query(qc, broker_, topics.storage, "lake-ost." + system_name,
                      telemetry::ost_samples_to_table);
  q->add_sink(std::make_unique<pipeline::LakeSink>(lake_, "ost_latency_ms", "time", "latency_ms",
                                                   std::vector<std::string>{"ost"}));
  return q;
}

std::unique_ptr<Query> OdaFramework::make_fabric_to_lake(const std::string& system_name) {
  const auto topics = telemetry::TopicNames::for_system(system_name);
  pipeline::QueryConfig qc;
  qc.name = "fabric_to_lake." + system_name;
  auto q = make_query(qc, broker_, topics.fabric, "lake-fabric." + system_name,
                      telemetry::switch_samples_to_table);
  q->add_sink(std::make_unique<pipeline::LakeSink>(lake_, "switch_stall_pct", "time",
                                                   "congestion_stall_pct",
                                                   std::vector<std::string>{"switch_id"}));
  return q;
}

Query& OdaFramework::register_query(std::unique_ptr<Query> q) {
  queries_.push_back(std::move(q));
  return *queries_.back();
}

void OdaFramework::enable_self_telemetry(observe::ScraperConfig config) {
  if (scraper_) return;
  history_ = std::make_unique<observe::HistoryStore>();
  scraper_ = pipeline::make_scraper(observe::default_registry(), broker_, config);
  history_query_ = &register_query(make_history_query(broker_, *history_));
}

void OdaFramework::flush_self_telemetry() {
  if (!scraper_) return;
  scraper_->scrape(now_);
  history_query_->run_until_caught_up();
}

std::size_t OdaFramework::persist_self_telemetry_gold() {
  if (!history_) return 0;
  return pipeline::persist_history_gold(*history_, ocean_, "_oda/gold/metrics", now_);
}

void OdaFramework::advance(Duration dt, Duration step) {
  const TimePoint target = now_ + dt;
  while (now_ < target) {
    const Duration chunk = std::min(step, target - now_);
    for (auto& s : systems_) s->step(chunk);
    now_ += chunk;
    // Mirror the facility clock into the observability layer so spans and
    // SLO evaluations are stamped with deterministic virtual time.
    observe::set_virtual_now(now_);
    // Self-telemetry scrapes before queries drain, so the _oda.history
    // query folds this step's samples into the store in the same step.
    if (scraper_) scraper_->poll(now_);
    for (auto& q : queries_) q->run_until_caught_up();
    if (now_ - last_retention_ >= config_.retention_sweep_period) {
      tiers_.enforce(now_);
      last_retention_ = now_;
    }
  }
}

std::vector<ml::JobProfile> OdaFramework::extract_job_profiles(const std::string& system_name,
                                                               std::size_t min_samples) {
  auto& sys = system(system_name);
  std::vector<ml::JobProfile> profiles;
  for (const auto& job : sys.scheduler().jobs()) {
    if (job.start_time == 0 || job.end_time <= 0 || job.end_time > now_) continue;  // not finished
    // Whole-job power = sum over the job's nodes of each bucket's mean.
    std::map<TimePoint, double> buckets;
    for (std::uint32_t node : job.nodes) {
      storage::TsQuery q;
      q.metric = "node_power_w";
      q.tag_filter = {{"node_id", std::to_string(node)}};
      q.t0 = job.start_time;
      q.t1 = job.end_time;
      const Table series = lake_.query(q);
      for (std::size_t r = 0; r < series.num_rows(); ++r) {
        buckets[series.column("time").int_at(r)] += series.column("value").double_at(r);
      }
    }
    if (buckets.size() < min_samples) continue;
    ml::JobProfile p;
    p.job_id = job.job_id;
    p.true_archetype = static_cast<std::size_t>(job.archetype);
    p.power_w.reserve(buckets.size());
    for (const auto& [_, v] : buckets) p.power_w.push_back(v);
    profiles.push_back(std::move(p));
  }
  return profiles;
}

}  // namespace oda::core
