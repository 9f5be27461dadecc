// Fig 4-a: raw data ingest rate "up to terabytes scale per day".
// Runs both simulated generations at reduced scale, measures per-stream
// ingest, and extrapolates to full system scale. Also measures the
// broker's raw produce/consume throughput (the STREAM tier headroom).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "observe/metrics.hpp"
#include "observe/scraper.hpp"
#include "pipeline/self_telemetry.hpp"
#include "sql/table.hpp"
#include "stream/broker.hpp"
#include "telemetry/simulator.hpp"

namespace {

struct SystemRow {
  const char* stream;
  double sim_bytes;
  double sim_records;
  double scale_up;
};

void report_system(const oda::telemetry::SystemSpec& full_spec, double scale,
                   oda::common::Duration sim_span, oda::bench::JsonReport& report) {
  using namespace oda;
  stream::Broker broker;
  telemetry::SimulatorConfig cfg;
  cfg.scheduler.arrival_rate_per_hour = 200.0;
  cfg.scheduler.mean_duration_hours = 0.3;
  telemetry::SystemSpec spec = full_spec;
  // shrink cabinets by scale
  spec.cabinets = std::max<std::size_t>(1, static_cast<std::size_t>(spec.cabinets * scale));
  telemetry::FacilitySimulator sim(spec, broker, cfg);

  common::Stopwatch sw;
  sim.run_until(sim_span);
  const double wall_s = sw.elapsed_seconds();

  const auto& st = sim.ingest_stats();
  const double node_scale = static_cast<double>(full_spec.total_nodes()) /
                            static_cast<double>(spec.total_nodes());
  const double span_days = common::to_seconds(sim_span) / 86400.0;

  // The paper counts *raw* ingest: production collectors ship verbose
  // text/JSON, not our compact binary. A single sensor observation as
  // JSON, e.g. {"timestamp":1718822400123456,"host":"compass0042",
  // "sensor":"gpu3.power_w","value":281.74}, is ~90 bytes; a full syslog
  // line with headers is ~200 bytes.
  struct SystemRowEx {
    SystemRow row;
    double raw_units_per_record;  ///< raw-format bytes per broker record
  };
  const double readings_per_packet = static_cast<double>(spec.sensors_per_node());
  const SystemRowEx rows[] = {
      {{"power/thermal packets", double(st.power_bytes), double(st.power_records), node_scale},
       90.0 * readings_per_packet},
      {{"scheduler events", double(st.scheduler_bytes), double(st.scheduler_records), 1.0}, 300.0},
      {{"syslog & events", double(st.syslog_bytes), double(st.syslog_records), node_scale}, 200.0},
      {{"facility cooling", double(st.facility_bytes), double(st.facility_records), 1.0}, 400.0},
      {{"per-job I/O (Darshan)", double(st.io_bytes), double(st.io_records), node_scale}, 350.0},
      {{"storage system (OST)", double(st.storage_bytes), double(st.storage_records), 1.0}, 250.0},
  };
  std::printf("\n%s: simulated %zu nodes (full system: %zu), %s of facility time, wall %.2f s\n",
              spec.name.c_str(), spec.total_nodes(), full_spec.total_nodes(),
              common::format_duration(sim_span).c_str(), wall_s);
  std::printf("%-24s %14s %14s %16s %16s\n", "stream", "records/day", "sim bytes",
              "full-scale/day", "raw(JSON)/day");
  double total_day = 0.0, total_raw_day = 0.0;
  for (const auto& [r, raw_per_rec] : rows) {
    const double bytes_day = r.sim_bytes / span_days * r.scale_up;
    const double recs_day = r.sim_records / span_days * r.scale_up;
    const double raw_day = recs_day * raw_per_rec;
    total_day += bytes_day;
    total_raw_day += raw_day;
    std::printf("%-24s %14s %14s %16s %16s\n", r.stream, common::format_count(recs_day).c_str(),
                common::format_bytes(r.sim_bytes).c_str(),
                common::format_bytes(bytes_day).c_str(),
                common::format_bytes(raw_day).c_str());
  }
  std::printf("%-24s %14s %14s %16s %16s\n", "TOTAL", "", "",
              common::format_bytes(total_day).c_str(),
              common::format_bytes(total_raw_day).c_str());
  report.metric(spec.name + ".full_scale_bytes_per_day", total_day, "bytes/day");
  report.metric(spec.name + ".raw_json_bytes_per_day", total_raw_day, "bytes/day");
}

struct ThroughputResult {
  double produce_rate = 0.0;         ///< records/s, cached-handle single produce
  double produce_staged_rate = 0.0;  ///< records/s, staged encode + group-commit flush
  double produce_record_batch_rate = 0.0;  ///< records/s, legacy vector<Record> batch
  double consume_rate = 0.0;               ///< records/s
  double produce_allocs_per_record = 1e300;         ///< per-record path
  double produce_heap_bytes_per_record = 1e300;     ///< per-record path
  double staged_allocs_per_record = 1e300;          ///< staged path
  double staged_heap_bytes_per_record = 1e300;      ///< staged path
};

/// One produce+consume sweep over a fresh topic. The observe registry
/// counters are live (or gated off) exactly as in production — this is
/// the path the <5% instrumentation-overhead criterion is measured on.
/// Produces through a cached Producer handle (one name lookup total);
/// then sweeps the zero-copy staged path (encode into the staging arena
/// INSIDE the timed loop, flush every 512 with one group-committed append
/// per touched partition) and the legacy owned-Record batch path.
ThroughputResult broker_throughput_once(std::size_t n) {
  using namespace oda;
  ThroughputResult res;
  stream::Broker broker;
  broker.create_topic("bench", {8, 4 << 20, {}});
  stream::Producer producer = broker.producer("bench");
  stream::Record rec;
  rec.payload.assign(200, 'x');

  const bench::AllocSnapshot prod_before = bench::alloc_snapshot();
  common::Stopwatch sw;
  for (std::size_t i = 0; i < n; ++i) {
    rec.timestamp = static_cast<common::TimePoint>(i);
    rec.key = "n" + std::to_string(i % 512);
    producer.produce(rec);
  }
  const double prod_s = sw.elapsed_seconds();
  const bench::AllocSnapshot prod_d = bench::alloc_delta(prod_before, bench::alloc_snapshot());
  res.produce_rate = static_cast<double>(n) / prod_s;
  res.produce_allocs_per_record = static_cast<double>(prod_d.allocs) / static_cast<double>(n);
  res.produce_heap_bytes_per_record = static_cast<double>(prod_d.bytes) / static_cast<double>(n);

  // Staged path: the timed region covers the FULL producer-side cost —
  // key + payload encoded straight into the staging arena, flushed every
  // kBatch records. This is the write path the ROADMAP target (batch >=
  // 3x per-record) is measured on.
  constexpr std::size_t kBatch = 512;
  broker.create_topic("bench-staged", {8, 4 << 20, {}});
  stream::Producer staged_producer = broker.producer("bench-staged");
  stream::BatchBuilder& staging = staged_producer.staging();
  const std::string_view payload(rec.payload);
  const bench::AllocSnapshot staged_before = bench::alloc_snapshot();
  sw.reset();
  for (std::size_t i = 0; i < n; ++i) {
    common::ByteWriter& w = staging.begin_record(static_cast<common::TimePoint>(i));
    w.raw("n", 1);
    w.text_u64(i % 512);
    staging.begin_payload();
    w.raw(payload.data(), payload.size());
    staging.end_record();
    if (staging.pending() >= kBatch) staged_producer.flush();
  }
  staged_producer.flush();
  const double staged_s = sw.elapsed_seconds();
  const bench::AllocSnapshot staged_d =
      bench::alloc_delta(staged_before, bench::alloc_snapshot());
  res.produce_staged_rate = static_cast<double>(n) / staged_s;
  res.staged_allocs_per_record = static_cast<double>(staged_d.allocs) / static_cast<double>(n);
  res.staged_heap_bytes_per_record = static_cast<double>(staged_d.bytes) / static_cast<double>(n);

  // Legacy owned-Record batch path, pre-built outside the timer (the
  // append cost alone, as this sweep has always measured).
  broker.create_topic("bench-batched", {8, 4 << 20, {}});
  stream::Producer batched = broker.producer("bench-batched");
  std::vector<std::vector<stream::Record>> batches;
  batches.reserve(n / kBatch + 1);
  for (std::size_t i = 0; i < n; i += kBatch) {
    std::vector<stream::Record> batch;
    batch.reserve(kBatch);
    for (std::size_t j = i; j < std::min(i + kBatch, n); ++j) {
      stream::Record r;
      r.timestamp = static_cast<common::TimePoint>(j);
      r.key = "n" + std::to_string(j % 512);
      r.payload.assign(200, 'x');
      batch.push_back(std::move(r));
    }
    batches.push_back(std::move(batch));
  }
  sw.reset();
  for (auto& batch : batches) batched.produce_batch(std::move(batch));
  const double batch_s = sw.elapsed_seconds();
  res.produce_record_batch_rate = static_cast<double>(n) / batch_s;

  stream::Consumer consumer(broker, "bench-group", "bench");
  sw.reset();
  std::size_t consumed = 0;
  while (consumed < n) {
    const auto batch = consumer.poll(8192);
    if (batch.empty()) break;
    consumed += batch.size();
  }
  const double cons_s = sw.elapsed_seconds();
  res.consume_rate = static_cast<double>(consumed) / cons_s;
  return res;
}

/// Best-of-k (peak rate ≈ least interference from the OS) with metrics
/// enabled vs disabled, reporting the instrumentation overhead. Returns
/// the staged-batch vs per-record speedup — main() gates the build on it
/// staying >= 1.0 so the write path cannot silently re-regress.
double broker_throughput(oda::bench::JsonReport& report, bool smoke) {
  using namespace oda;
  const std::size_t kN = smoke ? 60000 : 200000;
  const int kRuns = smoke ? 2 : 24;

  // Interleave the on/off runs (on, off, on, off, ...) so thermal drift
  // and scheduler noise hit both configurations equally; keep the best.
  auto take_best = [](ThroughputResult& best, const ThroughputResult& t) {
    best.produce_rate = std::max(best.produce_rate, t.produce_rate);
    best.produce_staged_rate = std::max(best.produce_staged_rate, t.produce_staged_rate);
    best.produce_record_batch_rate =
        std::max(best.produce_record_batch_rate, t.produce_record_batch_rate);
    best.consume_rate = std::max(best.consume_rate, t.consume_rate);
    best.produce_allocs_per_record =
        std::min(best.produce_allocs_per_record, t.produce_allocs_per_record);
    best.produce_heap_bytes_per_record =
        std::min(best.produce_heap_bytes_per_record, t.produce_heap_bytes_per_record);
    best.staged_allocs_per_record =
        std::min(best.staged_allocs_per_record, t.staged_allocs_per_record);
    best.staged_heap_bytes_per_record =
        std::min(best.staged_heap_bytes_per_record, t.staged_heap_bytes_per_record);
  };
  (void)broker_throughput_once(kN / 4);  // warmup (allocators, page faults)
  ThroughputResult on, off;
  for (int r = 0; r < kRuns; ++r) {
    // Alternate which configuration goes first so a monotonic drift
    // (thermal, background load) biases neither side.
    const bool on_first = (r % 2) == 0;
    observe::set_metrics_enabled(on_first);
    take_best(on_first ? on : off, broker_throughput_once(kN));
    observe::set_metrics_enabled(!on_first);
    take_best(on_first ? off : on, broker_throughput_once(kN));
  }
  observe::set_metrics_enabled(true);

  const double wire = static_cast<double>(stream::Record{0, "n000", std::string(200, 'x')}.wire_size());
  const double mbs_on = on.produce_rate * wire / (1024.0 * 1024.0);
  const double overhead_prod = (off.produce_rate - on.produce_rate) / off.produce_rate * 100.0;
  const double overhead_cons = (off.consume_rate - on.consume_rate) / off.consume_rate * 100.0;
  const double batch_speedup = on.produce_staged_rate / on.produce_rate;
  // Guard the reduction ratio: the staged path can measure 0 allocs/rec.
  const double alloc_reduction =
      on.produce_allocs_per_record / std::max(on.staged_allocs_per_record, 1e-6);

  std::printf("\nbroker throughput (metrics ON):  produce %.0fk rec/s (%.0f MB/s), "
              "staged batch %.0fk rec/s, record batch %.0fk rec/s, consume %.0fk rec/s\n",
              on.produce_rate / 1e3, mbs_on, on.produce_staged_rate / 1e3,
              on.produce_record_batch_rate / 1e3, on.consume_rate / 1e3);
  std::printf("broker throughput (metrics OFF): produce %.0fk rec/s, consume %.0fk rec/s\n",
              off.produce_rate / 1e3, off.consume_rate / 1e3);
  std::printf("batched produce speedup: %.2fx over per-record produce (gate: >= 1.0)\n",
              batch_speedup);
  std::printf("produce allocations: per-record %.3f allocs/rec (%.1f heap B/rec), "
              "staged %.4f allocs/rec (%.2f heap B/rec), reduction %.0fx\n",
              on.produce_allocs_per_record, on.produce_heap_bytes_per_record,
              on.staged_allocs_per_record, on.staged_heap_bytes_per_record, alloc_reduction);
  std::printf("instrumentation overhead: produce %+.2f%%, consume %+.2f%% (criterion: < 5%%)\n",
              overhead_prod, overhead_cons);

  report.metric("broker.produce.rate.metrics_on", on.produce_rate, "records/s");
  report.metric("broker.produce.rate.metrics_off", off.produce_rate, "records/s");
  // produce_batch.* carries the staged write path (the produce_batch
  // story after the arena-encode redesign); the legacy owned-Record batch
  // keeps its own series for comparison.
  report.metric("broker.produce_batch.rate.metrics_on", on.produce_staged_rate, "records/s");
  report.metric("broker.produce_batch.speedup", batch_speedup, "x");
  report.metric("broker.produce_record_batch.rate.metrics_on", on.produce_record_batch_rate,
                "records/s");
  report.metric("broker.produce.allocs_per_record", on.produce_allocs_per_record,
                "allocs/record");
  report.metric("broker.produce.heap_bytes_per_record", on.produce_heap_bytes_per_record,
                "bytes/record");
  report.metric("broker.produce_staged.allocs_per_record", on.staged_allocs_per_record,
                "allocs/record");
  report.metric("broker.produce_staged.heap_bytes_per_record", on.staged_heap_bytes_per_record,
                "bytes/record");
  report.metric("broker.produce.alloc_reduction", alloc_reduction, "x");
  report.metric("broker.consume.rate.metrics_on", on.consume_rate, "records/s");
  report.metric("broker.consume.rate.metrics_off", off.consume_rate, "records/s");
  report.metric("observe.overhead.produce_pct", overhead_prod, "percent");
  report.metric("observe.overhead.consume_pct", overhead_cons, "percent");
  return batch_speedup;
}

/// The self-telemetry loop's produce-path cost. Same cached-handle
/// produce sweep as broker_throughput_once, with live registry writes in
/// BOTH configurations (counter inc per record, gauge set per 1024) so
/// the only difference is the Scraper itself: when on, it is polled every
/// 1024 records with virtual time advancing 1 s per poll, against the
/// production 15 s cadence — the same poll-often/scrape-on-cadence
/// relationship the framework's advance loop has.
double scraper_produce_once(std::size_t n, bool scraper_on) {
  using namespace oda;
  stream::Broker broker;
  broker.create_topic("bench", {8, 4 << 20, {}});
  stream::Producer producer = broker.producer("bench");

  observe::MetricsRegistry reg;
  std::unique_ptr<observe::Scraper> scraper;
  if (scraper_on) {
    scraper = pipeline::make_scraper(reg, broker, observe::ScraperConfig{});
  }
  observe::Counter* produced = reg.counter("bench.produced");
  observe::Gauge* depth = reg.gauge("bench.queue.depth");

  stream::Record rec;
  rec.payload.assign(200, 'x');
  common::Stopwatch sw;
  common::TimePoint vt = 0;
  for (std::size_t i = 0; i < n; ++i) {
    rec.timestamp = static_cast<common::TimePoint>(i);
    rec.key = "n" + std::to_string(i % 512);
    producer.produce(rec);
    produced->inc();
    if ((i & 1023) == 0) {
      depth->set(static_cast<double>(i % 4096));
      vt += common::kSecond;
      if (scraper) scraper->poll(vt);
    }
  }
  return static_cast<double>(n) / sw.elapsed_seconds();
}

void scraper_overhead(oda::bench::JsonReport& report, bool smoke) {
  using namespace oda;
  const std::size_t kN = smoke ? 60000 : 200000;
  const int kRuns = smoke ? 2 : 16;

  (void)scraper_produce_once(kN / 4, true);  // warmup
  double on = 0.0, off = 0.0;
  for (int r = 0; r < kRuns; ++r) {
    // Interleave and alternate order, as in broker_throughput: drift
    // biases neither configuration.
    const bool on_first = (r % 2) == 0;
    if (on_first) {
      on = std::max(on, scraper_produce_once(kN, true));
      off = std::max(off, scraper_produce_once(kN, false));
    } else {
      off = std::max(off, scraper_produce_once(kN, false));
      on = std::max(on, scraper_produce_once(kN, true));
    }
  }
  const double overhead = (off - on) / off * 100.0;
  std::printf("\nself-telemetry scraper on the produce path: on %.0fk rec/s, off %.0fk rec/s, "
              "overhead %+.2f%% (criterion: < 5%%)\n",
              on / 1e3, off / 1e3, overhead);
  report.metric("selfobs.produce.rate.scraper_on", on, "records/s");
  report.metric("selfobs.produce.rate.scraper_off", off, "records/s");
  report.metric("selfobs.overhead.produce_pct", overhead, "percent");
}

/// Zero-copy read path on the multi-consumer config: the same pre-filled
/// topic is drained by kGroups independent consumer groups (the paper's
/// fan-out, where every team subscribes to the same firehose), once
/// through the copying fetch_copy() and once through the view-returning
/// poll(). The win shows up twice — drain rate, and allocations per
/// record (fetch_copy deep-copies key+payload per record; poll hands out
/// string_views pinned to the immutable segments).
void consume_view_vs_copy(oda::bench::JsonReport& report, bool smoke) {
  using namespace oda;
  const std::size_t kRecords = smoke ? 60000 : 200000;
  constexpr std::size_t kGroups = 4;
  const int kRuns = smoke ? 2 : 8;

  stream::Broker broker;
  broker.create_topic("fanout", {8, 4 << 20, {}});
  stream::Producer producer = broker.producer("fanout");
  for (std::size_t i = 0; i < kRecords;) {
    std::vector<stream::Record> batch;
    batch.reserve(1024);
    for (std::size_t j = 0; j < 1024 && i < kRecords; ++j, ++i) {
      stream::Record r;
      r.timestamp = static_cast<common::TimePoint>(i);
      r.key = "n" + std::to_string(i % 512);
      r.payload.assign(256, 'x');
      batch.push_back(std::move(r));
    }
    producer.produce_batch(std::move(batch));
  }

  struct DrainResult {
    double rate = 0.0;
    double allocs_per_record = 1e300;
    double heap_bytes_per_record = 1e300;
  };
  int generation = 0;
  auto drain = [&](bool views) {
    ++generation;  // fresh groups every run: each drain reads the full log
    std::vector<std::unique_ptr<stream::Consumer>> consumers;
    for (std::size_t g = 0; g < kGroups; ++g) {
      consumers.push_back(std::make_unique<stream::Consumer>(
          broker, "fan" + std::to_string(generation) + "_" + std::to_string(g), "fanout"));
    }
    const std::size_t want = kRecords * kGroups;
    std::size_t total = 0;
    const bench::AllocSnapshot before = bench::alloc_snapshot();
    common::Stopwatch sw;
    while (total < want) {
      std::size_t got = 0;
      for (auto& c : consumers) {
        if (views) {
          got += c->poll(8192).size();
        } else {
          got += c->fetch_copy(8192).size();
        }
      }
      if (got == 0) break;
      total += got;
    }
    const double secs = sw.elapsed_seconds();
    const bench::AllocSnapshot d = bench::alloc_delta(before, bench::alloc_snapshot());
    DrainResult r;
    r.rate = static_cast<double>(total) / secs;
    r.allocs_per_record = static_cast<double>(d.allocs) / static_cast<double>(total);
    r.heap_bytes_per_record = static_cast<double>(d.bytes) / static_cast<double>(total);
    return r;
  };

  (void)drain(true);  // warmup (allocators, page cache)
  DrainResult copy, view;
  auto take_best = [](DrainResult& best, const DrainResult& t) {
    best.rate = std::max(best.rate, t.rate);
    best.allocs_per_record = std::min(best.allocs_per_record, t.allocs_per_record);
    best.heap_bytes_per_record = std::min(best.heap_bytes_per_record, t.heap_bytes_per_record);
  };
  for (int r = 0; r < kRuns; ++r) {
    // Alternate order so drift biases neither mode.
    const bool view_first = (r % 2) == 0;
    take_best(view_first ? view : copy, drain(view_first));
    take_best(view_first ? copy : view, drain(!view_first));
  }

  std::printf("\nmulti-consumer drain (%zu groups x %zu records):\n", kGroups, kRecords);
  std::printf("  copy poll():      %9.0fk rec/s, %6.3f allocs/rec, %7.1f heap B/rec\n",
              copy.rate / 1e3, copy.allocs_per_record, copy.heap_bytes_per_record);
  std::printf("  zero-copy views:  %9.0fk rec/s, %6.3f allocs/rec, %7.1f heap B/rec\n",
              view.rate / 1e3, view.allocs_per_record, view.heap_bytes_per_record);
  std::printf("  speedup %.2fx, allocation reduction %.1fx\n", view.rate / copy.rate,
              copy.allocs_per_record / view.allocs_per_record);

  report.metric("broker.consume.copy.rate", copy.rate, "records/s");
  report.metric("broker.consume.view.rate", view.rate, "records/s");
  report.metric("broker.consume.view_speedup", view.rate / copy.rate, "x");
  report.metric("broker.consume.copy.allocs_per_record", copy.allocs_per_record,
                "allocs/record");
  report.metric("broker.consume.view.allocs_per_record", view.allocs_per_record,
                "allocs/record");
  report.metric("broker.consume.copy.heap_bytes_per_record", copy.heap_bytes_per_record,
                "bytes/record");
  report.metric("broker.consume.view.heap_bytes_per_record", view.heap_bytes_per_record,
                "bytes/record");
  report.metric("broker.consume.alloc_reduction",
                copy.allocs_per_record / view.allocs_per_record, "x");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oda;
  // --smoke: the seconds-scale slice the perf ctest tier and the
  // oda_bench_smoke build hook run (fewer best-of runs, smaller sweeps,
  // shorter simulated span — same sections, same JSON metric names).
  bool smoke = false;
  for (int i = 1; i < argc; ++i) smoke |= std::string_view(argv[i]) == "--smoke";

  bench::header("Fig 4-a -- raw data ingest rate",
                "Fig 4-a; Sec I: '4.2 to 4.5 Terabytes of data daily'; Sec VII-B: '0.5 TB/day "
                "for the Frontier supercomputer' power data",
                "per-day volume dominated by per-node power/thermal streams; TB/day total at "
                "full scale");

  bench::JsonReport report("fig4a_ingest_rate");
  const common::Duration sim_span = smoke ? common::kMinute : 5 * common::kMinute;
  report_system(telemetry::mountain_spec(), 0.01, sim_span, report);
  report_system(telemetry::compass_spec(), 0.01, sim_span, report);
  const double batch_speedup = broker_throughput(report, smoke);
  scraper_overhead(report, smoke);
  consume_view_vs_copy(report, smoke);
  report.write();
  // Regression gate: oda_bench_smoke runs as part of the default build,
  // so a write path whose batched produce falls back below the per-record
  // rate fails the build, not just a dashboard.
  if (batch_speedup < 1.0) {
    std::fprintf(stderr,
                 "FAIL: produce_batch_vs_per_record = %.2fx < 1.0 — the staged write path "
                 "regressed below per-record produce\n",
                 batch_speedup);
    return 1;
  }
  return 0;
}
