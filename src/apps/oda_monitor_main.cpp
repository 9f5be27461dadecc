// oda_monitor — the self-observability health app as an executable.
//
// Runs a small instrumented facility simulation (collection → broker →
// Bronze→Silver refinement → LAKE) with tracing and the self-telemetry
// loop enabled, then reports the framework's own health: SLO states,
// consumer lag, watermark freshness, tier backlogs, retained metric
// history, and the trace anatomy of the run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "apps/oda_monitor.hpp"
#include "core/framework.hpp"
#include "engine/engine.hpp"
#include "observe/export.hpp"
#include "observe/trace.hpp"
#include "telemetry/codec.hpp"

namespace {

constexpr const char* kUsage = R"(usage: oda_monitor [options]

Self-observability health app: runs an instrumented demo facility
(collection -> broker -> Bronze->Silver -> LAKE, plus a 2-worker engine
mirror) with tracing and the self-telemetry loop on, then reports the
framework's own health.

options:
  --help                 print this usage to stdout and exit 0
  --one-line             single-line metrics digest (build-log hook)
  --json                 machine-readable report
  --spans                include the span forest (trace anatomy)
  --watch [N]            periodic mode: N frames (default 4) of 30s of
                         facility time each, redrawing SLO state and
                         HistoryStore sparklines per frame
  --history <prefix>     tabular range dump (raw + 1m rollups) of every
                         retained series whose name starts with <prefix>
  --chrome-trace <file>  write the run's spans as Chrome trace-event JSON
                         (load in chrome://tracing or Perfetto)
  --flight <dump.json>   standalone viewer: render a flight dump written
                         by --flight-dump (or Engine::dump_flight) as a
                         per-worker phase timeline; with --json, re-emit
                         the parsed dump as normalized JSON
  --flight-dump <file>   run the demo with a chaos fault injected into
                         the engine mirror, then write the engine's
                         flight recorder as JSON to <file>
  --serve                LAKE serving demo: a multi-tenant LakeServer
                         over a synthetic LAKE + rollup rings, driven by
                         three projects (generous, mixed-priority, and
                         over-quota), then the serving report: scheduler
                         depth, per-project quota consumption, cache
                         hit/miss/evict counters, shed counts; with
                         --json, the machine-readable flavor

exit status: 0 healthy/degraded, 1 breached, 2 bad usage.
)";

// The --serve demo: deterministic single-process serving traffic that
// exercises every admission outcome. Three tenants: "dash" (interactive,
// hot repeated queries — the cache story), "batch" (half background — the
// shedding story under a Degraded depth SLO), "greedy" (granted less
// than one query's cost — the quota story).
int run_serve_demo(bool json) {
  oda::storage::TimeSeriesDb db;
  oda::observe::HistoryStore rollups;
  for (int n = 0; n < 8; ++n) {
    const oda::storage::SeriesKey key{"node_power_w", {{"node", "n" + std::to_string(n)}}};
    const std::string ring = oda::serve::history_series_name(key);
    for (int i = 0; i < 480; ++i) {  // 2h of 15s cadence
      const auto t = static_cast<oda::common::TimePoint>(i) * 15 * oda::common::kSecond;
      const double v = 95.0 + n + (i % 13);
      db.append(key, t, v);
      rollups.append(ring, t, v);
    }
  }

  oda::core::AllocationManager quotas;
  quotas.grant("dash", {.node_hours = 0, .storage_gb = 0, .service_slots = 8.0});
  quotas.grant("batch", {.node_hours = 0, .storage_gb = 0, .service_slots = 4.0});
  quotas.grant("greedy", {.node_hours = 0, .storage_gb = 0, .service_slots = 0.5});

  oda::observe::set_virtual_now(0);
  // warn 0.5 < depth 1: every query runs Degraded, so background traffic
  // sheds deterministically while interactive traffic still serves.
  oda::serve::LakeServer server(db,
                                oda::serve::ServeConfig{}
                                    .with_threads(2)
                                    .with_max_queue(8)
                                    .with_shed_depths(0.5, 1e9)
                                    .with_cache_bytes(1u << 20),
                                &rollups, &quotas);

  // dash: 10 distinct dashboard panels refreshed 20 times — raw scans
  // and 1m/10m rollup-plan queries, mostly cache hits after warmup.
  for (int round = 0; round < 20; ++round) {
    for (int panel = 0; panel < 10; ++panel) {
      oda::storage::TsQuery q;
      q.metric = "node_power_w";
      if (panel % 2) q.tag_filter = {{"node", "n" + std::to_string(panel % 8)}};
      q.t0 = 0;
      q.t1 = 2 * oda::common::kHour;
      q.step = (panel % 3 == 0) ? oda::common::kMinute
               : (panel % 3 == 1) ? 10 * oda::common::kMinute
                                  : 0;
      server.execute("dash", q);
    }
  }
  // batch: half interactive (served), half background (shed while Degraded).
  for (int i = 0; i < 50; ++i) {
    oda::storage::TsQuery q;
    q.metric = "node_power_w";
    q.t0 = 0;
    q.t1 = oda::common::kHour;
    q.step = oda::common::kMinute;
    server.execute("batch", q,
                   (i % 2) ? oda::serve::QueryPriority::kBackground
                           : oda::serve::QueryPriority::kInteractive);
  }
  // greedy: each query costs 1.0 slot against a 0.5-slot grant.
  for (int i = 0; i < 20; ++i) {
    oda::storage::TsQuery q;
    q.metric = "node_power_w";
    server.execute("greedy", q);
  }

  if (json) {
    std::cout << oda::apps::serve_report_json(server, quotas) << "\n";
  } else {
    std::cout << oda::apps::render_serve(server, quotas);
  }
  return 0;
}

// Merged p-th quantile of every stream.e2e_latency series in the
// process registry (one label set per query; summing per-bucket counts
// merges them into one distribution).
double e2e_quantile(double q) {
  std::vector<std::pair<double, std::uint64_t>> merged;
  std::uint64_t total = 0;
  for (const auto& m : oda::observe::default_registry().snapshot()) {
    if (m.name != "stream.e2e_latency" || m.kind != oda::observe::MetricKind::kHistogram) continue;
    if (merged.empty()) {
      merged = m.buckets;
    } else {
      for (std::size_t i = 0; i < merged.size() && i < m.buckets.size(); ++i) {
        merged[i].second += m.buckets[i].second;
      }
    }
    total += m.count;
  }
  if (total == 0) return 0.0;
  return oda::observe::quantile_from_buckets(merged, total, q);
}

void print_frame(const oda::apps::OdaMonitor& monitor, const oda::core::OdaFramework& fw,
                 const oda::observe::HistoryStore& history, int frame,
                 const std::vector<double>& e2e_p50, const std::vector<double>& e2e_p99) {
  std::printf("-- watch frame %d  t=%s  overall=%s --\n", frame,
              oda::common::format_duration(fw.now()).c_str(),
              oda::observe::slo_state_name(monitor.overall()));
  std::fputs(oda::observe::history_overview(history).c_str(), stdout);
  if (!e2e_p50.empty()) {
    std::printf("  %-28s %12.6f %s\n", "stream.e2e_latency.p50", e2e_p50.back(),
                oda::observe::sparkline(e2e_p50).c_str());
    std::printf("  %-28s %12.6f %s\n", "stream.e2e_latency.p99", e2e_p99.back(),
                oda::observe::sparkline(e2e_p99).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool one_line = false;
  bool json = false;
  bool spans = false;
  bool watch = false;
  int watch_frames = 4;
  std::string history_prefix;
  bool history_mode = false;
  std::string chrome_path;
  std::string flight_path;
  std::string flight_dump_path;
  bool serve_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << kUsage;
      return 0;
    } else if (std::strcmp(argv[i], "--one-line") == 0) {
      one_line = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--spans") == 0) {
      spans = true;
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      watch = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') watch_frames = std::atoi(argv[++i]);
      if (watch_frames <= 0) watch_frames = 4;
    } else if (std::strcmp(argv[i], "--history") == 0 && i + 1 < argc) {
      history_mode = true;
      history_prefix = argv[++i];
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      chrome_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flight") == 0 && i + 1 < argc) {
      flight_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flight-dump") == 0 && i + 1 < argc) {
      flight_dump_path = argv[++i];
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve_mode = true;
    } else {
      std::cerr << kUsage;
      return 2;
    }
  }

  // Standalone serving demo: no facility simulation, just the LakeServer
  // front-end over a synthetic LAKE (the read-side mirror of the demo).
  if (serve_mode) return run_serve_demo(json);

  // Standalone flight viewer: no demo run, just parse and render the
  // dump (the post-mortem half of the flight-recorder loop).
  if (!flight_path.empty()) {
    std::ifstream f(flight_path, std::ios::binary);
    if (!f) {
      std::cerr << "oda_monitor: cannot read " << flight_path << "\n";
      return 2;
    }
    std::string text((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
    try {
      const oda::observe::FlightDump dump = oda::apps::parse_flight_json(text);
      if (json) {
        std::cout << oda::observe::flight_to_json(dump);
      } else {
        std::cout << oda::apps::render_flight(dump);
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
    return 0;
  }

  oda::observe::Tracer tracer;
  oda::observe::ScopedTracer scoped(tracer);

  oda::core::OdaFramework fw;
  auto& sys = fw.add_system(oda::telemetry::compass_spec(0.004));
  auto& silver = fw.register_query(fw.make_bronze_to_silver_power(sys.spec().name));
  auto& to_lake = fw.register_query(
      fw.make_silver_to_lake(sys.spec().name, "node.power_w", "node_power_w"));
  fw.enable_self_telemetry();

  oda::apps::OdaMonitor monitor(fw.broker(), fw.tiers());
  monitor.watch_query(silver);
  monitor.watch_query(to_lake);
  // SLO transitions ride the loop too: each scrape forwards new ones to
  // the reserved _oda.alerts topic.
  fw.scraper()->watch_slos(monitor.slos());

  std::vector<double> e2e_p50;
  std::vector<double> e2e_p99;
  if (watch) {
    for (int frame = 1; frame <= watch_frames; ++frame) {
      fw.advance(30 * oda::common::kSecond);
      monitor.tick(fw.now());
      fw.flush_self_telemetry();
      e2e_p50.push_back(e2e_quantile(0.5));
      e2e_p99.push_back(e2e_quantile(0.99));
      print_frame(monitor, fw, *fw.history(), frame, e2e_p50, e2e_p99);
    }
  } else {
    fw.advance(2 * oda::common::kMinute);
  }

  // Partition-parallel path: an engine-driven query re-reads the Bronze
  // power stream into memory through a 2-worker consumer group, so the
  // report also covers the engine's scheduling totals.
  const auto topics = oda::telemetry::TopicNames::for_system(sys.spec().name);
  oda::engine::Engine engine(oda::engine::EngineConfig{}.with_workers(2));
  auto& mirror = engine.add_query(
      oda::pipeline::QueryConfig{}.with_name("engine.bronze.mirror"),
      oda::engine::SourceSpec{&fw.broker(), topics.power, "monitor.engine",
                              oda::telemetry::packets_to_bronze});
  mirror.add_sink(std::make_unique<oda::pipeline::TableSink>());
  // A flight dump of a clean run is a boring flight dump: when one was
  // asked for, fail the first generation once (a transient fault at the
  // "pipeline.batch" seam) so the timeline shows the fault instant, the
  // rollback, and the byte-identical replay.
  {
    oda::chaos::FaultPlan fail_first(0xf11);
    fail_first.configure("pipeline.batch", {.transient_p = 1.0, .max_faults = 1});
    std::optional<oda::chaos::ScopedFaultPlan> scoped_plan;
    if (!flight_dump_path.empty()) scoped_plan.emplace(fail_first);
    engine.run_until_caught_up();
  }
  monitor.watch_query(mirror);
  monitor.watch_engine(engine);

  monitor.tick(fw.now());
  // Final flush picks up the engine counters and any SLO transitions the
  // last tick produced.
  fw.flush_self_telemetry();

  if (!flight_dump_path.empty()) {
    const std::string dump_json = oda::observe::flight_to_json(engine.dump_flight());
    std::ofstream f(flight_dump_path, std::ios::binary);
    if (!f) {
      std::cerr << "oda_monitor: cannot write " << flight_dump_path << "\n";
      return 2;
    }
    f << dump_json;
    f.close();
    std::printf("wrote flight dump (%zu bytes) to %s\n", dump_json.size(),
                flight_dump_path.c_str());
    if (!history_mode && !one_line && !json && chrome_path.empty()) return 0;
  }

  if (!chrome_path.empty()) {
    const std::string trace = oda::observe::spans_to_chrome_json(tracer.store().snapshot());
    std::ofstream f(chrome_path, std::ios::binary);
    if (!f) {
      std::cerr << "oda_monitor: cannot write " << chrome_path << "\n";
      return 2;
    }
    f << trace;
    f.close();
    std::printf("wrote %zu spans (%zu bytes) to %s\n", tracer.store().size(), trace.size(),
                chrome_path.c_str());
    if (!history_mode && !one_line && !json) return 0;
  }

  if (history_mode) {
    const auto& history = *fw.history();
    std::size_t matched = 0;
    for (const auto& series : history.series_names()) {
      if (series.rfind(history_prefix, 0) != 0) continue;
      ++matched;
      std::cout << oda::observe::history_to_text(history, series, INT64_MIN, INT64_MAX,
                                                 oda::observe::Resolution::kRaw);
      std::cout << oda::observe::history_to_text(history, series, INT64_MIN, INT64_MAX,
                                                 oda::observe::Resolution::kOneMinute);
    }
    if (matched == 0) {
      std::cerr << "oda_monitor: no retained series matches '" << history_prefix << "'\n";
      return 1;
    }
    return 0;
  }

  if (one_line) {
    std::cout << oda::apps::OdaMonitor::one_line() << "\n";
    return 0;
  }
  if (json) {
    std::cout << monitor.to_json() << "\n";
    return 0;
  }
  if (!watch) {
    std::cout << monitor.render();
  }
  std::cout << oda::apps::OdaMonitor::one_line() << "\n";
  if (spans) {
    std::cout << "\n-- trace anatomy (last " << tracer.store().size() << " spans) --\n";
    std::cout << oda::observe::spans_to_text(tracer.store().snapshot());
  }
  return monitor.overall() == oda::observe::SloState::kBreached ? 1 : 0;
}
