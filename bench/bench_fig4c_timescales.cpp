// Fig 4-c: "implementation of the pipelines is driven by the
// multi-timescale data usage" — each operational control loop (Fig 1)
// closes at its own cadence, which sets the pipeline latency budget.
// Measures achievable end-to-end latency (event time -> artifact
// available) for pipeline configurations matched to each loop and checks
// them against the budget.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/control_loop.hpp"
#include "engine/engine.hpp"
#include "sql/agg.hpp"
#include "telemetry/codec.hpp"

namespace {

// End-to-end latency of a windowed pipeline = window length (event-time
// buffering) + watermark wait + processing wall time per batch.
double measured_latency_s(oda::common::Duration window) {
  using namespace oda;
  bench::StandardRig rig(0.005);
  auto& fw = rig.fw;
  const auto topics = rig.sys->topics();
  pipeline::QueryConfig qc;
  qc.name = "loop_probe";
  auto q = std::make_unique<engine::Query>(
      qc, engine::SourceSpec{&fw.broker(), topics.power, "probe", telemetry::packets_to_bronze},
      core::OdaFramework::kQueryWorkers);
  q->add_operator([window] {
    return std::make_unique<pipeline::WindowAggOp>(
        "window", "time", window, std::vector<std::string>{"node_id", "sensor"},
        std::vector<sql::AggSpec>{{"value", sql::AggKind::kMean, "mean_value"}});
  });
  auto& query = fw.register_query(std::move(q));

  fw.advance(std::max<common::Duration>(4 * window, 2 * common::kMinute));
  const double processing = query.metrics().batch_wall_seconds.mean();
  // A window is emittable once the watermark passes its end: on average
  // half a window of residence plus a full window until closure.
  return common::to_seconds(window) * 1.5 + processing;
}

}  // namespace

int main() {
  using namespace oda;
  bench::header("Fig 4-c -- control-loop timescales drive pipeline latency",
                "Fig 1 + Fig 4-c",
                "faster loops need smaller windows; every loop's achievable latency fits "
                "within its budget when the window matches the timescale");

  std::printf("%-32s %-12s %-12s %-14s %s\n", "control loop (actor)", "timescale", "budget",
              "achieved", "fits?");
  for (const auto& loop : core::standard_control_loops()) {
    // Pipeline window sized to a quarter of the loop's latency budget,
    // capped to sane streaming windows for measurement.
    const common::Duration window =
        std::clamp<common::Duration>(loop.latency_budget / 4, 5 * common::kSecond,
                                     2 * common::kMinute);
    const double achieved = measured_latency_s(window);
    const bool fits = achieved <= common::to_seconds(loop.latency_budget);
    std::printf("%-32s %-12s %-12s %10.1f s   %s\n", loop.domain.c_str(),
                common::format_duration(loop.timescale).c_str(),
                common::format_duration(loop.latency_budget).c_str(), achieved,
                fits ? "yes" : "NO");
  }
  std::printf("\n(achieved = 1.5x aggregation window residency + measured batch processing time;\n"
              " slow loops tolerate large windows -> cheap batch; fast loops need streaming)\n");
  return 0;
}
