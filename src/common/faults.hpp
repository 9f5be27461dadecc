// oda::chaos — deterministic infrastructure fault injection and retry.
//
// The paper's operational lesson (Sec V) is that ODA pipelines live on
// lossy, bursty, partially-failing infrastructure: collection gaps,
// broker backlogs, storage-tier hiccups. This header provides the seam
// that lets tests reproduce those conditions on demand:
//
//   - FaultPlan: a seeded, per-site schedule of transient errors, hard
//     failures and latency spikes. Installed globally; every instrumented
//     call path ("site") consults it through fault_point(). Runs are
//     reproducible: each site draws from its own Rng stream derived from
//     the plan seed, so the same seed yields the same fault schedule.
//   - RetryPolicy / Retrier: bounded retry with exponential backoff and
//     jitter. Backoff is *virtual* (accounted, not slept) so chaos tests
//     stay fast and deterministic.
//
// Instrumented sites (grep for chaos::fault_point):
//   stream.produce     Topic::produce (broker ingest)
//   stream.fetch       Partition::fetch (broker read path)
//   ocean.put          ObjectStore::put
//   ocean.get          ObjectStore::get
//   tiers.migrate      TierManager OCEAN->GLACIER migration unit
//   telemetry.collect  CollectionChannel delivery (collector -> broker)
//   pipeline.batch     engine::Query micro-batch body (after the fetch)
//   pipeline.sink      OceanSink / TopicSink external writes
//
// Sites fail *before* their side effect (a rejected/timed-out request),
// so a retried call never double-applies. When no plan is installed the
// cost of a site is one atomic load and a predictable branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace oda::chaos {

/// A retryable infrastructure error (timeout, backlog, flaky link).
class TransientFault : public std::runtime_error {
 public:
  explicit TransientFault(std::string_view site)
      : std::runtime_error("transient fault at " + std::string(site)) {}
};

/// A non-retryable failure (corrupt volume, fenced broker). Retriers
/// rethrow these immediately; callers must degrade, not spin.
class HardFault : public std::runtime_error {
 public:
  explicit HardFault(std::string_view site)
      : std::runtime_error("hard fault at " + std::string(site)) {}
};

/// Thrown by Retrier when the attempt/deadline budget is exhausted.
class RetriesExhausted : public std::runtime_error {
 public:
  RetriesExhausted(std::string_view what, std::size_t attempts, const std::string& last)
      : std::runtime_error("retries exhausted for " + std::string(what) + " after " +
                           std::to_string(attempts) + " attempts: " + last) {}
};

/// Per-site fault schedule. Probabilities are evaluated per visit in a
/// fixed order (hard, transient, latency) from the site's own Rng stream.
struct SiteConfig {
  double transient_p = 0.0;  ///< probability of a retryable TransientFault
  double hard_p = 0.0;       ///< probability of a non-retryable HardFault
  double latency_p = 0.0;    ///< probability of a (virtual) latency spike
  common::Duration latency = 20 * common::kMillisecond;  ///< spike size
  std::uint64_t skip_first = 0;  ///< visits before injection starts (warmup)
  std::uint64_t every_nth = 0;   ///< also fault deterministically every Nth visit (0 = off)
  std::uint64_t max_faults = UINT64_MAX;  ///< total fault budget for the site
};

struct SiteStats {
  std::uint64_t visits = 0;
  std::uint64_t transient_faults = 0;
  std::uint64_t hard_faults = 0;
  std::uint64_t latency_spikes = 0;
  common::Duration injected_latency = 0;
};

/// A seeded fault schedule over named sites. Thread-safe: inject() takes
/// an internal lock, so concurrent visitors are allowed (their interleaving
/// is then what decides which visit faults — single-threaded drivers are
/// fully reproducible).
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  /// Configure one site by exact name.
  void configure(const std::string& site, SiteConfig cfg);
  /// Fallback config for any visited site without an explicit entry.
  void configure_default(SiteConfig cfg);

  /// Called by fault_point(). Throws TransientFault / HardFault per the
  /// site's schedule; latency spikes only accumulate in stats.
  void inject(std::string_view site);

  SiteStats site_stats(std::string_view site) const;
  std::map<std::string, SiteStats> all_stats() const;
  std::uint64_t total_faults() const;

 private:
  struct SiteState {
    SiteConfig cfg;
    common::Rng rng;
    SiteStats stats;
    bool enabled = false;  ///< has a config (explicit or default)
  };
  SiteState& state_for(std::string_view site);  // callers hold mu_

  mutable std::mutex mu_;
  std::uint64_t seed_;
  std::optional<SiteConfig> default_cfg_;
  std::map<std::string, SiteState, std::less<>> sites_;
};

/// Observer interface for fault/retry events — the seam that lets the
/// observe layer count chaos activity without common depending on it.
/// Implementations must be cheap and non-throwing (called from hot paths
/// and from inside exception dispatch).
class FaultObserver {
 public:
  virtual ~FaultObserver() = default;
  /// kind: "transient", "hard" or "latency".
  virtual void on_fault(std::string_view site, std::string_view kind) = 0;
  virtual void on_retry(std::string_view what, common::Duration backoff) = 0;
  virtual void on_exhausted(std::string_view what) = 0;
};

namespace detail {
extern std::atomic<FaultPlan*> g_fault_plan;
extern std::atomic<FaultObserver*> g_fault_observer;

inline void notify_fault(std::string_view site, std::string_view kind) {
  FaultObserver* o = g_fault_observer.load(std::memory_order_acquire);
  if (o != nullptr) o->on_fault(site, kind);
}
inline void notify_retry(std::string_view what, common::Duration backoff) {
  FaultObserver* o = g_fault_observer.load(std::memory_order_acquire);
  if (o != nullptr) o->on_retry(what, backoff);
}
inline void notify_exhausted(std::string_view what) {
  FaultObserver* o = g_fault_observer.load(std::memory_order_acquire);
  if (o != nullptr) o->on_exhausted(what);
}
}  // namespace detail

/// Install (or with nullptr, remove) the process-wide fault observer.
inline void install_fault_observer(FaultObserver* o) {
  detail::g_fault_observer.store(o, std::memory_order_release);
}
inline FaultObserver* installed_fault_observer() {
  return detail::g_fault_observer.load(std::memory_order_acquire);
}

/// Install (or with nullptr, remove) the process-wide fault plan.
inline void install_fault_plan(FaultPlan* plan) {
  detail::g_fault_plan.store(plan, std::memory_order_release);
}
inline FaultPlan* installed_fault_plan() {
  return detail::g_fault_plan.load(std::memory_order_acquire);
}

/// The per-site hook threaded through the hot seams. One atomic load and
/// a never-taken branch when no plan is installed.
inline void fault_point(std::string_view site) {
  FaultPlan* plan = detail::g_fault_plan.load(std::memory_order_acquire);
  if (plan != nullptr) [[unlikely]]
    plan->inject(site);
}

/// RAII plan installation for tests.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan& plan) { install_fault_plan(&plan); }
  ~ScopedFaultPlan() { install_fault_plan(nullptr); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

// --- retry with exponential backoff --------------------------------------

struct RetryPolicy {
  std::size_t max_attempts = 5;  ///< total attempts (first call included)
  common::Duration base_backoff = 10 * common::kMillisecond;
  double multiplier = 2.0;
  common::Duration max_backoff = 5 * common::kSecond;
  double jitter = 0.5;  ///< backoff drawn uniformly in [b*(1-j), b*(1+j)]
  /// Total (virtual) backoff budget across one run(); 0 = unlimited.
  common::Duration deadline = 0;
};

struct RetryStats {
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;    ///< attempts beyond the first, summed over runs
  std::uint64_t exhausted = 0;  ///< run() calls that gave up
  common::Duration backoff_total = 0;  ///< virtual time spent backing off
};

/// Executes callables under a RetryPolicy. TransientFault retries with
/// backoff; HardFault and every other exception propagate immediately;
/// budget exhaustion throws RetriesExhausted. Backoff is virtual: it is
/// recorded in stats() but never slept, keeping tests fast while the
/// deadline arithmetic still bites.
class Retrier {
 public:
  explicit Retrier(RetryPolicy policy = {}, std::uint64_t seed = 0x5eedb0ffull)
      : policy_(policy), rng_(seed) {}

  void set_policy(const RetryPolicy& p) { policy_ = p; }
  const RetryPolicy& policy() const { return policy_; }
  const RetryStats& stats() const { return stats_; }

  /// Run `fn`, retrying on TransientFault. `on_retry` runs before each
  /// replay — the place to restore preconditions (e.g. rewind a consumer
  /// whose poll advanced partway before faulting).
  template <typename F, typename G>
  auto run(std::string_view what, F&& fn, G&& on_retry) -> std::invoke_result_t<F&> {
    common::Duration spent = 0;
    for (std::size_t attempt = 1;; ++attempt) {
      ++stats_.attempts;
      try {
        return fn();
      } catch (const TransientFault& e) {
        if (attempt >= policy_.max_attempts) {
          ++stats_.exhausted;
          detail::notify_exhausted(what);
          throw RetriesExhausted(what, attempt, e.what());
        }
        const common::Duration b = backoff_for(attempt);
        if (policy_.deadline > 0 && spent + b > policy_.deadline) {
          ++stats_.exhausted;
          detail::notify_exhausted(what);
          throw RetriesExhausted(what, attempt, e.what());
        }
        spent += b;
        stats_.backoff_total += b;
        ++stats_.retries;
        detail::notify_retry(what, b);
        on_retry();
      }
    }
  }

  template <typename F>
  auto run(std::string_view what, F&& fn) -> std::invoke_result_t<F&> {
    return run(what, std::forward<F>(fn), [] {});
  }

  /// Backoff for the given 1-based attempt: exponential, clamped, jittered.
  common::Duration backoff_for(std::size_t attempt) {
    double b = static_cast<double>(policy_.base_backoff);
    for (std::size_t i = 1; i < attempt; ++i) {
      b *= policy_.multiplier;
      if (b >= static_cast<double>(policy_.max_backoff)) break;
    }
    b = std::min(b, static_cast<double>(policy_.max_backoff));
    if (policy_.jitter > 0.0) b *= rng_.uniform(1.0 - policy_.jitter, 1.0 + policy_.jitter);
    return static_cast<common::Duration>(b);
  }

 private:
  RetryPolicy policy_;
  common::Rng rng_;
  RetryStats stats_;
};

}  // namespace oda::chaos
