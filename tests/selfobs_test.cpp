// Self-telemetry loop coverage (DESIGN.md §9): the metric/alert record
// codecs, the virtual-clock Scraper (delta encoding, cadence, internal
// exclusion, SLO alert forwarding), the HistoryStore rings and rollups,
// the broker-backed scrape→history pipeline including exactly-once
// behavior under an active chaos fault plan, the framework wiring with
// gold persistence, concurrent access (the TSan target of the selfobs
// tier), and the sparkline/history renderers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/faults.hpp"
#include "common/rng.hpp"
#include "core/framework.hpp"
#include "observe/export.hpp"
#include "observe/history.hpp"
#include "observe/metrics.hpp"
#include "observe/scraper.hpp"
#include "observe/slo.hpp"
#include "pipeline/self_telemetry.hpp"
#include "storage/object_store.hpp"
#include "stream/broker.hpp"
#include "telemetry/codec.hpp"

namespace oda::observe {
namespace {

using common::kMinute;
using common::kSecond;
using common::TimePoint;

// --- record codecs -------------------------------------------------------

TEST(SelfObsCodecTest, MetricSampleRoundTripsByteExactly) {
  const double values[] = {0.0, 1.0, -2.5, 0.1, 3.141592653589793, 1e300, -7.25e-17};
  for (double v : values) {
    MetricSample s;
    s.series = "stream.produced.records{topic=collect.power.compass}";
    s.kind = MetricKind::kHistogram;
    s.value = v;
    s.delta = v / 3.0;
    s.count = 123456789012345ull;
    const stream::Record r = encode_metric_sample(s, 42 * kSecond);
    EXPECT_EQ(r.timestamp, 42 * kSecond);
    EXPECT_EQ(r.key, s.series);  // series keys partition the metrics topic
    MetricSample out;
    ASSERT_TRUE(decode_metric_sample(r, &out)) << r.payload;
    EXPECT_EQ(out.series, s.series);
    EXPECT_EQ(out.kind, s.kind);
    // %.17g encoding: doubles round-trip bit-exactly, not approximately.
    EXPECT_EQ(out.value, s.value);
    EXPECT_EQ(out.delta, s.delta);
    EXPECT_EQ(out.count, s.count);
  }
}

TEST(SelfObsCodecTest, AlertEventRoundTrips) {
  AlertEvent e;
  e.slo = "stream.lag/silver";
  e.from = SloState::kDegraded;
  e.to = SloState::kBreached;
  e.value = 1234.5;
  const stream::Record r = encode_alert_event(e, 90 * kSecond);
  EXPECT_EQ(r.timestamp, 90 * kSecond);
  AlertEvent out;
  ASSERT_TRUE(decode_alert_event(r, &out)) << r.payload;
  EXPECT_EQ(out.slo, e.slo);
  EXPECT_EQ(out.from, e.from);
  EXPECT_EQ(out.to, e.to);
  EXPECT_EQ(out.value, e.value);
}

TEST(SelfObsCodecTest, MalformedPayloadsAreRejectedNotCrashed) {
  MetricSample good;
  good.series = "s";
  good.kind = MetricKind::kCounter;
  good.value = 7.0;
  good.count = 3;
  const stream::Record encoded = encode_metric_sample(good, 0);

  // Every strict prefix of a valid payload must be rejected.
  for (std::size_t cut = 0; cut < encoded.payload.size(); ++cut) {
    stream::Record r = encoded;
    r.payload = encoded.payload.substr(0, cut);
    MetricSample out;
    EXPECT_FALSE(decode_metric_sample(r, &out)) << "prefix length " << cut;
  }
  // Wrong magic, garbage, and cross-codec payloads too.
  for (const char* bad :
       {"", "x1\x1f", "m2\x1f" "c\x1f" "s\x1f" "1\x1f" "0\x1f" "0", "not a record",
        "m1\x1f" "?\x1f" "s\x1f" "NOTANUMBER\x1f" "0\x1f" "0"}) {
    stream::Record r;
    r.payload = bad;
    MetricSample out;
    EXPECT_FALSE(decode_metric_sample(r, &out)) << bad;
    AlertEvent aout;
    EXPECT_FALSE(decode_alert_event(r, &aout)) << bad;
  }
  AlertEvent aout;
  EXPECT_FALSE(decode_alert_event(encoded, &aout));  // metric payload is not an alert
}

// Property test for the zero-copy write path: the staged selfobs
// encoders must produce byte-identical key/payload to the Record
// encoders for arbitrary samples — the golden-run invariant rests on
// the two paths being indistinguishable on the wire.
TEST(SelfObsCodecTest, StagedEncodersMatchRecordEncodersByteForByte) {
  common::Rng rng(0x5e1f0b5);
  const auto random_value = [&rng]() {
    const double mant = static_cast<double>(rng.uniform_int(0, 1 << 30));
    const double v = std::ldexp(mant, static_cast<int>(rng.uniform_int(-60, 60)));
    return rng.bernoulli(0.5) ? -v : v;
  };

  stream::BatchBuilder staged;
  std::vector<stream::Record> want;
  for (int i = 0; i < 300; ++i) {
    const auto t = static_cast<TimePoint>(rng.uniform_int(0, 1 << 30));
    MetricSample s;
    s.series = "series." + std::to_string(rng.uniform_index(64));
    if (rng.bernoulli(0.3)) {
      s.series += "{topic=t" + std::to_string(rng.uniform_index(8)) + "}";
    }
    s.kind = static_cast<MetricKind>(rng.uniform_index(3));
    s.value = random_value();
    s.delta = rng.bernoulli(0.2) ? 0.0 : random_value();
    s.count = rng.next();
    want.push_back(encode_metric_sample(s, t));
    encode_metric_sample_into(s, t, staged);

    AlertEvent e;
    e.slo = "slo." + std::to_string(rng.uniform_index(16));
    e.from = static_cast<SloState>(rng.uniform_index(3));
    e.to = static_cast<SloState>(rng.uniform_index(3));
    e.value = random_value();
    want.push_back(encode_alert_event(e, t));
    encode_alert_event_into(e, t, staged);
  }

  std::vector<stream::EncodedRecord> got;
  staged.snapshot(got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].timestamp, want[i].timestamp) << "record " << i;
    EXPECT_EQ(got[i].key, want[i].key) << "record " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "record " << i;
  }
}

// --- the scraper ---------------------------------------------------------

struct CapturedRecords {
  std::vector<stream::Record> all;
  ProduceFn fn() {
    return [this](std::vector<stream::Record>&& batch) {
      const std::size_t n = batch.size();
      for (auto& r : batch) all.push_back(std::move(r));
      return n;
    };
  }
};

// Staged-mode capture obeying the StagedProduceFn contract: drain the
// builder on success (materializing owned Records for comparison).
struct CapturedStaged {
  std::vector<stream::Record> all;
  StagedProduceFn fn() {
    return [this](stream::BatchBuilder& staged) {
      std::vector<stream::EncodedRecord> got;
      staged.snapshot(got);
      for (const auto& r : got) {
        stream::Record rec;
        rec.timestamp = r.timestamp;
        rec.key = std::string(r.key);
        rec.payload = std::string(r.payload);
        all.push_back(std::move(rec));
      }
      const std::size_t n = got.size();
      staged.clear();
      return n;
    };
  }
};

// A staged-mode Scraper must emit the same record bytes, in the same
// order, as a legacy-mode Scraper observing the same registry and SLO
// book — including delta suppression and alert forwarding.
TEST(ScraperTest, StagedScraperMatchesLegacyByteForByte) {
  MetricsRegistry reg;
  SloBook book;
  book.add({.name = "lag", .subject = "q", .unit = "records", .warn = 10, .crit = 100,
            .breach_hold = 0, .clear_after = 1});

  CapturedRecords legacy_metrics, legacy_alerts;
  Scraper legacy(reg, legacy_metrics.fn(), legacy_alerts.fn());
  legacy.watch_slos(book);

  CapturedStaged staged_metrics, staged_alerts;
  Scraper staged(reg, staged_metrics.fn(), staged_alerts.fn());
  staged.watch_slos(book);

  Counter* c = reg.counter("work.done");
  Gauge* g = reg.gauge("queue.depth");
  const double slo_values[] = {1, 50, 50, 500, 2};  // healthy→degraded→breached→healthy
  for (int round = 0; round < 5; ++round) {
    c->inc(round + 1);
    if (round != 2) g->set(round * 2.5);  // round 2: unchanged, delta-suppressed
    const auto t = static_cast<TimePoint>(round * 30) * kSecond;
    book.update("lag", slo_values[round], t);
    legacy.scrape(t);
    staged.scrape(t);
  }

  ASSERT_EQ(staged_metrics.all.size(), legacy_metrics.all.size());
  for (std::size_t i = 0; i < staged_metrics.all.size(); ++i) {
    EXPECT_EQ(staged_metrics.all[i].timestamp, legacy_metrics.all[i].timestamp);
    EXPECT_EQ(staged_metrics.all[i].key, legacy_metrics.all[i].key);
    EXPECT_EQ(staged_metrics.all[i].payload, legacy_metrics.all[i].payload);
  }
  ASSERT_EQ(staged_alerts.all.size(), legacy_alerts.all.size());
  EXPECT_GT(staged_alerts.all.size(), 0u);  // the SLO walk produced transitions
  for (std::size_t i = 0; i < staged_alerts.all.size(); ++i) {
    EXPECT_EQ(staged_alerts.all[i].timestamp, legacy_alerts.all[i].timestamp);
    EXPECT_EQ(staged_alerts.all[i].key, legacy_alerts.all[i].key);
    EXPECT_EQ(staged_alerts.all[i].payload, legacy_alerts.all[i].payload);
  }
  EXPECT_EQ(staged.stats().samples_emitted, legacy.stats().samples_emitted);
  EXPECT_EQ(staged.stats().alerts_emitted, legacy.stats().alerts_emitted);
}

TEST(ScraperTest, DeltaEncodingSuppressesUnchangedSeries) {
  MetricsRegistry reg;
  CapturedRecords metrics;
  Scraper scraper(reg, metrics.fn(), {}, ScraperConfig{});

  Counter* c = reg.counter("work.done");
  c->inc(5);
  EXPECT_EQ(scraper.scrape(0), 1u);
  ASSERT_EQ(metrics.all.size(), 1u);
  MetricSample s;
  ASSERT_TRUE(decode_metric_sample(metrics.all[0], &s));
  EXPECT_EQ(s.series, "work.done");
  EXPECT_EQ(s.value, 5.0);
  EXPECT_EQ(s.delta, 0.0);  // first emission has no baseline
  EXPECT_EQ(s.count, 5u);

  c->inc(3);
  EXPECT_EQ(scraper.scrape(15 * kSecond), 1u);
  ASSERT_TRUE(decode_metric_sample(metrics.all[1], &s));
  EXPECT_EQ(s.value, 8.0);
  EXPECT_EQ(s.delta, 3.0);
  EXPECT_EQ(metrics.all[1].timestamp, 15 * kSecond);

  // Nothing changed: the scrape emits nothing and counts the suppression.
  EXPECT_EQ(scraper.scrape(30 * kSecond), 0u);
  EXPECT_EQ(metrics.all.size(), 2u);
  EXPECT_EQ(scraper.stats().scrapes, 3u);
  EXPECT_EQ(scraper.stats().samples_emitted, 2u);
  EXPECT_GE(scraper.stats().samples_suppressed, 1u);

  // full_snapshots mode re-emits unchanged series every scrape.
  CapturedRecords full;
  Scraper full_scraper(reg, full.fn(), {}, ScraperConfig{}.with_full_snapshots(true));
  full_scraper.scrape(0);
  full_scraper.scrape(15 * kSecond);
  EXPECT_EQ(full.all.size(), 2u);
}

TEST(ScraperTest, PollHonorsVirtualCadence) {
  MetricsRegistry reg;
  Gauge* g = reg.gauge("level");
  CapturedRecords metrics;
  Scraper scraper(reg, metrics.fn(), {}, ScraperConfig{}.with_cadence(15 * kSecond));

  g->set(1.0);
  EXPECT_EQ(scraper.poll(0), 1u);  // first poll always scrapes
  g->set(2.0);
  EXPECT_EQ(scraper.poll(10 * kSecond), 0u);  // not due yet
  EXPECT_EQ(scraper.poll(15 * kSecond), 1u);  // exactly one cadence later
  g->set(3.0);
  EXPECT_EQ(scraper.poll(29 * kSecond), 0u);
  EXPECT_EQ(scraper.poll(31 * kSecond), 1u);
  EXPECT_EQ(scraper.stats().scrapes, 3u);
}

TEST(ScraperTest, InternalTopicSeriesAreExcluded) {
  MetricsRegistry reg;
  reg.counter("stream.produced.records", {{"topic", "_oda.metrics"}})->inc(9);
  reg.counter("stream.produced.records", {{"topic", "collect.power"}})->inc(4);

  CapturedRecords metrics;
  Scraper scraper(reg, metrics.fn());
  EXPECT_EQ(scraper.scrape(0), 1u);  // only the facility topic's series
  MetricSample s;
  ASSERT_EQ(metrics.all.size(), 1u);
  ASSERT_TRUE(decode_metric_sample(metrics.all[0], &s));
  EXPECT_NE(s.series.find("collect.power"), std::string::npos);
  EXPECT_EQ(scraper.stats().series_excluded, 1u);

  // Opting out (tests only) emits both.
  CapturedRecords raw;
  Scraper unfiltered(reg, raw.fn(), {}, ScraperConfig{}.with_exclude_internal(false));
  EXPECT_EQ(unfiltered.scrape(0), 2u);
}

TEST(ScraperTest, SloTransitionsForwardOnceEach) {
  MetricsRegistry reg;
  SloBook book;
  book.add({.name = "lag", .subject = "q", .unit = "records", .warn = 10, .crit = 100,
            .breach_hold = 0, .clear_after = 1});

  CapturedRecords metrics;
  CapturedRecords alerts;
  Scraper scraper(reg, metrics.fn(), alerts.fn());
  scraper.watch_slos(book);

  book.update("lag", 50, 10 * kSecond);  // healthy → degraded
  scraper.scrape(15 * kSecond);
  ASSERT_EQ(alerts.all.size(), 1u);
  AlertEvent e;
  ASSERT_TRUE(decode_alert_event(alerts.all[0], &e));
  EXPECT_EQ(e.slo, "lag");
  EXPECT_EQ(e.from, SloState::kHealthy);
  EXPECT_EQ(e.to, SloState::kDegraded);
  EXPECT_EQ(e.value, 50.0);
  // Stamped with the transition's own virtual time, not the scrape's.
  EXPECT_EQ(alerts.all[0].timestamp, 10 * kSecond);

  // Already-forwarded transitions are not re-sent.
  scraper.scrape(30 * kSecond);
  EXPECT_EQ(alerts.all.size(), 1u);

  book.update("lag", 1, 40 * kSecond);  // degraded → healthy
  scraper.scrape(45 * kSecond);
  ASSERT_EQ(alerts.all.size(), 2u);
  ASSERT_TRUE(decode_alert_event(alerts.all[1], &e));
  EXPECT_EQ(e.to, SloState::kHealthy);
  EXPECT_EQ(scraper.stats().alerts_emitted, 2u);
}

TEST(ScraperTest, ConfigValidateRejectsNonsense) {
  EXPECT_THROW(ScraperConfig{}.with_cadence(0).validate(), std::invalid_argument);
  EXPECT_THROW(ScraperConfig{}.with_cadence(-kSecond).validate(), std::invalid_argument);
  EXPECT_THROW(ScraperConfig{}.with_metrics_partitions(0).validate(), std::invalid_argument);
  EXPECT_NO_THROW(ScraperConfig{}.validate());
  EXPECT_THROW(observe::HistoryConfig{}.with_raw_capacity(0).validate(), std::invalid_argument);
  EXPECT_THROW(observe::HistoryConfig{}.with_rollup_capacity(0).validate(),
               std::invalid_argument);
}

// --- the history store ---------------------------------------------------

TEST(HistoryStoreTest, RawRingEvictsOldestFirst) {
  HistoryStore store(HistoryConfig{}.with_raw_capacity(4).with_rollup_capacity(8));
  for (int i = 0; i < 10; ++i) {
    store.append("s", i * kSecond, static_cast<double>(i));
  }
  const auto points = store.query("s", INT64_MIN, INT64_MAX, Resolution::kRaw);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points.front().t, 6 * kSecond);  // oldest retained
  EXPECT_EQ(points.back().t, 9 * kSecond);
  EXPECT_EQ(points.back().last, 9.0);
  EXPECT_EQ(store.total_samples(), 10u);
  EXPECT_EQ(store.evicted_samples(), 6u);
  EXPECT_EQ(store.num_series(), 1u);
  EXPECT_TRUE(store.query("unknown", INT64_MIN, INT64_MAX).empty());
}

TEST(HistoryStoreTest, RollupsAggregateMinMaxAvgCount) {
  HistoryStore store;
  store.append("s", 0, 2.0);
  store.append("s", 15 * kSecond, 8.0);
  store.append("s", 30 * kSecond, 4.0);
  store.append("s", 60 * kSecond, 10.0);  // second 1-minute bucket

  const auto one = store.query("s", INT64_MIN, INT64_MAX, Resolution::kOneMinute);
  ASSERT_EQ(one.size(), 2u);
  EXPECT_EQ(one[0].t, 0);
  EXPECT_EQ(one[0].min, 2.0);
  EXPECT_EQ(one[0].max, 8.0);
  EXPECT_EQ(one[0].count, 3u);
  EXPECT_DOUBLE_EQ(one[0].avg(), 14.0 / 3.0);
  EXPECT_EQ(one[0].last, 4.0);
  EXPECT_EQ(one[1].t, kMinute);
  EXPECT_EQ(one[1].count, 1u);

  const auto ten = store.query("s", INT64_MIN, INT64_MAX, Resolution::kTenMinute);
  ASSERT_EQ(ten.size(), 1u);
  EXPECT_EQ(ten[0].count, 4u);
  EXPECT_EQ(ten[0].min, 2.0);
  EXPECT_EQ(ten[0].max, 10.0);

  // Range queries are inclusive on both ends.
  EXPECT_EQ(store.query("s", kMinute, kMinute, Resolution::kOneMinute).size(), 1u);
  EXPECT_EQ(store.query("s", 0, 59 * kSecond, Resolution::kOneMinute).size(), 1u);
  EXPECT_EQ(store.query("s", 15 * kSecond, 30 * kSecond, Resolution::kRaw).size(), 2u);
}

TEST(HistoryStoreTest, LateSampleBehindEvictedBucketIsDropped) {
  HistoryStore store(HistoryConfig{}.with_raw_capacity(8).with_rollup_capacity(1));
  store.append("s", 0, 1.0);
  store.append("s", kMinute, 2.0);  // evicts the t=0 one-minute bucket
  store.append("s", 5 * kSecond, 9.0);  // late: its bucket no longer exists
  EXPECT_EQ(store.late_dropped(), 1u);
  const auto one = store.query("s", INT64_MIN, INT64_MAX, Resolution::kOneMinute);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].t, kMinute);
  EXPECT_EQ(one[0].count, 1u);  // the late sample did not resurrect or fold
  // The raw ring still keeps it — raw is completion-ordered, not bucketed.
  EXPECT_EQ(store.query("s", INT64_MIN, INT64_MAX, Resolution::kRaw).size(), 3u);

  // A late sample whose bucket IS retained folds in.
  HistoryStore wide(HistoryConfig{}.with_rollup_capacity(16));
  wide.append("w", 0, 1.0);
  wide.append("w", kMinute, 2.0);
  wide.append("w", 30 * kSecond, 5.0);  // bucket 0 still retained
  EXPECT_EQ(wide.late_dropped(), 0u);
  const auto folded = wide.query("w", 0, 0, Resolution::kOneMinute);
  ASSERT_EQ(folded.size(), 1u);
  EXPECT_EQ(folded[0].count, 2u);
  EXPECT_EQ(folded[0].max, 5.0);
}

TEST(HistoryStoreTest, RecentValuesLatestNamesAndClear) {
  HistoryStore store;
  store.append("b", 0, 1.0);
  store.append("a", kSecond, 2.0);
  store.append("a", 2 * kSecond, 3.0);

  EXPECT_EQ(store.series_names(), (std::vector<std::string>{"a", "b"}));
  const auto recent = store.recent_values("a", 8);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0], 2.0);  // oldest first
  EXPECT_EQ(recent[1], 3.0);
  ASSERT_TRUE(store.latest("a").has_value());
  EXPECT_EQ(store.latest("a")->last, 3.0);
  EXPECT_FALSE(store.latest("zzz").has_value());

  store.clear();
  EXPECT_EQ(store.num_series(), 0u);
  EXPECT_EQ(store.total_samples(), 0u);
  EXPECT_FALSE(store.latest("a").has_value());
}

// --- scrape → broker → history pipeline ----------------------------------

TEST(SelfTelemetryPipelineTest, ScrapeFlowsThroughBrokerIntoHistory) {
  stream::Broker broker;
  MetricsRegistry reg;
  HistoryStore store;
  auto scraper = pipeline::make_scraper(reg, broker, ScraperConfig{});
  auto query = core::make_history_query(broker, store);
  EXPECT_TRUE(broker.has_topic(stream::kMetricsTopic));
  EXPECT_TRUE(broker.has_topic(stream::kAlertsTopic));

  Counter* c = reg.counter("work.done");
  for (int step = 1; step <= 5; ++step) {
    c->inc(static_cast<std::uint64_t>(step));
    scraper->scrape(step * 15 * kSecond);
    query->run_until_caught_up();
  }
  const auto points = store.query("work.done", INT64_MIN, INT64_MAX);
  ASSERT_EQ(points.size(), 5u);
  EXPECT_EQ(points.back().last, 15.0);  // 1+2+3+4+5
  EXPECT_EQ(points.front().last, 1.0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].t, static_cast<TimePoint>((i + 1) * 15 * kSecond));
  }
}

TEST(SelfTelemetryPipelineTest, PoisonRecordsAreCountedAndSkipped) {
  stream::Broker broker;
  HistoryStore store;
  broker.create_topic(stream::kMetricsTopic);
  auto query = core::make_history_query(broker, store);

  Counter* errors = default_registry().counter("selfobs.decode.errors");
  const double before = static_cast<double>(errors->value());
  auto metrics = broker.producer(stream::kMetricsTopic);
  metrics.produce(stream::Record{0, "k", "this is not a metric sample"});
  metrics.produce(encode_metric_sample({"ok", MetricKind::kGauge, 4.0, 0.0, 0}, kSecond));
  query->run_until_caught_up();

  EXPECT_EQ(static_cast<double>(errors->value()) - before, 1.0);
  EXPECT_EQ(store.num_series(), 1u);
  ASSERT_TRUE(store.latest("ok").has_value());
  EXPECT_EQ(store.latest("ok")->last, 4.0);
}

// Exactly-once under an active fault plan: a faulted produce retries the
// whole batch (no duplicates), a faulted pipeline batch rolls back and
// replays (no loss), so the retained history is byte-identical to a
// fault-free run's.
std::string chaotic_history_dump(bool with_faults) {
  stream::Broker broker;
  MetricsRegistry reg;
  HistoryStore store;
  auto scraper = pipeline::make_scraper(reg, broker, ScraperConfig{});
  auto query = core::make_history_query(broker, store);

  chaos::FaultPlan plan(0xda7a);
  if (with_faults) {
    chaos::SiteConfig cfg;
    cfg.transient_p = 0.25;
    plan.configure("selfobs.produce", cfg);
    cfg.transient_p = 0.0;
    cfg.every_nth = 3;
    plan.configure("pipeline.batch", cfg);
    cfg.every_nth = 4;
    plan.configure("stream.fetch", cfg);
  }
  {
    chaos::ScopedFaultPlan scoped(plan);
    Counter* c = reg.counter("work.done");
    Gauge* g = reg.gauge("queue.depth");
    for (int step = 1; step <= 12; ++step) {
      c->inc(static_cast<std::uint64_t>(step));
      g->set(static_cast<double>(step % 4));
      scraper->scrape(step * 15 * kSecond);
      query->run_until_caught_up();
    }
  }
  query->run_until_caught_up();  // fault-free tail drain

  std::string dump;
  for (const auto& series : store.series_names()) {
    for (const Resolution res :
         {Resolution::kRaw, Resolution::kOneMinute, Resolution::kTenMinute}) {
      dump += history_to_text(store, series, INT64_MIN, INT64_MAX, res);
    }
  }
  return dump;
}

TEST(SelfTelemetryPipelineTest, ExactlyOnceUnderChaosFaults) {
  const std::string clean = chaotic_history_dump(false);
  const std::string faulted = chaotic_history_dump(true);
  EXPECT_EQ(clean, faulted);
  EXPECT_NE(clean.find("work.done"), std::string::npos);
  EXPECT_NE(clean.find("queue.depth"), std::string::npos);
  // Reruns with the same seed are byte-identical too.
  EXPECT_EQ(faulted, chaotic_history_dump(true));
}

// --- framework wiring -----------------------------------------------------

TEST(SelfTelemetryFrameworkTest, EndToEndWithGoldPersist) {
  core::OdaFramework fw;
  auto& sys = fw.add_system(telemetry::compass_spec(0.004));
  fw.register_query(fw.make_bronze_to_silver_power(sys.spec().name));
  fw.enable_self_telemetry();
  ASSERT_TRUE(fw.self_telemetry_enabled());
  fw.enable_self_telemetry();  // idempotent

  fw.advance(2 * kMinute);
  fw.flush_self_telemetry();

  const auto& history = *fw.history();
  EXPECT_GT(history.num_series(), 0u);
  EXPECT_GT(history.total_samples(), 0u);
  // The facility's own produce accounting made it around the loop…
  bool found = false;
  for (const auto& name : history.series_names()) {
    if (name.rfind("stream.produced.records", 0) == 0) found = true;
    // …but nothing about the reserved topics themselves (no feedback).
    EXPECT_EQ(name.find("_oda."), std::string::npos) << name;
  }
  EXPECT_TRUE(found);
  EXPECT_GT(fw.scraper()->stats().scrapes, 0u);

  // Gold rollups: raw + 1m land; a 2-minute run spans one 10m bucket too.
  const std::size_t objects = fw.persist_self_telemetry_gold();
  EXPECT_EQ(objects, 3u);
  const auto metas = fw.ocean().list("_oda/gold/metrics");
  ASSERT_EQ(metas.size(), 3u);
  for (const auto& m : metas) {
    EXPECT_EQ(m.data_class, storage::DataClass::kGold);
  }
  // Keys are deterministic: re-persisting overwrites in place.
  EXPECT_EQ(fw.persist_self_telemetry_gold(), 3u);
  EXPECT_EQ(fw.ocean().list("_oda/gold/metrics").size(), 3u);
}

// --- concurrency (the selfobs sanitizer target) ---------------------------

TEST(SelfObsConcurrencyTest, HistoryStoreSurvivesConcurrentAppendsAndReads) {
  HistoryStore store(HistoryConfig{}.with_raw_capacity(64).with_rollup_capacity(16));
  constexpr int kWriters = 4;
  constexpr int kAppends = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      const std::string own = "writer." + std::to_string(w);
      for (int i = 0; i < kAppends; ++i) {
        store.append(own, i * kSecond, static_cast<double>(i));
        store.append("shared", i * kSecond, static_cast<double>(w));
      }
    });
  }
  threads.emplace_back([&store] {
    for (int i = 0; i < 200; ++i) {
      for (const auto& name : store.series_names()) {
        (void)store.query(name, INT64_MIN, INT64_MAX, Resolution::kOneMinute);
        (void)store.latest(name);
      }
      (void)store.recent_values("shared", 32);
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.num_series(), static_cast<std::size_t>(kWriters) + 1);
  EXPECT_EQ(store.total_samples(), static_cast<std::uint64_t>(2 * kWriters * kAppends));
}

// --- renderers ------------------------------------------------------------

TEST(SelfObsRenderTest, SparklineShapesFollowTheData) {
  EXPECT_EQ(sparkline({}, 32), "");
  const std::string ramp = sparkline({0, 1, 2, 3, 4, 5, 6, 7}, 32);
  EXPECT_EQ(ramp, "▁▂▃▄▅▆▇█");
  const std::string flat = sparkline({5, 5, 5}, 32);
  EXPECT_EQ(flat, "▄▄▄");  // flat series render mid-height
  // Only the last `width` values are kept.
  const std::string clipped = sparkline({9, 9, 9, 0, 7}, 2);
  EXPECT_EQ(clipped, "▁█");
}

TEST(SelfObsRenderTest, HistoryTextAndOverviewRender) {
  HistoryStore store;
  store.append("stream.rate", 0, 1.5);
  store.append("stream.rate", 30 * kSecond, 2.5);

  const std::string raw = history_to_text(store, "stream.rate", INT64_MIN, INT64_MAX);
  EXPECT_NE(raw.find("stream.rate (raw, 2 points)"), std::string::npos);
  EXPECT_NE(raw.find("1.5"), std::string::npos);

  const std::string rolled =
      history_to_text(store, "stream.rate", INT64_MIN, INT64_MAX, Resolution::kOneMinute);
  EXPECT_NE(rolled.find("(1m, 1 points)"), std::string::npos);
  EXPECT_NE(rolled.find("min=1.5"), std::string::npos);
  EXPECT_NE(rolled.find("max=2.5"), std::string::npos);
  EXPECT_NE(rolled.find("count=2"), std::string::npos);

  const std::string overview = history_overview(store);
  EXPECT_NE(overview.find("stream.rate"), std::string::npos);
  EXPECT_NE(overview.find("▁"), std::string::npos);
}

}  // namespace
}  // namespace oda::observe
