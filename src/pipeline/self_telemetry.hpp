// The self-telemetry loop's back half (DESIGN.md §9): factories that bind
// the observe-layer Scraper to real broker producers on the reserved
// `_oda.*` topics, plus the decoder and sink of the query that folds
// `_oda.metrics` back into an observe::HistoryStore through the same
// micro-batch transaction machinery facility data uses — so the
// framework's own telemetry exercises broker, pipeline and storage end to
// end and inherits their exactly-once / golden-run guarantees. The query
// itself is core::make_history_query (core/framework.hpp): it runs on
// engine::Query, which links this library.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "common/faults.hpp"
#include "observe/history.hpp"
#include "observe/scraper.hpp"
#include "pipeline/source_sink.hpp"
#include "storage/object_store.hpp"
#include "stream/broker.hpp"

namespace oda::pipeline {

/// Schema of decoded `_oda.metrics` batches: time:int64, series:string,
/// kind:string, value:float64, delta:float64, count:int64.
sql::Schema metric_sample_schema();

/// RecordDecoder for `_oda.metrics`. Malformed payloads are skipped and
/// counted on the default registry ("selfobs.decode.errors") — poison
/// telemetry must never wedge the loop that reports on poison.
sql::Table metric_records_to_table(std::span<const stream::RecordView> records);

/// Transactional sink appending (time, series, value) rows into a
/// HistoryStore. Bracketed writes stage and land at commit_batch() so a
/// rolled-back batch leaves no points behind (replays stay exactly-once);
/// bracketless writes land immediately, as for the other sinks.
class HistorySink final : public Sink {
 public:
  explicit HistorySink(observe::HistoryStore& store) : store_(store) {}

  void write(const sql::Table& t) override;
  void begin_batch() override {
    staged_.clear();
    in_batch_ = true;
  }
  void commit_batch() override {
    for (const auto& row : staged_) store_.append(row.series, row.t, row.value);
    staged_.clear();
    in_batch_ = false;
  }
  void rollback_batch() override {
    staged_.clear();
    in_batch_ = false;
  }

 private:
  struct Row {
    std::string series;
    common::TimePoint t;
    double value;
  };
  void append_rows(const sql::Table& t, std::vector<Row>* out) const;

  observe::HistoryStore& store_;
  std::vector<Row> staged_;
  bool in_batch_ = false;
};

/// Build a Scraper producing onto `_oda.metrics` / `_oda.alerts` (topics
/// created here if absent, `_oda.metrics` with config.metrics_partitions).
/// Produces retry under `retry` at the "selfobs.produce" chaos seam —
/// each attempt re-offers the whole batch, and Topic::produce_batch
/// rejects faulted batches whole, so retries never duplicate records.
std::unique_ptr<observe::Scraper> make_scraper(observe::MetricsRegistry& registry,
                                               stream::Broker& broker,
                                               observe::ScraperConfig config = {},
                                               chaos::RetryPolicy retry = {});

/// Persist gold rollups: one columnar object per resolution under
/// `dataset`/<resolution>, DataClass::kGold, covering every retained
/// series. Returns objects written. Object keys are deterministic, so
/// repeated persists overwrite in place (put is idempotent by key).
std::size_t persist_history_gold(const observe::HistoryStore& store, storage::ObjectStore& ocean,
                                 const std::string& dataset, common::TimePoint now);

}  // namespace oda::pipeline
