// Pipeline endpoints. The executor (engine::Query) pulls micro-batches
// from broker topics and decodes them with a RecordDecoder; sinks land
// refined artifacts in LAKE, OCEAN, another topic, or memory.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/faults.hpp"
#include "sql/table.hpp"
#include "storage/object_store.hpp"
#include "storage/tsdb.hpp"
#include "stream/broker.hpp"

namespace oda::pipeline {

/// Decodes a batch of raw broker records into a Table. Decoders read
/// straight from RecordViews (string_views pinned by the pull's
/// FetchView) — no owned Record is materialized between the log and the
/// sql::Table. Code holding owned records adapts with stream::as_views().
using RecordDecoder = std::function<sql::Table(std::span<const stream::RecordView>)>;

/// Sinks participate in the micro-batch transaction protocol:
///
///   begin_batch(); write()...; commit_batch()   — or rollback_batch().
///
/// All fallible I/O (including internal retries) happens in write();
/// commit_batch() and rollback_batch() MUST be infallible — they only
/// adjust in-memory bookkeeping, which is what lets engine::Query
/// guarantee exactly-once output across fault-driven batch replays.
/// Sinks used without brackets (direct write calls) behave as before:
/// every write lands immediately.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(const sql::Table& t) = 0;
  /// Drain any buffered output (end of stream). Default: nothing buffered.
  virtual void flush() {}
  /// Open a micro-batch transaction. Default: no transactional state.
  virtual void begin_batch() {}
  /// Make the batch's writes durable/visible. Must not throw.
  virtual void commit_batch() {}
  /// Discard the batch's writes (the batch will be replayed or skipped).
  /// Must not throw.
  virtual void rollback_batch() {}
};

/// Collects output in memory (tests, Gold hand-off to apps/ML).
class TableSink final : public Sink {
 public:
  explicit TableSink(sql::Schema schema) : table_(std::move(schema)) {}
  TableSink() = default;

  void write(const sql::Table& t) override {
    if (t.num_rows() == 0) return;
    if (table_.num_columns() == 0) table_ = sql::Table(t.schema());
    table_.append_table(t);
  }
  void begin_batch() override {
    snap_rows_ = table_.num_rows();
    in_batch_ = true;
  }
  void commit_batch() override { in_batch_ = false; }
  void rollback_batch() override {
    if (in_batch_) table_.truncate(snap_rows_);
    in_batch_ = false;
  }
  const sql::Table& table() const { return table_; }

 private:
  sql::Table table_;
  std::size_t snap_rows_ = 0;
  bool in_batch_ = false;
};

/// Writes each row into the LAKE as time series. Tag columns become
/// series tags; `value_column` is the measurement; `metric` names it.
class LakeSink final : public Sink {
 public:
  LakeSink(storage::TimeSeriesDb& lake, std::string metric, std::string time_column,
           std::string value_column, std::vector<std::string> tag_columns)
      : lake_(lake),
        metric_(std::move(metric)),
        time_column_(std::move(time_column)),
        value_column_(std::move(value_column)),
        tag_columns_(std::move(tag_columns)) {}

  void write(const sql::Table& t) override;
  /// Bracketed writes stage their rows and land atomically at commit;
  /// bracketless writes (direct use) land immediately as before.
  void begin_batch() override {
    staged_.clear();
    in_batch_ = true;
  }
  void commit_batch() override {
    for (const auto& t : staged_) append_rows(t);
    staged_.clear();
    in_batch_ = false;
  }
  void rollback_batch() override {
    staged_.clear();
    in_batch_ = false;
  }

 private:
  void append_rows(const sql::Table& t);

  storage::TimeSeriesDb& lake_;
  std::string metric_;
  std::string time_column_;
  std::string value_column_;
  std::vector<std::string> tag_columns_;
  std::vector<sql::Table> staged_;
  bool in_batch_ = false;
};

/// Buffers rows and flushes columnar objects of ~`rows_per_object` into
/// OCEAN under `dataset/partNNNN`. Part keys are deterministic, so a
/// replayed batch that re-flushes a chunk overwrites the same object with
/// identical bytes (put is idempotent by key) — exactly-once at the
/// object level. Puts retry under the sink retry policy at the
/// "pipeline.sink" seam.
class OceanSink final : public Sink {
 public:
  OceanSink(storage::ObjectStore& ocean, std::string dataset, storage::DataClass data_class,
            std::size_t rows_per_object = 100000, chaos::RetryPolicy retry = {});

  void write(const sql::Table& t) override;
  /// Flush any buffered remainder as a final (smaller) object.
  void flush() override;
  /// The batch snapshot is (rows, head, part): rows already put as
  /// objects stay in the buffer behind `head_` until commit, so rollback
  /// is a truncate (O(batch)) and the replay re-produces the same chunks
  /// under the same part keys.
  void begin_batch() override {
    snap_rows_ = buffer_.num_rows();
    snap_head_ = head_;
    snap_part_ = part_;
    in_batch_ = true;
  }
  void commit_batch() override {
    compact();
    in_batch_ = false;
  }
  void rollback_batch() override {
    if (in_batch_) {
      buffer_.truncate(snap_rows_);
      head_ = snap_head_;
      part_ = snap_part_;
    }
    in_batch_ = false;
  }
  std::size_t objects_written() const { return part_; }
  /// Rows held in memory (after a commit: only those not yet put).
  std::size_t buffered_rows() const { return buffer_.num_rows(); }
  /// Facility time used for object metadata (advance as the pipeline runs).
  void set_now(common::TimePoint now) { now_ = now; }
  const chaos::RetryStats& retry_stats() const { return retrier_.stats(); }

 private:
  /// Put rows [head_, head_ + n) as the next part.
  void put_next(std::size_t n);
  /// Drop the rows before head_ (outside a batch only).
  void compact();

  storage::ObjectStore& ocean_;
  std::string dataset_;
  storage::DataClass class_;
  std::size_t rows_per_object_;
  chaos::Retrier retrier_;
  sql::Table buffer_;
  std::size_t head_ = 0;  ///< rows before head_ are already in OCEAN
  std::size_t part_ = 0;
  common::TimePoint now_ = 0;
  std::size_t snap_rows_ = 0;
  std::size_t snap_head_ = 0;
  std::size_t snap_part_ = 0;
  bool in_batch_ = false;
};

/// Re-publishes micro-batches to another topic as columnar-serialized
/// payloads (Silver stream feeding multiple downstream consumers).
///
/// A produced record cannot be unpublished, so the batch protocol dedupes
/// instead of undoing: each write inside a batch is numbered, and the
/// high-water mark of already-published writes survives rollback. When
/// engine::Query replays the batch (deterministically — same input rows,
/// same operator state), writes below the mark are skipped rather than
/// re-published. Publishing itself retries at the "pipeline.sink" seam.
/// If the batch is ultimately dead-lettered after a partial publish, the
/// published prefix stays — at-least-once is the documented floor for a
/// non-transactional broker; the chaos tier drains to success instead.
class TopicSink final : public Sink {
 public:
  TopicSink(stream::Broker& broker, std::string topic, chaos::RetryPolicy retry = {})
      : topic_(std::move(topic)),
        producer_(broker.create_topic(topic_)),
        retrier_(retry, /*seed=*/0x70b1c5ull) {}
  void write(const sql::Table& t) override;
  void begin_batch() override { writes_this_batch_ = 0; }
  void commit_batch() override {
    produced_high_water_ = 0;
    writes_this_batch_ = 0;
  }
  void rollback_batch() override {
    // Keep produced_high_water_: those records are already in the topic
    // and the replay must not double-publish them.
    writes_this_batch_ = 0;
  }
  const chaos::RetryStats& retry_stats() const { return retrier_.stats(); }

 private:
  std::string topic_;
  stream::Producer producer_;  ///< cached handle; skips name lookup per write
  chaos::Retrier retrier_;
  std::size_t writes_this_batch_ = 0;
  std::size_t produced_high_water_ = 0;
};

/// Decoder for TopicSink-produced topics (columnar payload per record).
sql::Table decode_columnar_records(std::span<const stream::RecordView> records);

}  // namespace oda::pipeline
