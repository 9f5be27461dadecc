#include "engine/engine.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/stats.hpp"

namespace oda::engine {

using common::Stopwatch;

void EngineConfig::validate() const {
  if (max_batches_per_round == 0) {
    throw std::invalid_argument("EngineConfig: max_batches_per_round must be >= 1");
  }
  // Oversubscription is only an error when the caller DECLARED the scale:
  // an explicit worker count above an explicit partition count means every
  // extra worker owns nothing. workers == 0 (auto) still clamps per query.
  if (ownership.partitions != 0 && workers > ownership.partitions) {
    throw std::invalid_argument(
        "EngineConfig: " + std::to_string(workers) + " workers oversubscribe " +
        std::to_string(ownership.partitions) + " partitions (workers must be <= partitions)");
  }
}

// ---------------------------------------------------------------------------
// Query: construction and stage registration
// ---------------------------------------------------------------------------

Query::Query(pipeline::QueryConfig config, const SourceSpec& spec, std::size_t workers,
             observe::FlightRecorder* flight)
    : config_(std::move(config)),
      broker_(spec.broker),
      topic_(spec.topic),
      decoder_(spec.decoder),
      retrier_(spec.retry, /*seed=*/0xe2619eull),
      flight_(flight) {
  config_.validate();
  if (!broker_) throw std::invalid_argument("SourceSpec: broker must be set");
  if (!decoder_) throw std::invalid_argument("SourceSpec: decoder must be set");
  const std::size_t num_partitions = broker_->topic(topic_).num_partitions();
  lanes_.resize(num_partitions);
  // Per-partition fetch budget: a function of batch size and partition
  // count ONLY — never of worker count. This is one leg of the
  // byte-identity invariant.
  budget_ = std::max<std::size_t>(1, config_.max_records_per_batch / num_partitions);

  auto& reg = observe::default_registry();
  const observe::Labels labels{{"query", config_.name}};
  obs_batches_ = reg.counter("pipeline.batches", labels);
  obs_failures_ = reg.counter("pipeline.batch.failures", labels);
  obs_skipped_ = reg.counter("pipeline.batches.skipped", labels);
  obs_rows_ = reg.counter("pipeline.rows.ingested", labels);
  obs_batch_seconds_ = reg.histogram("pipeline.batch.seconds", labels);
  obs_watermark_ = reg.gauge("pipeline.watermark", labels);
  obs_worker_rows_ = reg.sharded_counter("engine.worker.rows", labels);
  obs_e2e_ = reg.histogram("stream.e2e_latency", labels);
  using observe::FlightPhase;
  obs_phase_pct_[static_cast<std::size_t>(FlightPhase::kFetch)] =
      reg.gauge("engine.phase.fetch_pct", labels);
  obs_phase_pct_[static_cast<std::size_t>(FlightPhase::kDecode)] =
      reg.gauge("engine.phase.decode_pct", labels);
  obs_phase_pct_[static_cast<std::size_t>(FlightPhase::kOperate)] =
      reg.gauge("engine.phase.operate_pct", labels);
  obs_phase_pct_[static_cast<std::size_t>(FlightPhase::kBarrier)] =
      reg.gauge("engine.phase.barrier_pct", labels);
  obs_phase_pct_[static_cast<std::size_t>(FlightPhase::kMerge)] =
      reg.gauge("engine.phase.merge_pct", labels);
  obs_phase_pct_[static_cast<std::size_t>(FlightPhase::kCommit)] =
      reg.gauge("engine.phase.commit_pct", labels);
  if (flight_ != nullptr) {
    label_query_ = flight_->intern(config_.name);
    label_generation_ = flight_->intern("generation");
    label_dead_letter_ = flight_->intern("dead-letter");
  }
  batch_span_name_ = "query." + config_.name + ".batch";

  const std::size_t team = std::clamp<std::size_t>(workers, 1, num_partitions);
  workers_.reserve(team);
  for (std::size_t i = 0; i < team; ++i) {
    auto wk = std::make_unique<Worker>();
    wk->member = std::make_unique<stream::GroupMember>(*broker_, spec.group, topic_);
    const observe::Labels wl{{"query", config_.name}, {"worker", std::to_string(i)}};
    wk->obs_owned = reg.gauge("engine.worker.owned_partitions", wl);
    wk->obs_handoff = reg.gauge("engine.worker.handoff", wl);
    workers_.push_back(std::move(wk));
  }
  // Worker 0 shares the driver thread (one worker's lanes cost no
  // handoff, and a team of 1 never touches the barrier machinery).
  live_threads_ = team - 1;
  for (std::size_t i = 1; i < team; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

Query::~Query() {
  {
    std::lock_guard lk(phase_mu_);
    phase_ = Phase::kExit;
    ++phase_seq_;
    phase_cv_.notify_all();
  }
  for (auto& wk : workers_) {
    if (wk->thread.joinable()) wk->thread.join();
  }
}

Query& Query::add_operator(const OperatorFactory& factory) {
  for (Lane& lane : lanes_) {
    lane.ops.push_back(factory());
    lane.stage_wall.push_back(0.0);
    lane.stage_rows_in.push_back(0);
    lane.stage_rows_out.push_back(0);
  }
  pipeline::StageMetrics sm;
  sm.name = lanes_.front().ops.back()->name();
  sm.output_class = lanes_.front().ops.back()->output_class();
  metrics_.stages.push_back(std::move(sm));
  return *this;
}

Query& Query::add_transform(std::string name, storage::DataClass out_class,
                            std::function<sql::Table(const sql::Table&)> fn) {
  return add_operator([name = std::move(name), out_class, fn = std::move(fn)] {
    return std::make_unique<pipeline::TransformOp>(name, out_class, fn);
  });
}

Query& Query::add_sink(std::unique_ptr<pipeline::Sink> sink) {
  sinks_.push_back(sink.get());
  owned_sinks_.push_back(std::move(sink));
  return *this;
}

Query& Query::add_sink_ref(pipeline::Sink& sink) {
  sinks_.push_back(&sink);
  return *this;
}

// ---------------------------------------------------------------------------
// Query: generation barriers
// ---------------------------------------------------------------------------

void Query::worker_loop(std::size_t w) {
  using observe::FlightEventType;
  using observe::FlightPhase;
  Worker& wk = *workers_[w];
  std::uint64_t seen = 0;
  for (;;) {
    Phase p;
    // The wait below is the worker's stall: barrier skew while teammates
    // finish a phase, plus idle time between generations. The flight
    // recorder brackets it as a kBarrier phase so the timeline shows
    // where a generation's wall time actually went.
    flight_emit(flight_ring(w), FlightEventType::kPhaseBegin, FlightPhase::kBarrier);
    Stopwatch idle_sw;
    {
      std::unique_lock lk(phase_mu_);
      phase_cv_.wait(lk, [&] { return phase_seq_ != seen || wk.die.load(std::memory_order_relaxed); });
      if (wk.die.load(std::memory_order_relaxed)) return;
      seen = phase_seq_;
      p = phase_;
    }
    const double waited = idle_sw.elapsed_seconds();
    flight_emit(flight_ring(w), FlightEventType::kPhaseEnd, FlightPhase::kBarrier);
    if (p == Phase::kExit) return;
    wk.phase_wall[static_cast<std::size_t>(FlightPhase::kBarrier)] += waited;
    run_phase_on(w, p);
    {
      std::lock_guard lk(phase_mu_);
      if (--remaining_ == 0) done_cv_.notify_one();
    }
  }
}

void Query::run_phase(Phase p) {
  using observe::FlightEventType;
  using observe::FlightPhase;
  {
    std::lock_guard lk(phase_mu_);
    phase_ = p;
    ++phase_seq_;
    remaining_ = live_threads_;
    phase_cv_.notify_all();
  }
  run_phase_on(0, p);
  // Driver-side barrier: wait for the straggling workers to drain. With
  // a team of one (live_threads_ == 0) the predicate is already true and
  // the bracket collapses to ~0.
  flight_emit(0, FlightEventType::kPhaseBegin, FlightPhase::kBarrier);
  Stopwatch wait_sw;
  {
    std::unique_lock lk(phase_mu_);
    done_cv_.wait(lk, [&] { return remaining_ == 0; });
  }
  driver_wall_[static_cast<std::size_t>(FlightPhase::kBarrier)] += wait_sw.elapsed_seconds();
  flight_emit(0, FlightEventType::kPhaseEnd, FlightPhase::kBarrier);
}

namespace {

observe::FlightPhase to_flight_phase(std::uint8_t p) {
  switch (p) {
    case 1: return observe::FlightPhase::kFetch;    // Phase::kFetch
    case 2: return observe::FlightPhase::kDecode;   // Phase::kDecode
    case 3: return observe::FlightPhase::kOperate;  // Phase::kOperate
    default: return observe::FlightPhase::kNone;
  }
}

}  // namespace

void Query::run_phase_on(std::size_t w, Phase p) {
  using observe::FlightEventType;
  Worker& wk = *workers_[w];
  if (!wk.alive) return;
  const observe::FlightPhase fp = to_flight_phase(static_cast<std::uint8_t>(p));
  wk.last_phase_rows = 0;
  flight_emit(flight_ring(w), FlightEventType::kPhaseBegin, fp);
  Stopwatch sw;
  try {
    switch (p) {
      case Phase::kFetch: fetch_lanes(w); break;
      case Phase::kDecode: decode_lanes(w); break;
      case Phase::kOperate: operate_lanes(w); break;
      default: break;
    }
  } catch (const std::exception& e) {
    // Held, not thrown: the barrier must drain (every worker quiescent)
    // before the driver's retry path reseeks the members. The fault
    // instant still lands on this worker's timeline (interning is a
    // mutex, but faults are the cold path by definition).
    if (flight_ != nullptr) {
      flight_->emit(flight_ring(w), FlightEventType::kFault, fp, 0, flight_->intern(e.what()));
    }
    wk.error = std::current_exception();
  } catch (...) {
    flight_emit(flight_ring(w), FlightEventType::kFault, fp);
    wk.error = std::current_exception();
  }
  wk.phase_wall[static_cast<std::size_t>(fp)] += sw.elapsed_seconds();
  flight_emit(flight_ring(w), FlightEventType::kPhaseEnd, fp, wk.last_phase_rows);
}

void Query::check_worker_errors() {
  std::exception_ptr first;
  for (auto& wk : workers_) {
    if (wk->error && !first) first = wk->error;
    wk->error = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

// ---------------------------------------------------------------------------
// Query: worker-side phases (owned lanes only — no shared state, no locks)
// ---------------------------------------------------------------------------

void Query::fetch_lanes(std::size_t w) {
  Worker& wk = *workers_[w];
  // Worker 0 runs on the driver thread, so its span parents naturally
  // under the open batch span; thread workers carry the batch context
  // over explicitly.
  std::optional<observe::Span> span;
  if (w == 0) {
    span.emplace("engine.fetch");
  } else {
    span.emplace("engine.fetch", batch_ctx_);
  }
  auto batches = wk.member->poll_by_partition(budget_);
  std::size_t rows = 0;
  for (auto& pb : batches) {
    Lane& lane = lanes_[pb.partition];
    lane.pulled = pb.records.size();
    rows += lane.pulled;
    lane.views = std::move(pb.records);
  }
  wk.handoffs.fetch_add(batches.size(), std::memory_order_relaxed);
  wk.rows_fetched.fetch_add(rows, std::memory_order_relaxed);
  wk.last_phase_rows = rows;
  obs_worker_rows_->inc(w, rows);
  const std::size_t owned = wk.member->assigned_partitions().size();
  // Ownership change observed through the broker's generation cell: the
  // flight timeline marks the rebalance on the worker that absorbed (or
  // lost) partitions.
  if (wk.last_owned != SIZE_MAX && wk.last_owned != owned) {
    flight_emit(flight_ring(w), observe::FlightEventType::kRebalance, observe::FlightPhase::kFetch,
                owned);
  }
  wk.last_owned = owned;
  wk.obs_owned->set(static_cast<double>(owned));
  wk.obs_handoff->set(static_cast<double>(batches.size()));
}

void Query::decode_lanes(std::size_t w) {
  Worker& wk = *workers_[w];
  for (std::size_t p : wk.member->assigned_partitions()) {
    Lane& lane = lanes_[p];
    if (lane.pulled == 0) continue;
    lane.table = decoder_(lane.views.records());
    lane.views.clear();
    wk.last_phase_rows += lane.table.num_rows();
    // Lane-local event-time extrema; the driver max-reduces the maxima
    // into the query watermark before any lane operates (so windowing
    // sees the same watermark a single-threaded run would), and
    // min-reduces the minima into the oldest-record end-to-end latency
    // observed at commit.
    const std::size_t tc = lane.table.schema().index_of(config_.time_column);
    if (tc != sql::Schema::npos) {
      const auto& col = lane.table.column(tc);
      for (std::size_t r = 0; r < lane.table.num_rows(); ++r) {
        if (col.is_null(r)) continue;
        const common::TimePoint t = col.int_at(r);
        lane.max_ts = std::max(lane.max_ts, t);
        lane.min_ts = std::min(lane.min_ts, t);
      }
    }
  }
}

void Query::operate_lanes(std::size_t w) {
  Worker& wk = *workers_[w];
  for (std::size_t p : wk.member->assigned_partitions()) {
    Lane& lane = lanes_[p];
    // begin_batch is in-memory bookkeeping and cannot meaningfully throw;
    // setting began right after keeps commit/rollback strictly paired.
    for (auto& op : lane.ops) op->begin_batch();
    lane.began = true;
    if (lane.pulled == 0) continue;  // idle lane: state untouched this batch
    pipeline::Batch b{std::move(lane.table), op_watermark_};
    for (std::size_t i = 0; i < lane.ops.size(); ++i) {
      // One span per operator, a child of the batch span: worker 0 runs
      // on the driver thread under the open batch span, thread workers
      // carry the batch context over (as in fetch_lanes).
      std::optional<observe::Span> span;
      if (w == 0) {
        span.emplace(lane.ops[i]->name());
      } else {
        span.emplace(lane.ops[i]->name(), batch_ctx_);
      }
      Stopwatch sw;
      const std::uint64_t in_rows = b.table.num_rows();
      b = lane.ops[i]->process(std::move(b));
      lane.stage_wall[i] += sw.elapsed_seconds();
      lane.stage_rows_in[i] += in_rows;
      lane.stage_rows_out[i] += b.table.num_rows();
    }
    lane.table = std::move(b.table);
    wk.last_phase_rows += lane.table.num_rows();
  }
}

// ---------------------------------------------------------------------------
// Query: driver-side transaction pieces
// ---------------------------------------------------------------------------

std::size_t Query::fetch_generation() {
  for (Lane& lane : lanes_) {
    lane.views.clear();
    lane.table = sql::Table{};
    lane.pulled = 0;
    lane.max_ts = INT64_MIN;
    lane.min_ts = INT64_MAX;
    std::fill(lane.stage_wall.begin(), lane.stage_wall.end(), 0.0);
    std::fill(lane.stage_rows_in.begin(), lane.stage_rows_in.end(), 0);
    std::fill(lane.stage_rows_out.begin(), lane.stage_rows_out.end(), 0);
  }
  run_phase(Phase::kFetch);
  check_worker_errors();
  std::size_t total = 0;
  for (const Lane& lane : lanes_) total += lane.pulled;
  return total;
}

void Query::seek_all_members() {
  for (auto& wk : workers_) {
    if (wk->alive) wk->member->seek_to_committed();
  }
}

void Query::commit_all_members() {
  for (auto& wk : workers_) {
    if (wk->alive) wk->member->commit();
  }
}

void Query::commit_all_lanes() {
  for (Lane& lane : lanes_) {
    if (!lane.began) continue;
    for (auto& op : lane.ops) op->commit_batch();
    lane.began = false;
  }
}

void Query::rollback_all_lanes() {
  for (Lane& lane : lanes_) {
    if (!lane.began) continue;
    for (auto& op : lane.ops) op->rollback_batch();
    lane.began = false;
  }
}

sql::Table Query::merge_lanes() {
  // The deterministic merge point: ascending partition index, offsets
  // already ascending within each lane. Which worker ran a lane is
  // invisible here.
  std::size_t total = 0;
  for (const Lane& lane : lanes_) total += lane.table.num_rows();
  sql::Table out;
  for (Lane& lane : lanes_) {
    if (lane.table.num_rows() == 0) {
      lane.table = sql::Table{};
      continue;
    }
    if (out.num_columns() == 0) {
      out = std::move(lane.table);
      out.reserve(total);  // one growth for all lanes
    } else {
      out.append_table(lane.table);
    }
    lane.table = sql::Table{};
  }
  return out;
}

std::size_t Query::run_once() {
  using observe::FlightEventType;
  using observe::FlightPhase;
  Stopwatch batch_sw;
  observe::Span batch_span(batch_span_name_);
  for (pipeline::Sink* s : sinks_) s->begin_batch();

  std::size_t pulled = 0;
  bool pull_ok = false;
  bool ops_began = false;
  watermark_snapshot_ = watermark_;
  flight_emit(0, FlightEventType::kMark, FlightPhase::kNone, metrics_.batches, label_generation_);
  try {
    batch_ctx_ = observe::current_context();
    // Fetch phase, retried whole under the "engine.pull" seam: a faulted
    // fetch may have advanced some members partway, so every retry first
    // restores all members to the group's committed offsets.
    std::uint64_t pull_attempt = 0;
    pulled = retrier_.run(
        "engine.pull", [&] { return fetch_generation(); },
        [&] {
          flight_emit(0, FlightEventType::kRetry, FlightPhase::kFetch, ++pull_attempt,
                      label_query_);
          seek_all_members();
        });
    pull_ok = true;
    if (pulled == 0) {
      for (pipeline::Sink* s : sinks_) s->commit_batch();
      return 0;
    }
    // Re-home the batch span under the producer span stamped on the first
    // record of the lowest non-empty partition (merge order, so the link
    // target is worker-count invariant too).
    for (const Lane& lane : lanes_) {
      if (!lane.views.empty()) {
        batch_span.link(
            observe::TraceContext{lane.views.front().trace_id, lane.views.front().span_id});
        break;
      }
    }

    // Thread workers parent their operator spans under the batch span
    // as re-homed above.
    batch_ctx_ = batch_span.context();

    chaos::fault_point("pipeline.batch");

    run_phase(Phase::kDecode);
    check_worker_errors();
    // Rows are accounted in decoded-table terms (chunked topics pack many
    // rows per record), not in broker records.
    pulled = 0;
    for (const Lane& lane : lanes_) pulled += lane.table.num_rows();
    // Global watermark reduction: max over lane maxima. Every lane then
    // operates against the same watermark a workers=1 run would compute.
    common::TimePoint mx = INT64_MIN;
    for (const Lane& lane : lanes_) mx = std::max(mx, lane.max_ts);
    if (mx != INT64_MIN) watermark_ = std::max(watermark_, mx - config_.allowed_lateness);
    op_watermark_ = watermark_;

    ops_began = true;
    run_phase(Phase::kOperate);
    check_worker_errors();

    // Merge the lanes' stage accounting (one RunningStats sample per
    // generation, summed across lanes, so the numbers read as one chain).
    flight_emit(0, FlightEventType::kPhaseBegin, FlightPhase::kMerge);
    Stopwatch merge_sw;
    for (std::size_t i = 0; i < metrics_.stages.size(); ++i) {
      double wall = 0.0;
      std::uint64_t in_rows = 0;
      std::uint64_t out_rows = 0;
      for (const Lane& lane : lanes_) {
        wall += lane.stage_wall[i];
        in_rows += lane.stage_rows_in[i];
        out_rows += lane.stage_rows_out[i];
      }
      pipeline::StageMetrics& sm = metrics_.stages[i];
      sm.wall_seconds.add(wall);
      sm.rows_in += in_rows;
      sm.rows_out += out_rows;
    }

    // The oldest event timestamp across lanes: the end-to-end latency
    // sample this generation contributes at commit. Virtual time only —
    // deterministic and worker-count invariant (min over lanes is a
    // global reduction, like the watermark).
    common::TimePoint batch_min_ts = INT64_MAX;
    for (const Lane& lane : lanes_) batch_min_ts = std::min(batch_min_ts, lane.min_ts);

    sql::Table out = merge_lanes();
    const std::uint64_t out_rows = out.num_rows();
    if (out.num_rows() > 0) {
      for (pipeline::Sink* s : sinks_) {
        observe::Span sink_span("sink.write");
        s->write(out);
      }
    }
    driver_wall_[static_cast<std::size_t>(FlightPhase::kMerge)] += merge_sw.elapsed_seconds();
    flight_emit(0, FlightEventType::kPhaseEnd, FlightPhase::kMerge, out_rows);

    // Commit order: sinks first (infallible in-memory bookkeeping), then
    // lane operator state, then the members' offsets. Nothing after the
    // sink writes can throw, so a generation fully lands or fully rolls
    // back.
    flight_emit(0, FlightEventType::kPhaseBegin, FlightPhase::kCommit);
    Stopwatch commit_sw;
    for (pipeline::Sink* s : sinks_) s->commit_batch();
    commit_all_lanes();
    commit_all_members();
    driver_wall_[static_cast<std::size_t>(FlightPhase::kCommit)] += commit_sw.elapsed_seconds();
    flight_emit(0, FlightEventType::kPhaseEnd, FlightPhase::kCommit, pulled);
    metrics_.rows_ingested += pulled;
    ++metrics_.batches;
    consecutive_failures_ = 0;
    metrics_.batch_wall_seconds.add(batch_sw.elapsed_seconds());
    obs_batches_->inc();
    obs_rows_->inc(pulled);
    obs_batch_seconds_->add(batch_sw.elapsed_seconds());
    obs_watermark_->set(static_cast<double>(watermark_));
    if (batch_min_ts != INT64_MAX) {
      // Records are stamped with facility time at (staged-)produce; the
      // gap to the commit instant is the oldest record's e2e latency.
      obs_e2e_->add(std::max(0.0, static_cast<double>(observe::virtual_now() - batch_min_ts) /
                                      static_cast<double>(common::kSecond)));
    }
    publish_phase_gauges();
    return pulled;
  } catch (const std::exception& e) {
    ++metrics_.failures;
    metrics_.last_error = e.what();
    obs_failures_->inc();
    // The fault instant lands on the driver ring, and the black box is
    // flagged for export: a chaos-injected generation failure is exactly
    // the "seconds before the crash" a flight recorder exists for.
    if (flight_ != nullptr) {
      flight_->emit(0, FlightEventType::kFault, FlightPhase::kNone, consecutive_failures_,
                    flight_->intern(e.what()));
      flight_->request_dump(std::string("query.error:") + config_.name);
    }
    if (ops_began) rollback_all_lanes();
    watermark_ = watermark_snapshot_;
    for (pipeline::Sink* s : sinks_) s->rollback_batch();
    if (!pull_ok) {
      // The fetch itself gave up (outage outlasting the retry budget).
      // Members may have phantom-advanced; restore them and report "no
      // progress" — the batch was never observed, nothing to dead-letter.
      seek_all_members();
      return 0;
    }
    if (config_.max_retries > 0 && ++consecutive_failures_ >= config_.max_retries) {
      // Dead-letter the poison generation: commit past it so the pipeline
      // makes progress (at-most-once for this batch only). Members'
      // positions still sit past the poison records — committing them is
      // exactly the skip.
      for (pipeline::Sink* s : sinks_) s->commit_batch();
      commit_all_members();
      ++metrics_.batches_skipped;
      obs_skipped_->inc();
      consecutive_failures_ = 0;
      flight_emit(0, FlightEventType::kMark, FlightPhase::kNone, metrics_.batches_skipped,
                  label_dead_letter_);
    } else {
      seek_all_members();  // replay on the next run_once()
    }
    return pulled;
  }
}

std::uint64_t Query::run_until_caught_up(std::size_t max_batches) {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < max_batches; ++b) {
    const std::size_t n = run_once();
    if (n == 0 && lag() == 0) break;
    total += n;
  }
  return total;
}

void Query::finalize() {
  // Drain stateful lane operators in ascending partition order: flush op
  // i, push the result through the remaining stages, then op i+1 — twice,
  // because downstream stateful ops may still hold the pushed rows. The
  // output is a pure function of lane state (worker count invisible).
  for (int pass = 0; pass < 2; ++pass) {
    for (Lane& lane : lanes_) {
      for (std::size_t i = 0; i < lane.ops.size(); ++i) {
        pipeline::Batch b = lane.ops[i]->flush();
        if (b.table.num_rows() == 0) continue;
        for (std::size_t j = i + 1; j < lane.ops.size(); ++j) {
          b = lane.ops[j]->process(std::move(b));
        }
        for (pipeline::Sink* s : sinks_) s->write(b.table);
      }
    }
  }
  for (pipeline::Sink* s : sinks_) s->flush();
}

void Query::checkpoint_to(storage::ObjectStore& store, const std::string& key,
                          common::TimePoint now) const {
  common::ByteWriter w;
  w.str(config_.name);
  w.i64(watermark_);
  w.varint(lanes_.size());
  for (const Lane& lane : lanes_) {
    w.varint(lane.ops.size());
    for (const auto& op : lane.ops) {
      const auto state = op->checkpoint_state();
      w.varint(state.size());
      w.raw(state.data(), state.size());
    }
  }
  store.put(key, w.take(), "checkpoints", storage::DataClass::kBronze, now);
}

bool Query::restore_from(const storage::ObjectStore& store, const std::string& key) {
  const auto blob = store.get(key);
  if (!blob) return false;
  // Parse and validate the whole blob before touching any state, so a
  // mismatched or truncated checkpoint leaves the query as it was.
  common::ByteReader r(*blob);
  const std::string name = r.str();
  if (name != config_.name) {
    throw std::runtime_error("Query: checkpoint '" + key + "' belongs to query '" + name +
                             "', not '" + config_.name + "'");
  }
  const common::TimePoint watermark = r.i64();
  if (r.varint() != lanes_.size()) {
    throw std::runtime_error("Query: checkpoint '" + key + "' lane count differs from the " +
                             std::to_string(lanes_.size()) + " partitions of '" + topic_ + "'");
  }
  std::vector<std::vector<std::span<const std::uint8_t>>> states(lanes_.size());
  for (std::size_t p = 0; p < lanes_.size(); ++p) {
    if (r.varint() != lanes_[p].ops.size()) {
      throw std::runtime_error("Query: checkpoint '" + key + "' operator count mismatch");
    }
    for (std::size_t i = 0; i < lanes_[p].ops.size(); ++i) states[p].push_back(r.raw(r.varint()));
  }
  for (std::size_t p = 0; p < lanes_.size(); ++p) {
    for (std::size_t i = 0; i < lanes_[p].ops.size(); ++i) {
      lanes_[p].ops[i]->restore_state(states[p][i]);
    }
  }
  watermark_ = watermark;
  seek_all_members();  // resume from the group's committed offsets
  return true;
}

std::int64_t Query::lag() const {
  std::int64_t total = 0;
  for (const auto& wk : workers_) {
    if (wk->alive) total += wk->member->lag();
  }
  return total;
}

std::size_t Query::num_workers() const {
  std::size_t n = 0;
  for (const auto& wk : workers_) n += wk->alive ? 1 : 0;
  return n;
}

void Query::kill_worker(std::size_t w) {
  if (w >= workers_.size()) throw std::out_of_range("Query::kill_worker: no such worker");
  Worker& wk = *workers_[w];
  if (!wk.alive) return;
  if (num_workers() == 1) {
    throw std::invalid_argument("Query::kill_worker: cannot kill the last worker");
  }
  if (wk.thread.joinable()) {
    {
      std::lock_guard lk(phase_mu_);
      wk.die.store(true, std::memory_order_relaxed);
      phase_cv_.notify_all();
    }
    wk.thread.join();
    --live_threads_;
  }
  wk.alive = false;
  // Leaving bumps the group generation; survivors observe it through the
  // broker's lock-free cell on their next fetch and absorb the freed
  // partitions. Stale in-flight positions the dead worker held are voided
  // by the fenced commit.
  wk.member->leave();
  wk.obs_owned->set(0.0);
  wk.obs_handoff->set(0.0);
  // The departure instant on the driver ring (survivors mark the absorb
  // side from fetch_lanes when their owned count jumps).
  flight_emit(0, observe::FlightEventType::kRebalance, observe::FlightPhase::kNone, w,
              label_query_);
}

PhaseProfile Query::phase_profile() const {
  using observe::FlightPhase;
  PhaseProfile p;
  for (const auto& wk : workers_) {
    p.fetch_s += wk->phase_wall[static_cast<std::size_t>(FlightPhase::kFetch)];
    p.decode_s += wk->phase_wall[static_cast<std::size_t>(FlightPhase::kDecode)];
    p.operate_s += wk->phase_wall[static_cast<std::size_t>(FlightPhase::kOperate)];
    p.barrier_s += wk->phase_wall[static_cast<std::size_t>(FlightPhase::kBarrier)];
  }
  p.barrier_s += driver_wall_[static_cast<std::size_t>(FlightPhase::kBarrier)];
  p.merge_s = driver_wall_[static_cast<std::size_t>(FlightPhase::kMerge)];
  p.commit_s = driver_wall_[static_cast<std::size_t>(FlightPhase::kCommit)];
  return p;
}

void Query::publish_phase_gauges() {
  using observe::FlightPhase;
  const PhaseProfile p = phase_profile();
  if (p.accounted_s() <= 0.0) return;
  obs_phase_pct_[static_cast<std::size_t>(FlightPhase::kFetch)]->set(p.pct(p.fetch_s));
  obs_phase_pct_[static_cast<std::size_t>(FlightPhase::kDecode)]->set(p.pct(p.decode_s));
  obs_phase_pct_[static_cast<std::size_t>(FlightPhase::kOperate)]->set(p.pct(p.operate_s));
  obs_phase_pct_[static_cast<std::size_t>(FlightPhase::kBarrier)]->set(p.pct(p.barrier_s));
  obs_phase_pct_[static_cast<std::size_t>(FlightPhase::kMerge)]->set(p.pct(p.merge_s));
  obs_phase_pct_[static_cast<std::size_t>(FlightPhase::kCommit)]->set(p.pct(p.commit_s));
}

std::vector<WorkerStats> Query::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& wk = *workers_[i];
    WorkerStats s;
    s.worker = i;
    s.alive = wk.alive;
    s.owned_partitions = wk.alive ? wk.member->assigned_partitions().size() : 0;
    s.rows_fetched = wk.rows_fetched.load(std::memory_order_relaxed);
    s.handoffs = wk.handoffs.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(EngineConfig config) : config_(config) {
  config_.validate();
  workers_ = config_.workers == 0
                 ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
                 : config_.workers;
  auto& reg = observe::default_registry();
  obs_workers_ = reg.gauge("engine.workers");
  obs_queries_ = reg.gauge("engine.queries");
  obs_rounds_ = reg.counter("engine.rounds");
  obs_batches_ = reg.counter("engine.batches");
  obs_rows_ = reg.counter("engine.rows");
  obs_workers_->set(static_cast<double>(workers_));
  obs_queries_->set(0.0);
  if (config_.flight_capacity > 0) {
    // One ring per worker slot plus the driver's. Installing globally
    // lets out-of-band observers (SLO transitions) raise the dump latch
    // without a dependency edge back into the engine.
    flight_ = std::make_unique<observe::FlightRecorder>(1 + workers_, config_.flight_capacity);
    observe::install_flight_recorder(flight_.get());
  }
}

Engine::~Engine() {
  if (flight_) observe::uninstall_flight_recorder(flight_.get());
}

Query& Engine::add_query(pipeline::QueryConfig config, SourceSpec spec) {
  if (!spec.broker) throw std::invalid_argument("SourceSpec: broker must be set");
  const std::size_t num_partitions = spec.broker->topic(spec.topic).num_partitions();
  if (config_.ownership.partitions != 0 && config_.ownership.partitions != num_partitions) {
    throw std::invalid_argument("Engine: topic '" + spec.topic + "' has " +
                                std::to_string(num_partitions) +
                                " partitions but the ownership config declares " +
                                std::to_string(config_.ownership.partitions));
  }
  queries_.push_back(std::make_unique<Query>(std::move(config), spec, workers_, flight_.get()));
  obs_queries_->set(static_cast<double>(queries_.size()));
  return *queries_.back();
}

std::uint64_t Engine::run_until_caught_up(std::size_t max_rounds) {
  Stopwatch sw;
  std::uint64_t total_rows = 0;
  std::uint64_t rounds = 0;
  std::uint64_t batches = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    std::uint64_t round_rows = 0;
    std::uint64_t round_batches = 0;
    // Queries run in add order; parallelism lives inside each query's
    // worker team now, so the round loop itself is deterministic. Rounds
    // repeat until no query makes progress, draining multi-hop chains.
    for (auto& q : queries_) {
      // Progress is measured on *committed* work (run_once also returns
      // the pulled rows of a failed, rolled-back batch — counting those
      // would double-bill replays).
      const pipeline::QueryMetrics& m = q->metrics();
      const std::uint64_t rows0 = m.rows_ingested;
      const std::uint64_t batches0 = m.batches;
      const std::uint64_t skipped0 = m.batches_skipped;
      for (std::size_t b = 0; b < config_.max_batches_per_round; ++b) {
        const std::size_t n = q->run_once();
        if (n == 0 && q->lag() == 0) break;  // caught up
        // n == 0 with lag left (pull failed) burns round budget; a
        // failed batch (n > 0, rolled back) replays on the next pass.
      }
      round_rows += m.rows_ingested - rows0;
      // Dead-lettered batches count as progress too: they advance the
      // committed offsets even though no rows landed.
      round_batches += (m.batches - batches0) + (m.batches_skipped - skipped0);
    }
    ++rounds;
    batches += round_batches;
    total_rows += round_rows;
    if (round_batches == 0) break;  // quiescent: no query advanced
  }
  obs_rounds_->inc(rounds);
  obs_batches_->inc(batches);
  obs_rows_->inc(total_rows);
  {
    std::lock_guard lk(stats_mu_);
    stats_.rounds += rounds;
    stats_.batches += batches;
    stats_.rows += total_rows;
    stats_.wall_seconds += sw.elapsed_seconds();
  }
  return total_rows;
}

EngineStats Engine::stats() const {
  std::lock_guard lk(stats_mu_);
  return stats_;
}

bool Engine::flight_dump_requested() const {
  return flight_ != nullptr && flight_->dump_requested();
}

observe::FlightDump Engine::dump_flight(std::string trigger) {
  if (!flight_) return observe::FlightDump{};
  std::vector<std::string> ring_names;
  ring_names.reserve(1 + workers_);
  ring_names.push_back("driver");
  for (std::size_t w = 0; w < workers_; ++w) ring_names.push_back("w" + std::to_string(w));
  return flight_->dump(std::move(trigger), ring_names);
}

std::vector<std::pair<std::string, WorkerStats>> Engine::worker_info() const {
  std::vector<std::pair<std::string, WorkerStats>> out;
  for (const auto& q : queries_) {
    for (const WorkerStats& ws : q->worker_stats()) out.emplace_back(q->name(), ws);
  }
  return out;
}

}  // namespace oda::engine
