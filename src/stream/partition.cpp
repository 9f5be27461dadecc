#include "stream/partition.hpp"

#include <algorithm>

#include "common/faults.hpp"
#include "observe/metrics.hpp"

namespace oda::stream {

namespace {
// Aggregate (un-labelled) counter: partitions don't know their topic,
// and per-partition labels would be needless cardinality. Appends are
// deliberately NOT counted per record — stream.produced.records already
// covers them; segment rolls are the per-partition event worth keeping.
observe::Counter* segments_rolled_counter() {
  static observe::Counter* segments =
      observe::default_registry().counter("stream.partition.segments.rolled");
  return segments;
}
}  // namespace

std::uint32_t Partition::KeyDict::intern_view(std::string_view key) {
  const std::size_t mask = slots.size() - 1;  // slots.size() is a power of 2
  std::size_t i = static_cast<std::size_t>(common::fnv1a(key)) & mask;
  while (slots[i] != 0) {
    const std::uint32_t id = slots[i] - 1;
    if (entries[id] == key) return id;
    i = (i + 1) & mask;
  }
  // Cardinality cap: past kMaxDictKeys distinct keys the dictionary stops
  // growing and the caller inlines the key in the segment arena instead —
  // a high-cardinality key stream (unique request ids as keys) must not
  // leak memory for the partition's lifetime.
  if (entries.size() >= kMaxDictKeys) return kNoKey;
  const auto id = static_cast<std::uint32_t>(entries.size());
  entries.emplace_back(key);
  if ((entries.size() + 1) * 4 > slots.size() * 3) {
    // Past 75% load: double the table and reinsert every id.
    std::vector<std::uint32_t> grown(slots.size() * 2, 0);
    const std::size_t gmask = grown.size() - 1;
    for (std::uint32_t e = 0; e < entries.size(); ++e) {
      std::size_t g = static_cast<std::size_t>(common::fnv1a(entries[e])) & gmask;
      while (grown[g] != 0) g = (g + 1) & gmask;
      grown[g] = e + 1;
    }
    slots.swap(grown);
  } else {
    slots[i] = id + 1;
  }
  return id;
}

void Partition::append_one_unlocked(const EncodedRecord& r, std::int64_t off,
                                    std::size_t index_hint) {
  const std::size_t sz = r.wire_size();
  // Key placement is decided before the roll check so the arena-byte need
  // is known: interned keys cost no arena bytes; once the dictionary hits
  // its cap, new keys are inlined in the arena ahead of the payload.
  const bool has_key = !r.key.empty();
  const std::uint32_t key_id = has_key ? dict_->intern_view(r.key) : kNoKey;
  const bool inline_key = has_key && key_id == kNoKey;
  const std::size_t arena_need = r.payload.size() + (inline_key ? r.key.size() : 0);
  // Roll on the wire-size rule (identical placement to the pre-arena
  // layout), plus a defensive arena-capacity check: the wire rule already
  // guarantees arena bytes (payload + any inline key <= wire size) fit
  // the reservation, so the second clause can only fire if that invariant
  // is ever broken — never silently reallocate an arena that in-flight
  // views point into.
  const bool roll = segments_.empty() || segments_.back()->bytes + sz > segment_bytes_ ||
                    segments_.back()->arena.size() + arena_need >
                        segments_.back()->arena.capacity();
  if (roll) {
    auto s = std::make_shared<Segment>();
    s->base_offset = off;
    // Full-capacity reservation up front: the arena must never reallocate
    // while readers hold views into it. Arena bytes per segment are
    // bounded by the wire-size roll rule (first record may exceed it).
    s->arena.reserve(std::max(segment_bytes_, arena_need));
    if (index_hint > 0) {
      s->index.reserve(std::min(index_hint, segment_bytes_ / 24 + 1));
    }
    s->dict = dict_;
    segments_.push_back(std::move(s));
    segments_rolled_counter()->inc();
  }
  write_record_unlocked(*segments_.back(), r, key_id);
  segments_.back()->bytes += sz;
  total_bytes_ += sz;
}

void Partition::write_record_unlocked(Segment& seg, const EncodedRecord& r,
                                      std::uint32_t key_id) {
  IndexEntry e;
  e.timestamp = r.timestamp;
  e.trace_id = r.trace_id;
  e.span_id = r.span_id;
  e.key_id = key_id;
  if (key_id == kNoKey && !r.key.empty()) {
    seg.arena.insert(seg.arena.end(), r.key.begin(), r.key.end());
    e.key_len = static_cast<std::uint32_t>(r.key.size());
  }
  e.payload_off = seg.arena.size();
  e.payload_len = static_cast<std::uint32_t>(r.payload.size());
  seg.arena.insert(seg.arena.end(), r.payload.begin(), r.payload.end());
  seg.index.push_back(e);
  if (r.timestamp > seg.max_ts) seg.max_ts = r.timestamp;
}

std::int64_t Partition::append(Record r) {
  std::lock_guard lk(mu_);
  const std::int64_t off = next_offset_.load(std::memory_order_relaxed);
  append_one_unlocked(as_encoded(r), off, /*index_hint=*/0);
  next_offset_.store(off + 1, std::memory_order_relaxed);
  return off;
}

std::int64_t Partition::append_encoded_batch(std::span<const EncodedRecord> batch) {
  std::lock_guard lk(mu_);
  const std::int64_t first = next_offset_.load(std::memory_order_relaxed);
  if (batch.empty()) return first;
  // One index reservation from the batch's summed wire size: if the whole
  // batch fits the active segment (the common staged-flush case), reserve
  // its index up front; otherwise each rolled segment gets the
  // remaining-records hint. Arena capacity is always fully reserved at
  // segment creation, so payload bytes need no per-batch reserve.
  std::size_t wire = 0;
  for (const EncodedRecord& r : batch) wire += r.wire_size();
  if (!segments_.empty() && segments_.back()->bytes + wire <= segment_bytes_) {
    // Fast path: the whole batch fits the active segment, so no record
    // can roll (cumulative bytes never cross segment_bytes_, and arena
    // capacity >= segment_bytes_ covers the payload/inline-key bytes).
    // Per-record roll checks and byte accounting are hoisted out of the
    // loop — this is the produce-side hot path.
    Segment& seg = *segments_.back();
    const std::size_t want = seg.index.size() + batch.size();
    if (want > seg.index.capacity()) {
      // Grow geometrically: reserve(want) alone would resize to the exact
      // count on every flush, turning repeated small batches into O(n^2)
      // index copies.
      seg.index.reserve(std::max(want, seg.index.capacity() * 2));
    }
    for (const EncodedRecord& r : batch) {
      const std::uint32_t key_id = r.key.empty() ? kNoKey : dict_->intern_view(r.key);
      write_record_unlocked(seg, r, key_id);
    }
    seg.bytes += wire;
    total_bytes_ += wire;
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      append_one_unlocked(batch[i], first + static_cast<std::int64_t>(i), batch.size() - i);
    }
  }
  // Group commit: readers (fetch_view's lockless end check, end_offset())
  // see the whole batch become visible at once.
  next_offset_.store(first + static_cast<std::int64_t>(batch.size()),
                     std::memory_order_relaxed);
  return first;
}

std::int64_t Partition::append_batch(std::vector<Record>&& batch) {
  // Owned-Record shim over the encoded path: the Records stay alive for
  // the duration of the call, so borrowing their bytes is safe.
  std::vector<EncodedRecord> views;
  views.reserve(batch.size());
  for (const Record& r : batch) views.push_back(as_encoded(r));
  const std::int64_t first = append_encoded_batch(views);
  batch.clear();
  return first;
}

std::int64_t Partition::fetch_copy(std::int64_t offset, std::size_t max_records,
                                   std::vector<StoredRecord>& out) const {
  // Copying escape hatch: same budget accounting as always (max_records
  // counts against out.size(), which may be non-empty across partitions).
  const std::size_t budget = max_records > out.size() ? max_records - out.size() : 0;
  FetchView fv;
  const std::int64_t next = fetch_view(offset, budget, fv);
  out.reserve(out.size() + fv.size());
  for (const RecordView& v : fv) out.push_back(v.to_stored());
  return next;
}

std::int64_t Partition::fetch_view(std::int64_t offset, std::size_t max_records,
                                   FetchView& out) const {
  // Empty-fetch fast paths: a zero budget or an offset at/past the end
  // returns without the fault seam, the partition lock, or any counter
  // work (a caught-up consumer polls this case every round). The relaxed
  // end read can be stale; that only defers the fetch one poll.
  if (out.size() >= max_records) {
    return std::min(offset, next_offset_.load(std::memory_order_relaxed));
  }
  // Single load for both the check and the return value: callers store
  // the result as their next position, so returning a *re-loaded* end
  // (which a concurrent append may have advanced) would skip the records
  // appended between the two loads — silent loss that commit() then
  // persists. min() keeps the returned position <= the snapshot end.
  const std::int64_t at_end = next_offset_.load(std::memory_order_relaxed);
  if (offset >= at_end) return std::min(offset, at_end);
  // Fault seam: fails before handing out anything. A consumer whose poll
  // faulted mid-way must restore its positions before retrying (the
  // engine's fetch retry does this via seek_to_committed).
  chaos::fault_point("stream.fetch");
  std::lock_guard lk(mu_);
  const std::int64_t end = next_offset_.load(std::memory_order_relaxed);
  if (segments_.empty()) return end;
  const std::int64_t start = segments_.front()->base_offset;
  if (offset < start) offset = start;  // evicted range: snap forward
  if (offset > end) offset = end;      // past end: clamp back
  std::int64_t cur = offset;
  for (const auto& seg_ptr : segments_) {
    const Segment& seg = *seg_ptr;
    const std::int64_t seg_end = seg.base_offset + static_cast<std::int64_t>(seg.index.size());
    if (cur >= seg_end) continue;
    if (cur < seg.base_offset) cur = seg.base_offset;
    // Pin the segment once per fetch: the shared_ptr keeps the arena, the
    // index and (through Segment::dict) the key bytes alive after
    // retention pops the segment — and after this partition is destroyed.
    bool pinned = false;
    for (std::size_t i = static_cast<std::size_t>(cur - seg.base_offset); i < seg.index.size();
         ++i) {
      if (out.size() >= max_records) return cur;
      if (!pinned) {
        out.pin(seg_ptr);
        pinned = true;
      }
      const IndexEntry& e = seg.index[i];
      RecordView v;
      v.offset = cur;
      v.timestamp = e.timestamp;
      v.trace_id = e.trace_id;
      v.span_id = e.span_id;
      if (e.key_id != kNoKey) {
        v.key = seg.dict->entries[e.key_id];
      } else if (e.key_len > 0) {
        // Dictionary-cap overflow: key bytes inlined just before the payload.
        v.key = std::string_view(seg.arena.data() + e.payload_off - e.key_len, e.key_len);
      }
      v.payload = std::string_view(seg.arena.data() + e.payload_off, e.payload_len);
      out.push_back(v);
      ++cur;
    }
  }
  return cur;
}

std::int64_t Partition::offset_for_time(common::TimePoint t) const {
  std::lock_guard lk(mu_);
  for (const auto& seg : segments_) {
    if (seg->max_ts < t) continue;
    for (std::size_t i = 0; i < seg->index.size(); ++i) {
      if (seg->index[i].timestamp >= t) return seg->base_offset + static_cast<std::int64_t>(i);
    }
  }
  return next_offset_.load(std::memory_order_relaxed);
}

std::size_t Partition::enforce_retention(const RetentionPolicy& policy, common::TimePoint now) {
  std::lock_guard lk(mu_);
  std::size_t evicted = 0;
  // Never evict the active (last) segment. Popping only drops the
  // partition's reference — readers holding a FetchView pin keep the
  // segment's bytes alive until they are done.
  while (segments_.size() > 1) {
    const Segment& head = *segments_.front();
    const bool too_old = policy.max_age > 0 && head.max_ts < now - policy.max_age;
    const bool too_big = policy.max_bytes >= 0 && static_cast<std::int64_t>(total_bytes_) > policy.max_bytes;
    if (!too_old && !too_big) break;
    evicted += head.bytes;
    total_bytes_ -= head.bytes;
    segments_.pop_front();
  }
  return evicted;
}

std::int64_t Partition::start_offset() const {
  std::lock_guard lk(mu_);
  return segments_.empty() ? next_offset_.load(std::memory_order_relaxed)
                           : segments_.front()->base_offset;
}

std::int64_t Partition::end_offset() const {
  return next_offset_.load(std::memory_order_relaxed);
}

std::size_t Partition::size_bytes() const {
  std::lock_guard lk(mu_);
  return total_bytes_;
}

std::size_t Partition::key_dict_size() const {
  std::lock_guard lk(mu_);
  return dict_->entries.size();
}

std::size_t Partition::record_count() const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (const auto& s : segments_) n += s->index.size();
  return n;
}

}  // namespace oda::stream
