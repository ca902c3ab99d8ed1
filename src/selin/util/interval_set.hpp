// Run-length compressed op-sets for the frontier checkers' configurations.
//
// A configuration's bookkeeping sets (linearized-but-unresponded ops, the
// interval machine's open set) hold one entry per concurrently pending
// operation.  Stored flat, their cost is O(elements) per config and the
// per-clone copy dominates closure expansion on wide windows.  But the keys
// are far from random: monitors key these sets *seq-major* (seq in the high
// word, pid in the low word — see lincheck/config.hpp), so a cohort of
// processes pending at the same sequence number occupies one contiguous key
// run, and the common shape is a dense prefix plus a few holes.  A
// run-length interval representation stores that in O(#runs).
//
// Three layers, all backed by SmallVec (inline for the typical few runs —
// 2 tail runs for the id sets, 4 runs for ValueRunSet — heap spill for
// adversarial fragmentation):
//
//   IntervalSet          ids only; hybrid layout: an explicit dense-prefix
//                        watermark [base, mark) with O(1) membership and
//                        O(1) append-at-watermark, plus a sorted (start,
//                        len) interval tail for everything past the first
//                        hole.  "Prefix + h holes" costs O(h) runs.
//   HashedIntervalSet<H> IntervalSet + an incrementally maintained XOR
//                        (Zobrist) hash: insert/erase/insert_range patch the
//                        cached hash per element, so fingerprint() is a
//                        cached read and never walks ids.  rehash() is the
//                        from-scratch cross-check for tests/audits.
//   ValueRunSet<H>       a (key -> Value) map as value-annotated runs
//                        (start, len, value): a run of keys sharing one
//                        value — e.g. a cohort of enqueue acks — costs one
//                        24-byte entry instead of len * 16.  Same
//                        incremental-hash discipline, with the element hash
//                        fed both key and value.
//
// Degeneration: when neighbors carry distinct values (ValueRunSet) or the
// key space is shredded (hole-heavy ragged schedules), every element gets
// its own run and the representation costs ~1.5x the flat vector.  The
// fuzz/differential tests drive exactly that shape; DESIGN.md ("Compressed
// op-sets") discusses the trade.
//
// Preconditions: keys must stay below 2^64-1 (no wraparound runs) and a
// single run below 2^32 elements — both guaranteed by the seq-major packing
// of 32-bit (pid, seq) pairs.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "selin/util/small_vec.hpp"
#include "selin/util/types.hpp"

namespace selin {

/// Resident bytes a flat SmallVec<Elem, InlineN>-based set would occupy for
/// `elems` elements: header + always-present inline storage, plus the heap
/// block (capacity doubles from InlineN) once spilled.  This is the cost
/// model of the pre-interval representation, used by the footprint facet
/// (bench_frontier_memory) to report the compression ratio against a
/// baseline that no longer compiles.
constexpr size_t small_vec_model_bytes(size_t elems, size_t inline_n,
                                       size_t elem_size) {
  size_t bytes = 16 + inline_n * elem_size;
  if (elems > inline_n) {
    size_t cap = inline_n;
    while (cap < elems) cap *= 2;
    bytes += cap * elem_size;
  }
  return bytes;
}

struct IdRun {
  uint64_t start;
  uint64_t len;  // number of consecutive keys; always >= 1

  friend bool operator==(const IdRun& a, const IdRun& b) {
    return a.start == b.start && a.len == b.len;
  }
};

/// Sorted set of uint64 keys as a dense-prefix watermark plus an interval
/// tail.  The prefix [base_, mark_) is the set's first run; tail runs are
/// sorted, disjoint, and separated from the prefix and from each other by at
/// least one missing key (maximal runs), so the representation is canonical:
/// equal sets have equal representations.
class IntervalSet {
 public:
  bool empty() const { return base_ == mark_; }
  size_t size() const { return size_; }
  /// Total runs, counting the dense prefix (when non-empty) as one.
  size_t run_count() const { return (empty() ? 0 : 1) + tail_.size(); }

  bool contains(uint64_t k) const {
    if (k >= base_ && k < mark_) return true;  // watermark fast path
    return tail_find(k) != kNone;
  }

  /// Inserts `k`; false iff already present.
  bool insert(uint64_t k) {
    if (contains(k)) return false;
    ++size_;
    if (base_ == mark_) {  // was empty
      base_ = k;
      mark_ = k + 1;
    } else if (k == mark_) {  // append at the watermark: O(1) amortized
      ++mark_;
      absorb_tail_head();
    } else if (k < base_) {
      if (k + 1 == base_) {
        --base_;
      } else {  // new first run; the old prefix becomes the tail head
        tail_.insert_at(0, IdRun{base_, mark_ - base_});
        base_ = k;
        mark_ = k + 1;
      }
    } else {
      insert_tail(k);
    }
    return true;
  }

  /// Removes `k`; false iff not present.
  bool erase(uint64_t k) {
    if (k >= base_ && k < mark_) {
      --size_;
      if (base_ + 1 == mark_) {  // prefix had one element
        promote_tail();
      } else if (k + 1 == mark_) {
        --mark_;
      } else if (k == base_) {
        ++base_;
      } else {  // hole inside the prefix: the remainder joins the tail
        tail_.insert_at(0, IdRun{k + 1, mark_ - (k + 1)});
        mark_ = k;
      }
      return true;
    }
    size_t idx = tail_find(k);
    if (idx == kNone) return false;
    --size_;
    const IdRun r = tail_[idx];  // copy: insert_at below may reallocate
    if (r.len == 1) {
      tail_.erase_at(idx);
    } else if (k == r.start) {
      ++tail_[idx].start;
      --tail_[idx].len;
    } else if (k == r.start + r.len - 1) {
      --tail_[idx].len;
    } else {
      tail_[idx].len = k - r.start;
      tail_.insert_at(idx + 1, IdRun{k + 1, r.start + r.len - (k + 1)});
    }
    return true;
  }

  /// Range union of [s, s+len) in one operation (the batch-feed path).
  /// Precondition: the range is disjoint from the set.
  void insert_range(uint64_t s, uint64_t len) {
    if (len == 0) return;
    assert(!contains(s) && !contains(s + len - 1));
    size_ += len;
    const uint64_t e = s + len;  // exclusive
    if (base_ == mark_) {
      base_ = s;
      mark_ = e;
    } else if (s == mark_) {
      mark_ = e;
      absorb_tail_head();
    } else if (e <= base_) {
      if (e == base_) {
        base_ = s;
      } else {
        tail_.insert_at(0, IdRun{base_, mark_ - base_});
        base_ = s;
        mark_ = e;
      }
    } else {
      assert(s > mark_);  // overlap with the prefix violates disjointness
      insert_tail_range(s, len);
    }
  }

  /// The i-th smallest key (0-based).  O(run_count).
  uint64_t nth(size_t i) const {
    assert(i < size_);
    const uint64_t plen = mark_ - base_;
    if (i < plen) return base_ + i;
    i -= plen;
    for (const IdRun& r : tail_) {
      if (i < r.len) return r.start + i;
      i -= r.len;
    }
    assert(false);
    return 0;
  }

  template <typename F>
  void for_each(F&& f) const {
    for (uint64_t k = base_; k < mark_; ++k) f(k);
    for (const IdRun& r : tail_) {
      for (uint64_t i = 0; i < r.len; ++i) f(r.start + i);
    }
  }

  template <typename F>
  void for_each_run(F&& f) const {
    if (!empty()) f(IdRun{base_, mark_ - base_});
    for (const IdRun& r : tail_) f(r);
  }

  void clear() {
    base_ = mark_ = 0;
    size_ = 0;
    tail_.clear();
  }

  /// Bytes this set occupies in memory (object + any heap spill).
  size_t resident_bytes() const {
    return sizeof(*this) + tail_.heap_bytes();
  }

  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    if (a.base_ != b.base_ || a.mark_ != b.mark_ ||
        a.tail_.size() != b.tail_.size()) {
      return false;
    }
    for (size_t i = 0; i < a.tail_.size(); ++i) {
      if (!(a.tail_[i] == b.tail_[i])) return false;
    }
    return true;
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Index of the tail run containing `k`, or kNone.
  size_t tail_find(uint64_t k) const {
    size_t lo = 0, hi = tail_.size();
    while (lo < hi) {  // first run with start > k
      size_t mid = (lo + hi) / 2;
      if (tail_[mid].start <= k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0) return kNone;
    const IdRun& r = tail_[lo - 1];
    return (k - r.start < r.len) ? lo - 1 : kNone;
  }

  /// First tail index with start > k (k not contained in any run).
  size_t tail_upper(uint64_t k) const {
    size_t lo = 0, hi = tail_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (tail_[mid].start <= k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Pull the tail head into the prefix when the watermark reaches it.
  void absorb_tail_head() {
    if (!tail_.empty() && tail_[0].start == mark_) {
      mark_ += tail_[0].len;
      tail_.erase_at(0);
    }
  }

  /// The prefix emptied; its successor run (if any) becomes the new prefix.
  void promote_tail() {
    if (tail_.empty()) {
      base_ = mark_ = 0;
    } else {
      base_ = tail_[0].start;
      mark_ = base_ + tail_[0].len;
      tail_.erase_at(0);
    }
  }

  void insert_tail(uint64_t k) { insert_tail_range(k, 1); }

  /// Insert the disjoint range [s, s+len) with s > mark_, merging into
  /// adjacent runs on either side.
  void insert_tail_range(uint64_t s, uint64_t len) {
    const uint64_t e = s + len;  // exclusive
    const size_t idx = tail_upper(s);
    const bool join_left =
        idx > 0 && tail_[idx - 1].start + tail_[idx - 1].len == s;
    const bool join_right = idx < tail_.size() && tail_[idx].start == e;
    assert(idx == 0 ||
           tail_[idx - 1].start + tail_[idx - 1].len <= s);  // disjoint
    assert(idx == tail_.size() || e <= tail_[idx].start);
    if (join_left && join_right) {
      tail_[idx - 1].len += len + tail_[idx].len;
      tail_.erase_at(idx);
    } else if (join_left) {
      tail_[idx - 1].len += len;
    } else if (join_right) {
      tail_[idx].start = s;
      tail_[idx].len += len;
    } else {
      tail_.insert_at(idx, IdRun{s, len});
    }
  }

  uint64_t base_ = 0;  // dense prefix [base_, mark_); empty iff base_==mark_
  uint64_t mark_ = 0;
  uint64_t size_ = 0;
  SmallVec<IdRun, 2> tail_;  // runs past the first hole; start > mark_
};

/// IntervalSet plus an incrementally maintained Zobrist hash: the cached
/// XOR of ElemHash over the members, patched per element at every mutation,
/// so reading the hash is O(1) and never walks ids.
template <uint64_t (*ElemHash)(uint64_t)>
class HashedIntervalSet {
 public:
  uint64_t hash() const { return hash_; }

  /// From-scratch recomputation over the runs (tests/audits cross-check the
  /// incremental hash against this; never on the hot path).
  uint64_t rehash() const {
    uint64_t h = 0;
    set_.for_each([&](uint64_t k) { h ^= ElemHash(k); });
    return h;
  }

  bool insert(uint64_t k) {
    if (!set_.insert(k)) return false;
    hash_ ^= ElemHash(k);
    return true;
  }

  bool erase(uint64_t k) {
    if (!set_.erase(k)) return false;
    hash_ ^= ElemHash(k);
    return true;
  }

  void insert_range(uint64_t s, uint64_t len) {
    set_.insert_range(s, len);
    for (uint64_t i = 0; i < len; ++i) hash_ ^= ElemHash(s + i);
  }

  void clear() {
    set_.clear();
    hash_ = 0;
  }

  bool empty() const { return set_.empty(); }
  size_t size() const { return set_.size(); }
  size_t run_count() const { return set_.run_count(); }
  bool contains(uint64_t k) const { return set_.contains(k); }
  uint64_t nth(size_t i) const { return set_.nth(i); }
  size_t resident_bytes() const {
    return sizeof(*this) - sizeof(IntervalSet) + set_.resident_bytes();
  }

  template <typename F>
  void for_each(F&& f) const {
    set_.for_each(std::forward<F>(f));
  }
  template <typename F>
  void for_each_run(F&& f) const {
    set_.for_each_run(std::forward<F>(f));
  }

  const IntervalSet& ids() const { return set_; }

 private:
  IntervalSet set_;
  uint64_t hash_ = 0;
};

struct ValueRun {
  uint64_t start;
  uint32_t len;  // >= 1; every key in [start, start+len) maps to v
  Value v;
};

/// A (uint64 key -> Value) map as value-annotated maximal runs, with the
/// same incremental Zobrist-hash discipline as HashedIntervalSet (the
/// element hash sees both key and value).  Canonical: adjacent runs with
/// equal values are always merged, so equal maps have equal representations
/// regardless of insertion order.
template <uint64_t (*ElemHash)(uint64_t, Value)>
class ValueRunSet {
 public:
  uint64_t hash() const { return hash_; }

  uint64_t rehash() const {
    uint64_t h = 0;
    for_each([&](uint64_t k, Value v) { h ^= ElemHash(k, v); });
    return h;
  }

  bool empty() const { return runs_.empty(); }
  size_t size() const { return size_; }
  size_t run_count() const { return runs_.size(); }

  bool contains(uint64_t k) const { return find_run(k) != kNone; }

  /// Pointer to the value mapped at `k` (valid until the next mutation), or
  /// nullptr.  O(log run_count).
  const Value* find(uint64_t k) const {
    size_t idx = find_run(k);
    return idx == kNone ? nullptr : &runs_[idx].v;
  }

  /// Maps `k` to `v`.  Precondition: `k` is absent.
  void add(uint64_t k, Value v) {
    assert(!contains(k));
    hash_ ^= ElemHash(k, v);
    ++size_;
    const size_t idx = upper(k);
    const bool join_left = idx > 0 && runs_[idx - 1].v == v &&
                           runs_[idx - 1].start + runs_[idx - 1].len == k;
    const bool join_right = idx < runs_.size() && runs_[idx].v == v &&
                            runs_[idx].start == k + 1;
    if (join_left && join_right) {
      runs_[idx - 1].len += 1 + runs_[idx].len;
      runs_.erase_at(idx);
    } else if (join_left) {
      ++runs_[idx - 1].len;
    } else if (join_right) {
      --runs_[idx].start;
      ++runs_[idx].len;
    } else {
      runs_.insert_at(idx, ValueRun{k, 1, v});
    }
  }

  /// Maps every key of [s, s+len) to `v` in one range operation (the batch
  /// path for uniform cohorts).  Precondition: the range is disjoint.
  void add_run(uint64_t s, uint32_t len, Value v) {
    if (len == 0) return;
    assert(!contains(s) && !contains(s + len - 1));
    for (uint32_t i = 0; i < len; ++i) hash_ ^= ElemHash(s + i, v);
    size_ += len;
    const uint64_t e = s + len;
    const size_t idx = upper(s);
    const bool join_left = idx > 0 && runs_[idx - 1].v == v &&
                           runs_[idx - 1].start + runs_[idx - 1].len == s;
    const bool join_right =
        idx < runs_.size() && runs_[idx].v == v && runs_[idx].start == e;
    if (join_left && join_right) {
      runs_[idx - 1].len += len + runs_[idx].len;
      runs_.erase_at(idx);
    } else if (join_left) {
      runs_[idx - 1].len += len;
    } else if (join_right) {
      runs_[idx].start = s;
      runs_[idx].len += len;
    } else {
      runs_.insert_at(idx, ValueRun{s, len, v});
    }
  }

  /// Removes `k`; false iff absent.
  bool remove(uint64_t k) {
    size_t idx = find_run(k);
    if (idx == kNone) return false;
    remove_from_run(idx, k);
    return true;
  }

  /// Removes `k` iff it is present AND mapped to `expect` — the fused
  /// response-filter probe (one search instead of find-then-remove).
  bool remove_if_equals(uint64_t k, Value expect) {
    size_t idx = find_run(k);
    if (idx == kNone || runs_[idx].v != expect) return false;
    remove_from_run(idx, k);
    return true;
  }

  template <typename F>
  void for_each(F&& f) const {
    for (const ValueRun& r : runs_) {
      for (uint32_t i = 0; i < r.len; ++i) f(r.start + i, r.v);
    }
  }

  template <typename F>
  void for_each_run(F&& f) const {
    for (const ValueRun& r : runs_) f(r);
  }

  void clear() {
    runs_.clear();
    hash_ = 0;
    size_ = 0;
  }

  size_t resident_bytes() const { return sizeof(*this) + runs_.heap_bytes(); }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  size_t upper(uint64_t k) const {  // first run with start > k
    size_t lo = 0, hi = runs_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (runs_[mid].start <= k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  size_t find_run(uint64_t k) const {
    size_t idx = upper(k);
    if (idx == 0) return kNone;
    const ValueRun& r = runs_[idx - 1];
    return (k - r.start < r.len) ? idx - 1 : kNone;
  }

  void remove_from_run(size_t idx, uint64_t k) {
    const ValueRun r = runs_[idx];  // copy: insert_at below may reallocate
    hash_ ^= ElemHash(k, r.v);
    --size_;
    if (r.len == 1) {
      runs_.erase_at(idx);
    } else if (k == r.start) {
      ++runs_[idx].start;
      --runs_[idx].len;
    } else if (k == r.start + r.len - 1) {
      --runs_[idx].len;
    } else {  // split around the hole; both halves keep the value
      runs_[idx].len = static_cast<uint32_t>(k - r.start);
      runs_.insert_at(idx + 1,
                      ValueRun{k + 1,
                               static_cast<uint32_t>(r.start + r.len - (k + 1)),
                               r.v});
    }
  }

  // Four inline runs: a LinSet holds at most one entry per process with a
  // linearized but unresponded op, and the modeled histories run 2-4
  // processes, so a 4-entry candidate copies inline instead of spilling a
  // heap block per clone (ValueRun is 24 B; Config grows by 24 B).
  SmallVec<ValueRun, 4> runs_;  // sorted by start; disjoint; maximal
  uint64_t hash_ = 0;
  uint64_t size_ = 0;
};

}  // namespace selin
