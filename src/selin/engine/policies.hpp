// The three membership semantics as FrontierEngine policies.
//
// Each policy supplies exactly what differs between the checkers: the
// configuration type, the closure moves (expand), and the response filter
// (match).  Everything else — frontier maintenance, dedup, recycling,
// sharding, adaptive execution, overflow discipline, stats — lives once in
// FrontierEngine (frontier_engine.hpp).
//
//   LinPolicy       one open operation linearizes per move (Wing & Gong
//                   configurations; Definition 4.2).
//   SetLinPolicy    a non-empty *batch* of open operations linearizes
//                   simultaneously through the set-sequential transition
//                   (Neiger [81]; Section 7.1).
//   IntervalPolicy  two moves: machine-invoke a non-empty subset of
//                   history-open operations, or machine-respond a
//                   machine-open operation (Castañeda–Rajsbaum–Raynal [17]).
//
// Scratch structs are per-lane (the engine allocates one per shard lane) and
// cache-line aligned so neighboring lanes never share a line while the
// expansion loops rewrite the vector headers.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "selin/lincheck/checker.hpp"
#include "selin/lincheck/config.hpp"
#include "selin/lincheck/intervallin.hpp"
#include "selin/spec/spec.hpp"

namespace selin::engine {

// ---------------------------------------------------------------------------
// Linearizability
// ---------------------------------------------------------------------------

struct LinPolicy {
  using Config = lincheck::Config;
  struct alignas(64) Scratch {};

  /// The sequential engine runs this policy through expand_lazy (candidate
  /// fingerprints first, Config assembly only after the dedup probe admits).
  static constexpr bool kLazyExpand = true;

  const SeqSpec* spec;

  std::unique_ptr<SeqState> initial_state() const { return spec->initial(); }

  template <typename GetCfg, typename Emit>
  void expand(lincheck::StatePool& pool, Scratch&,
              std::span<const OpDesc> open, GetCfg&& cfg, Emit&& emit) const {
    for (const OpDesc& od : open) {
      const Config& c = cfg();  // re-fetch: the previous emit may have moved it
      if (c.find(od.id) != nullptr) continue;
      Config next = c.clone_with(pool);
      Value assigned = next.state->step(od.method, od.arg);
      next.add(od.id, assigned);
      emit(std::move(next));
    }
  }

  /// Two-stage expansion for the batched-probe closure: per applicable open
  /// op, step a pooled state clone and hand the engine the successor's
  /// fingerprint *without* building the Config — the linearized set of the
  /// successor is the parent's plus one entry, so its hash (and hence the
  /// full fingerprint) is one XOR away from the parent's cached hash.  The
  /// engine probes the fingerprints in a prefetched batch and copies the
  /// parent's set only for admitted candidates; rejected ones cost a state
  /// round-trip through the pool and nothing else.
  /// emit(state, id, assigned, fp); same emission order as expand().
  template <typename GetCfg, typename EmitCand>
  void expand_lazy(lincheck::StatePool& pool, Scratch&,
                   std::span<const OpDesc> open, GetCfg&& cfg,
                   EmitCand&& emit) const {
    for (const OpDesc& od : open) {
      const Config& c = cfg();  // re-fetch: emit may flush and move the parent
      if (c.find(od.id) != nullptr) continue;
      std::unique_ptr<SeqState> st = pool.acquire(*c.state);
      Value assigned = st->step(od.method, od.arg);
      const uint64_t fp =
          st->fingerprint() ^ c.linearized.hash() ^
          lincheck::lin_elem(lincheck::seq_major(od.id), assigned);
      emit(std::move(st), od.id, assigned, fp);
    }
  }

  /// Canonical key of a lazy candidate (audit builds): what the materialized
  /// Config's key() would be — the stepped state, then the parent's entries
  /// with (id, assigned) spliced in seq-major order.
  static std::string candidate_key(const SeqState& st,
                                   const lincheck::LinSet& parent, OpId id,
                                   Value assigned) {
    std::ostringstream os;
    os << st.encode() << "|";
    const uint64_t nk = lincheck::seq_major(id);
    bool placed = false;
    auto put = [&os](uint64_t k, Value v) {
      OpId i = lincheck::id_of_key(k);
      os << i.pid << "." << i.seq << "=" << v << ";";
    };
    parent.for_each([&](uint64_t k, Value v) {
      if (!placed && nk < k) {
        put(nk, assigned);
        placed = true;
      }
      put(k, v);
    });
    if (!placed) put(nk, assigned);
    return os.str();
  }

  // Every surviving configuration must have linearized e.op with exactly the
  // observed result; the op then leaves the linearized set.  Fused into one
  // run search (remove_if_equals) — the filter runs once per response per
  // closure configuration.
  bool match(Config& c, const Event& e) const {
    return c.remove_if_equals(e.op.id, e.result);
  }

  /// The value `c` linearized `id` with, or nullptr: what match() compares
  /// against the response (the engine's r1 pruning).
  const Value* held(const Config& c, OpId id) const { return c.find(id); }

  /// Fingerprint delta of a successful match(c, e): match only removes the
  /// (op, result) entry from the linearized set — machine state is never
  /// touched — so the post-match fingerprint is the pre-match one XOR this,
  /// computable once per event instead of once per survivor (the SoA filter
  /// pass keys on it; the collision audit cross-checks the arithmetic).
  uint64_t match_delta(const Event& e) const {
    return lincheck::lin_elem(lincheck::seq_major(e.op.id), e.result);
  }

  /// Bloom bits of the response-relevant set (the linearized ops): the SoA
  /// hot-row over-approximation the filter pass consults before match().
  uint64_t hot_bits(const Config& c) const {
    uint64_t bits = 0;
    c.linearized.for_each(
        [&bits](uint64_t k, Value) { bits |= lincheck::match_bit(k); });
    return bits;
  }
};

// ---------------------------------------------------------------------------
// Set-linearizability
// ---------------------------------------------------------------------------

struct SetLinPolicy {
  using Config = lincheck::Config;
  struct alignas(64) Scratch {
    std::vector<OpDesc> cand;
    std::vector<OpDesc> batch;
    std::vector<Value> out;
    std::vector<std::pair<uint64_t, Value>> kv;  // sorted (key, value) runs
  };

  /// Successor sets here add a whole batch of entries, so the engine buffers
  /// full Configs and batch-probes their fingerprints instead (the lazy
  /// one-XOR delta trick is LinPolicy-shaped).
  static constexpr bool kLazyExpand = false;

  const SetSeqSpec* spec;

  std::unique_ptr<SeqState> initial_state() const { return spec->initial(); }

  template <typename GetCfg, typename Emit>
  void expand(lincheck::StatePool& pool, Scratch& sc,
              std::span<const OpDesc> open, GetCfg&& cfg, Emit&& emit) const {
    {
      const Config& c = cfg();  // no emit happens while cand is gathered
      sc.cand.clear();
      for (const OpDesc& od : open) {
        if (c.find(od.id) == nullptr) sc.cand.push_back(od);
      }
    }
    if (sc.cand.empty()) return;
    if (sc.cand.size() > 20) throw CheckerOverflow{};
    for (uint32_t mask = 1; mask < (1u << sc.cand.size()); ++mask) {
      sc.batch.clear();
      for (size_t b = 0; b < sc.cand.size(); ++b) {
        if (mask & (1u << b)) sc.batch.push_back(sc.cand[b]);
      }
      Config next = cfg().clone_with(pool);  // re-fetch per emit round
      sc.out.assign(sc.batch.size(), kNoArg);
      if (!spec->step_set(*next.state, sc.batch, sc.out)) {
        pool.release(std::move(next.state));
        continue;
      }
      // The whole batch linearizes at once; union each consecutive
      // same-value key run into the set with one range operation instead of
      // per-op point inserts (a lockstep cohort acking uniformly is the
      // common shape and lands as a single run).
      sc.kv.clear();
      for (size_t b = 0; b < sc.batch.size(); ++b) {
        sc.kv.emplace_back(lincheck::seq_major(sc.batch[b].id), sc.out[b]);
      }
      std::sort(sc.kv.begin(), sc.kv.end());
      for (size_t b = 0; b < sc.kv.size();) {
        size_t r = b + 1;
        while (r < sc.kv.size() && sc.kv[r].first == sc.kv[b].first + (r - b) &&
               sc.kv[r].second == sc.kv[b].second) {
          ++r;
        }
        next.linearized.add_run(sc.kv[b].first, static_cast<uint32_t>(r - b),
                                sc.kv[b].second);
        b = r;
      }
      emit(std::move(next));
    }
  }

  bool match(Config& c, const Event& e) const {
    return c.remove_if_equals(e.op.id, e.result);
  }

  const Value* held(const Config& c, OpId id) const { return c.find(id); }

  /// Same filter as LinPolicy: match removes one (op, result) entry.
  uint64_t match_delta(const Event& e) const {
    return lincheck::lin_elem(lincheck::seq_major(e.op.id), e.result);
  }

  uint64_t hot_bits(const Config& c) const {
    uint64_t bits = 0;
    c.linearized.for_each(
        [&bits](uint64_t k, Value) { bits |= lincheck::match_bit(k); });
    return bits;
  }
};

// ---------------------------------------------------------------------------
// Interval-linearizability
// ---------------------------------------------------------------------------

/// Element hash of a seq-major machine-open key: un-swapped back to the
/// pid-major packed id before fph::open_op, keeping the hash contract (and
/// every fingerprint) bit-identical to the flat-vector representation.
constexpr uint64_t open_elem(uint64_t key) {
  return fph::open_op((key << 32) | (key >> 32));
}

/// The interval machine's open set: seq-major keys, run-length compressed
/// with the incremental fph::open_op hash.  A write-snapshot round where
/// every process has entered the machine is a single run.
using OpenSet = HashedIntervalSet<open_elem>;

/// A configuration of the interval machine: machine state, the operations
/// currently open *inside* the machine, and the responses already assigned
/// (machine-responded, awaiting the history's response event).  Deduplicated
/// by a 64-bit fingerprint: state fingerprint XOR one cached Zobrist
/// component per set-shaped member, each maintained incrementally by the
/// interval-set wrappers at the mutation sites.
struct IConfig {
  std::unique_ptr<SeqState> state;
  OpenSet machine_open;          // run-length id set, seq-major keys
  lincheck::LinSet assigned;     // run-length (key -> value) set

  IConfig clone() const {
    IConfig c;
    c.state = state->clone();
    c.machine_open = machine_open;
    c.assigned = assigned;
    return c;
  }

  IConfig clone_with(lincheck::StatePool& pool) const {
    IConfig c;
    c.state = pool.acquire(*state);
    c.machine_open = machine_open;
    c.assigned = assigned;
    return c;
  }

  uint64_t fingerprint() const {
    return state->fingerprint() ^ machine_open.hash() ^ assigned.hash();
  }

  /// Canonical key (ground truth; audit + diagnostics only).  Deterministic
  /// and injective; both sets stream in seq-major key order.
  std::string key() const {
    std::ostringstream os;
    os << state->encode() << "|";
    machine_open.for_each([&os](uint64_t k) {
      OpId id = lincheck::id_of_key(k);
      os << id.pid << "." << id.seq << ",";
    });
    os << "|";
    assigned.for_each([&os](uint64_t k, Value v) {
      OpId id = lincheck::id_of_key(k);
      os << id.pid << "." << id.seq << "=" << v << ";";
    });
    return os.str();
  }

  bool is_machine_open(OpId id) const {
    return machine_open.contains(lincheck::seq_major(id));
  }

  void machine_invoke(OpId id) {
    machine_open.insert(lincheck::seq_major(id));
  }

  /// Machine-invoke a whole batch, unioning each consecutive key run in one
  /// range operation (`keys` is mutated scratch; typically the batch is a
  /// lockstep cohort and lands as a single run).
  void machine_invoke_batch(std::vector<uint64_t>& keys) {
    std::sort(keys.begin(), keys.end());
    for (size_t b = 0; b < keys.size();) {
      size_t r = b + 1;
      while (r < keys.size() && keys[r] == keys[b] + (r - b)) ++r;
      machine_open.insert_range(keys[b], r - b);
      b = r;
    }
  }

  void machine_respond(OpId id, Value v) {
    assigned.add(lincheck::seq_major(id), v);
  }

  /// Remove `id` from both machine bookkeeping sets (the op's history
  /// response has been observed).
  void retire(OpId id) {
    uint64_t key = lincheck::seq_major(id);
    assigned.remove(key);
    machine_open.erase(key);
  }

  /// Fused response filter: iff `id` is machine-responded with exactly the
  /// observed value, retire it from both sets.  One run search on the
  /// assigned set (machine_respond guarantees assigned ⊆ machine_open).
  bool retire_if_assigned(OpId id, Value expect) {
    uint64_t key = lincheck::seq_major(id);
    if (!assigned.remove_if_equals(key, expect)) return false;
    machine_open.erase(key);
    return true;
  }

  const Value* find_assigned(OpId id) const {
    return assigned.find(lincheck::seq_major(id));
  }

  /// Footprint accounting for the memory facet (bench_frontier_memory).
  size_t opset_elems() const { return machine_open.size() + assigned.size(); }
  size_t opset_bytes() const {
    return machine_open.resident_bytes() + assigned.resident_bytes();
  }
  /// What the pre-interval flat representation would occupy for these sets:
  /// SmallVec<OpId, 8> + SmallVec<{OpId, Value}, 8> plus two hash words.
  size_t opset_smallvec_bytes() const {
    return small_vec_model_bytes(machine_open.size(), 8, 8) +
           small_vec_model_bytes(assigned.size(), 8, 16) +
           2 * sizeof(uint64_t);
  }
};

struct IntervalPolicy {
  using Config = IConfig;
  struct alignas(64) Scratch {
    std::vector<OpDesc> eligible;
    std::vector<OpDesc> batch;
    std::vector<uint64_t> keys;  // seq-major batch keys for the range union
  };

  /// Invoke-subset successors mutate two sets at once; the engine uses the
  /// generic buffered batch-probe path.
  static constexpr bool kLazyExpand = false;

  const IntervalSeqSpec* spec;

  std::unique_ptr<SeqState> initial_state() const { return spec->initial(); }

  template <typename GetCfg, typename Emit>
  void expand(lincheck::StatePool& pool, Scratch& sc,
              std::span<const OpDesc> open, GetCfg&& cfg, Emit&& emit) const {
    // (a) machine-invoke any non-empty subset of history-open ops that are
    // not yet in the machine.
    {
      const IConfig& c = cfg();  // no emit happens while eligible is gathered
      sc.eligible.clear();
      for (const OpDesc& od : open) {
        if (!c.is_machine_open(od.id) && c.find_assigned(od.id) == nullptr) {
          sc.eligible.push_back(od);
        }
      }
    }
    if (sc.eligible.size() > 16) throw CheckerOverflow{};
    for (uint32_t mask = 1; mask < (1u << sc.eligible.size()); ++mask) {
      sc.batch.clear();
      for (size_t b = 0; b < sc.eligible.size(); ++b) {
        if (mask & (1u << b)) sc.batch.push_back(sc.eligible[b]);
      }
      IConfig next = cfg().clone_with(pool);  // re-fetch per emit round
      if (!spec->invoke_set(*next.state, sc.batch)) {
        pool.release(std::move(next.state));
        continue;
      }
      sc.keys.clear();
      for (const OpDesc& od : sc.batch) {
        sc.keys.push_back(lincheck::seq_major(od.id));
      }
      next.machine_invoke_batch(sc.keys);  // consecutive runs union at once
      emit(std::move(next));
    }
    // (b) machine-respond any machine-open op lacking an assignment.
    for (size_t k = 0; k < cfg().machine_open.size(); ++k) {
      const IConfig& c = cfg();  // re-fetch: the previous emit may have moved it
      OpId id = lincheck::id_of_key(c.machine_open.nth(k));
      if (c.find_assigned(id) != nullptr) continue;
      const OpDesc* od = find_open(open, id);
      if (od == nullptr) continue;  // already history-responded earlier
      IConfig next = c.clone_with(pool);
      Value v = spec->respond(*next.state, *od);
      next.machine_respond(id, v);
      emit(std::move(next));
    }
  }

  // The op leaves the machine and the history bookkeeping.
  bool match(IConfig& c, const Event& e) const {
    return c.retire_if_assigned(e.op.id, e.result);
  }

  /// The response the machine assigned `id`, or nullptr: an assignment is
  /// never revised by a closure move, and match() requires it to equal the
  /// observed result.
  const Value* held(const IConfig& c, OpId id) const {
    return c.find_assigned(id);
  }

  /// Fingerprint delta of a successful match: retire_if_assigned removes
  /// the (op, result) entry from `assigned` AND the op's key from
  /// `machine_open` (machine state untouched), so the post-match
  /// fingerprint is pre-match XOR both element hashes.
  uint64_t match_delta(const Event& e) const {
    const uint64_t k = lincheck::seq_major(e.op.id);
    return lincheck::lin_elem(k, e.result) ^ open_elem(k);
  }

  /// The response-relevant set is `assigned` alone: match() fails whenever
  /// the op lacks an assignment, regardless of machine_open membership.
  uint64_t hot_bits(const IConfig& c) const {
    uint64_t bits = 0;
    c.assigned.for_each(
        [&bits](uint64_t k, Value) { bits |= lincheck::match_bit(k); });
    return bits;
  }

 private:
  static const OpDesc* find_open(std::span<const OpDesc> open, OpId id) {
    for (const OpDesc& od : open) {
      if (od.id == id) return &od;
    }
    return nullptr;
  }
};

}  // namespace selin::engine
