// LinMonitor against a naive reference frontier.
//
// The engine's closure round is incremental (seeds expand only by the ops
// invoked since the previous round and are never probed) and pruned (a
// candidate holding the run's first response with the wrong value is
// dropped before it is probed).  Both are claimed to leave every
// post-response frontier unchanged.  The reference below makes neither
// shortcut: each response re-runs the full closure of the frontier under
// every open op, deduplicated by canonical string key, then filters.  The
// monitor must report the same frontier size and verdict after every event,
// fed per event and in chunks.
//
// The overflow case pins the pruning in the sharded path: the closure
// rounds there hold thousands of configurations that carry the first
// response with a wrong value, enough to exceed the budget if they were
// admitted, so an engine that prunes in one path but not the other
// overflows at different events.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "selin/engine/frontier_engine.hpp"
#include "selin/selin.hpp"
#include "test_util.hpp"

namespace selin {
namespace {

using test::OpFactory;
using test::corrupt_response;

// ---- the reference ---------------------------------------------------------

class ReferenceFrontier {
 public:
  explicit ReferenceFrontier(const SeqSpec& spec) {
    frontier_.push_back(Node{spec.initial(), {}});
  }

  void feed(const Event& e) {
    if (!ok_) return;
    if (e.is_inv()) {
      open_.push_back(e.op);
      return;
    }
    // Full closure under every open op: no incremental seeds, no pruning.
    std::vector<Node> all;
    std::set<std::string> seen;
    for (Node& n : frontier_) {
      if (seen.insert(key(n)).second) all.push_back(std::move(n));
    }
    for (size_t i = 0; i < all.size(); ++i) {
      for (const OpDesc& od : open_) {
        if (all[i].lin.count(od.id.packed()) != 0) continue;
        Node next{all[i].state->clone(), all[i].lin};
        next.lin[od.id.packed()] = next.state->step(od.method, od.arg);
        if (seen.insert(key(next)).second) all.push_back(std::move(next));
      }
    }
    // Filter on the observed response.
    frontier_.clear();
    seen.clear();
    for (Node& n : all) {
      auto it = n.lin.find(e.op.id.packed());
      if (it == n.lin.end() || it->second != e.result) continue;
      n.lin.erase(it);
      if (seen.insert(key(n)).second) frontier_.push_back(std::move(n));
    }
    open_.erase(std::find_if(open_.begin(), open_.end(), [&](const OpDesc& o) {
      return o.id == e.op.id;
    }));
    ok_ = !frontier_.empty();
  }

  bool ok() const { return ok_; }
  size_t frontier_size() const { return frontier_.size(); }

 private:
  struct Node {
    std::unique_ptr<SeqState> state;
    std::map<uint64_t, Value> lin;  // packed op id -> assigned value
  };

  static std::string key(const Node& n) {
    std::ostringstream os;
    os << n.state->encode() << "|";
    for (const auto& [id, v] : n.lin) os << id << "=" << v << ";";
    return os.str();
  }

  std::vector<Node> frontier_;
  std::vector<OpDesc> open_;
  bool ok_ = true;
};

// ---- histories -------------------------------------------------------------

// Bursty window history on `procs` processes: a burst of invocations, then a
// run of consecutive responses, repeated; each op linearizes at a random
// point of its window, so the history is linearizable by construction.
History window_history(ObjectKind kind, size_t procs, size_t ops,
                       uint64_t seed) {
  Rng rng(seed);
  auto spec = make_spec(kind);
  auto state = spec->initial();
  struct Pending {
    OpDesc op;
    std::optional<Value> result;  // set once linearized
  };
  std::vector<std::optional<Pending>> pend(procs);
  OpFactory f;
  History h;
  size_t invoked = 0;
  auto linearize_some = [&](uint64_t num, uint64_t den) {
    for (auto& p : pend) {
      if (p && !p->result && rng.chance(num, den)) {
        p->result = state->step(p->op.method, p->op.arg);
      }
    }
  };
  for (;;) {
    std::vector<ProcId> idle, busy;
    for (ProcId p = 0; p < procs; ++p) (pend[p] ? busy : idle).push_back(p);
    if (busy.empty() && invoked == ops) break;
    // Burst: invoke 1..|idle| ops.
    const size_t burst = invoked == ops || idle.empty()
                             ? 0
                             : std::min<size_t>(1 + rng.below(idle.size()),
                                                ops - invoked);
    for (size_t i = 0; i < burst; ++i) {
      const size_t at = i + rng.below(idle.size() - i);
      std::swap(idle[i], idle[at]);
      auto [m, arg] = random_op(kind, rng);
      pend[idle[i]] = Pending{f.op(idle[i], m, arg), std::nullopt};
      h.push_back(Event::inv(pend[idle[i]]->op));
      ++invoked;
      linearize_some(1, 3);
    }
    // Run: respond 1..|pending| ops back to back.
    busy.clear();
    for (ProcId p = 0; p < procs; ++p) {
      if (pend[p]) busy.push_back(p);
    }
    const size_t run = 1 + rng.below(busy.size());
    for (size_t i = 0; i < run; ++i) {
      const size_t at = i + rng.below(busy.size() - i);
      std::swap(busy[i], busy[at]);
      linearize_some(1, 2);
      Pending& pd = *pend[busy[i]];
      if (!pd.result) pd.result = state->step(pd.op.method, pd.op.arg);
      h.push_back(Event::res(pd.op, *pd.result));
      pend[busy[i]].reset();
    }
  }
  return h;
}

constexpr ObjectKind kAllKinds[] = {
    ObjectKind::kQueue,   ObjectKind::kStack,    ObjectKind::kSet,
    ObjectKind::kPqueue,  ObjectKind::kCounter,  ObjectKind::kRegister,
    ObjectKind::kConsensus,
};

// Feeds `h` to the reference per event and to a LinMonitor in chunks of
// `chunk` events, comparing size and verdict at every chunk boundary.
void expect_matches_reference(const SeqSpec& spec, const History& h,
                              size_t chunk, const std::string& what) {
  ReferenceFrontier ref(spec);
  LinMonitor mon(spec);
  for (size_t at = 0; at < h.size(); at += chunk) {
    const size_t n = std::min(chunk, h.size() - at);
    mon.feed_batch({h.data() + at, n});
    for (size_t i = at; i < at + n; ++i) ref.feed(h[i]);
    ASSERT_EQ(mon.ok(), ref.ok()) << what << " chunk " << chunk << " @" << at;
    if (!ref.ok()) return;
    ASSERT_EQ(mon.frontier_size(), ref.frontier_size())
        << what << " chunk " << chunk << " @" << at;
  }
}

TEST(ClosureReference, WindowHistoriesMatchPerEventAndChunked) {
  size_t rejected = 0;
  for (ObjectKind kind : kAllKinds) {
    auto spec = make_spec(kind);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const size_t procs = 3 + seed % 2;
      History h = window_history(kind, procs, 48, seed * 101);
      History bad = h;
      corrupt_response(bad, seed * 7);
      for (const History* hist : {&h, &bad}) {
        const std::string what = std::string(object_kind_name(kind)) +
                                 " seed " + std::to_string(seed) +
                                 (hist == &bad ? " corrupted" : "");
        for (size_t chunk : {size_t{1}, size_t{3}, size_t{8}, hist->size()}) {
          expect_matches_reference(*spec, *hist, chunk, what);
        }
        ReferenceFrontier ref(*spec);
        for (const Event& e : *hist) ref.feed(e);
        if (!ref.ok()) ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u);  // both verdicts are exercised
}

// ---- overflow point under pruning ------------------------------------------

// Counter increments on `procs` processes: round 1 invokes one Inc on each,
// then every round responds the lowest-numbered open op with the next count
// and re-invokes on that process (round 3 first adds one more process).
// With k Incs open the full closure holds sum_j k!/(k-j)! configurations;
// the ones that assign the responded op any value but the next count are
// pruned.  For k = 7 that is 13,700 in full and 3,914 pruned.
History overflow_history(size_t procs) {
  OpFactory f;
  History h;
  std::vector<OpDesc> open;
  for (ProcId p = 0; p < procs; ++p) {
    open.push_back(f.op(p, Method::kInc));
    h.push_back(Event::inv(open.back()));
  }
  for (Value count = 1; count <= 3; ++count) {
    const OpDesc done = open.front();
    open.erase(open.begin());
    h.push_back(Event::res(done, count));
    if (count == 2) {  // widen: one more process joins
      open.push_back(f.op(static_cast<ProcId>(procs), Method::kInc));
      h.push_back(Event::inv(open.back()));
    }
    open.push_back(f.op(done.id.pid, Method::kInc));
    h.push_back(Event::inv(open.back()));
  }
  return h;
}

// Index of the event whose feed overflowed, or h.size() if none did.
size_t overflow_index(const SeqSpec& spec, const History& h, size_t budget,
                      size_t threads) {
  LinMonitor mon(spec, budget, threads);
  for (size_t i = 0; i < h.size(); ++i) {
    try {
      mon.feed(h[i]);
    } catch (const CheckerOverflow&) {
      EXPECT_TRUE(mon.overflowed());
      return i;
    }
    EXPECT_TRUE(mon.ok()) << "threads " << threads << " @" << i;
  }
  return h.size();
}

TEST(ClosureReference, OverflowPointIdenticalAcrossThreadsUnderPruning) {
  auto spec = make_spec(ObjectKind::kCounter);
  const History h = overflow_history(7);
  // Responses sit at indices 7 (k = 7 open), 9 (k = 7) and 12 (k = 8).
  // Unpruned, rounds 1 and 2 hold 13,700 configurations each.  Pruned,
  // round 1 holds 3,914 and round 2 holds 5,219: the same 3,914 plus the
  // 1,305 seeds that hold the responded op with a wrong value, which stay
  // in the closure unexpanded.  Both fit the budget only pruned.  Round 3
  // exceeds it even pruned (28,705).  Round 2 starts from a 1,957-wide
  // frontier, so the adaptive engine runs it sharded too.
  ASSERT_TRUE(h[7].is_res());
  ASSERT_TRUE(h[9].is_res());
  ASSERT_TRUE(h[12].is_res());
  const size_t budget = 6000;
  const size_t seq = overflow_index(*spec, h, budget, 1);
  EXPECT_EQ(seq, 12u);
  EXPECT_EQ(overflow_index(*spec, h, budget, 2), seq);
  EXPECT_EQ(overflow_index(*spec, h, budget, engine::auto_threads(2)), seq);
}

}  // namespace
}  // namespace selin
