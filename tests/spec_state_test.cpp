// Contiguous sequential-spec states against node-based reference models.
//
// The queue, stack, set and priority-queue states keep their values in one
// vector so that the checkers' state pool recycles them without touching the
// allocator.  These tests pin that representation to the obvious container
// model — std::deque, std::vector, std::set, std::multiset — on seeded random
// op sequences: every step() result, every encode() string and every
// fingerprint() must equal what the model gives, so dedup outcomes and
// verdicts cannot depend on the representation.  A counting operator new
// checks that warm pool acquire + step + fingerprint allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <new>
#include <set>
#include <sstream>
#include <vector>

#include "selin/lincheck/config.hpp"
#include "selin/selin.hpp"
#include "selin/util/hash.hpp"

namespace {

std::atomic<size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace selin {
namespace {

// ---- reference models -------------------------------------------------------
//
// Each model holds the state in the obvious node-based container, knows the
// spec's encode/fingerprint tag, and draws random ops.  `grow`
// biases the draw toward ops that add values, so sequences sweep the state
// up to tens of values and back down to empty.

constexpr Value kMaxValue = 12;  // small domain: duplicates and hits happen

struct QueueModel {
  static constexpr char kTag = 'Q';
  static std::unique_ptr<SeqSpec> spec() { return make_queue_spec(); }
  std::deque<Value> items;

  static OpDesc draw(Rng& rng, bool grow) {
    OpDesc op;
    const bool add = rng.chance(grow ? 3 : 1, 4);
    op.method = add ? Method::kEnqueue : Method::kDequeue;
    op.arg = add ? rng.range(0, kMaxValue) : kNoArg;
    return op;
  }
  Value step(const OpDesc& op) {
    if (op.method == Method::kEnqueue) {
      items.push_back(op.arg);
      return kTrue;
    }
    if (items.empty()) return kEmpty;
    const Value v = items.front();
    items.pop_front();
    return v;
  }
};

struct StackModel {
  static constexpr char kTag = 'S';
  static std::unique_ptr<SeqSpec> spec() { return make_stack_spec(); }
  std::vector<Value> items;

  static OpDesc draw(Rng& rng, bool grow) {
    OpDesc op;
    const bool add = rng.chance(grow ? 3 : 1, 4);
    op.method = add ? Method::kPush : Method::kPop;
    op.arg = add ? rng.range(0, kMaxValue) : kNoArg;
    return op;
  }
  Value step(const OpDesc& op) {
    if (op.method == Method::kPush) {
      items.push_back(op.arg);
      return kTrue;
    }
    if (items.empty()) return kEmpty;
    const Value v = items.back();
    items.pop_back();
    return v;
  }
};

struct SetModel {
  static constexpr char kTag = 'T';
  static std::unique_ptr<SeqSpec> spec() { return make_set_spec(); }
  std::set<Value> items;

  static OpDesc draw(Rng& rng, bool grow) {
    OpDesc op;
    const uint64_t r = rng.below(8);
    op.method = r < (grow ? 5u : 1u) ? Method::kInsert
                : r < 6              ? Method::kRemove
                                     : Method::kContains;
    // A wider domain than the other models, so the set grows to tens of
    // values despite rejecting duplicates.
    op.arg = rng.range(0, 3 * kMaxValue);
    return op;
  }
  Value step(const OpDesc& op) {
    switch (op.method) {
      case Method::kInsert:
        return items.insert(op.arg).second ? kTrue : kFalse;
      case Method::kRemove:
        return items.erase(op.arg) != 0 ? kTrue : kFalse;
      default:
        return items.count(op.arg) != 0 ? kTrue : kFalse;
    }
  }
};

struct PqModel {
  static constexpr char kTag = 'P';
  static std::unique_ptr<SeqSpec> spec() { return make_pqueue_spec(); }
  std::multiset<Value> items;

  static OpDesc draw(Rng& rng, bool grow) {
    OpDesc op;
    const bool add = rng.chance(grow ? 3 : 1, 4);
    op.method = add ? Method::kPqInsert : Method::kPqExtractMin;
    op.arg = add ? rng.range(0, kMaxValue) : kNoArg;
    return op;
  }
  Value step(const OpDesc& op) {
    if (op.method == Method::kPqInsert) {
      items.insert(op.arg);
      return kTrue;
    }
    if (items.empty()) return kEmpty;
    const Value v = *items.begin();
    items.erase(items.begin());
    return v;
  }
};

template <typename Model>
std::string model_encode(const Model& m) {
  std::ostringstream os;
  os << Model::kTag;
  for (Value v : m.items) os << ":" << v;
  return os.str();
}

template <typename Model>
uint64_t model_fingerprint(const Model& m) {
  fph::Hasher h(Model::kTag);
  for (Value v : m.items) h.i64(v);
  return h.done();
}

template <typename Model>
void expect_same(const SeqState& s, const Model& m, const char* what) {
  EXPECT_EQ(s.encode(), model_encode(m)) << what;
  EXPECT_EQ(s.fingerprint(), model_fingerprint(m)) << what;
}

/// Steps state and model through `n` random ops; stops at the first
/// mismatch so a failure prints one op, not hundreds.
template <typename Model>
void run_ops(SeqState& s, Model& m, Rng& rng, size_t n, bool grow) {
  for (size_t i = 0; i < n; ++i) {
    const OpDesc op = Model::draw(rng, grow);
    const Value want = m.step(op);
    const Value got = s.step(op.method, op.arg);
    ASSERT_EQ(got, want) << "op " << i << " arg " << op.arg;
    ASSERT_EQ(s.encode(), model_encode(m)) << "op " << i;
    ASSERT_EQ(s.fingerprint(), model_fingerprint(m)) << "op " << i;
  }
}

/// A state and its model after `n` random ops from `seed`.
template <typename Model>
std::pair<std::unique_ptr<SeqState>, Model> build(uint64_t seed, size_t n,
                                                  bool grow) {
  Rng rng(seed);
  auto s = Model::spec()->initial();
  Model m;
  run_ops(*s, m, rng, n, grow);
  return {std::move(s), std::move(m)};
}

template <typename Model>
class SpecStateTest : public ::testing::Test {};

using Models = ::testing::Types<QueueModel, StackModel, SetModel, PqModel>;
TYPED_TEST_SUITE(SpecStateTest, Models);

// Alternating grow and shrink phases sweep each state from empty to tens of
// values and back, crossing the queue's compaction point many times.
TYPED_TEST(SpecStateTest, RandomOpsMatchReferenceModel) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    auto s = TypeParam::spec()->initial();
    TypeParam m;
    expect_same(*s, m, "initial");
    for (int phase = 0; phase < 6; ++phase) {
      run_ops(*s, m, rng, 20 + rng.below(60), phase % 2 == 0);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// assign_from overwrites a recycled state of any size with a copy of a
// source of any size — shrinking and growing — and both then evolve
// independently.
TYPED_TEST(SpecStateTest, AssignFromAcrossShrinkingAndGrowingSizes) {
  // Op counts chosen so consecutive sources alternate small and large.
  const size_t lengths[] = {0, 60, 3, 120, 1, 40, 0, 90, 7};
  auto dst = TypeParam::spec()->initial();
  uint64_t seed = 100;
  for (size_t n : lengths) {
    auto [src, model] = build<TypeParam>(++seed, n, /*grow=*/true);
    // Shrink-biased ops on the source first: a queue source then has a
    // consumed prefix that assign_from must not copy.
    Rng rng(seed * 7);
    run_ops(*src, model, rng, n / 3, /*grow=*/false);
    ASSERT_TRUE(dst->assign_from(*src));
    expect_same(*dst, model, "after assign_from");

    TypeParam dst_model = model;
    run_ops(*dst, dst_model, rng, 30, /*grow=*/seed % 2 == 0);
    expect_same(*src, model, "source unchanged by the copy's steps");
  }
  // A state of another spec is refused, not misread.
  auto foreign = make_counter_spec()->initial();
  EXPECT_FALSE(dst->assign_from(*foreign));
}

TYPED_TEST(SpecStateTest, CloneIsIndependent) {
  auto [s, model] = build<TypeParam>(7, 50, /*grow=*/true);
  Rng rng(8);
  run_ops(*s, model, rng, 15, /*grow=*/false);
  auto c = s->clone();
  expect_same(*c, model, "clone");

  TypeParam clone_model = model;
  Rng rng_c(9);
  run_ops(*c, clone_model, rng_c, 40, /*grow=*/false);
  expect_same(*s, model, "original unaffected by the clone's steps");
  Rng rng_s(10);
  run_ops(*s, model, rng_s, 40, /*grow=*/true);
  expect_same(*c, clone_model, "clone unaffected by the original's steps");
}

// The closure hot path — acquire a recycled state equal to a frontier state,
// step one candidate op, fingerprint, release — allocates nothing once the
// pooled states have grown to the working size.
TYPED_TEST(SpecStateTest, WarmPoolStepAndFingerprintAllocateNothing) {
  auto [src, model] = build<TypeParam>(31, 80, /*grow=*/true);
  Rng rng(32);
  std::vector<OpDesc> ops;
  for (int i = 0; i < 16; ++i) ops.push_back(TypeParam::draw(rng, i % 2 == 0));

  // What each candidate must fingerprint to: a fresh clone, stepped.
  std::vector<uint64_t> want;
  for (const OpDesc& op : ops) {
    auto c = src->clone();
    c->step(op.method, op.arg);
    want.push_back(c->fingerprint());
  }

  lincheck::StatePool pool;
  std::vector<std::unique_ptr<SeqState>> live;
  live.reserve(ops.size());
  std::vector<uint64_t> got(ops.size());
  auto round = [&] {
    for (size_t i = 0; i < ops.size(); ++i) {
      std::unique_ptr<SeqState> s = pool.acquire(*src);
      s->step(ops[i].method, ops[i].arg);
      got[i] = s->fingerprint();
      live.push_back(std::move(s));
    }
    for (auto& s : live) pool.release(std::move(s));
    live.clear();
  };
  round();  // cold: clones, pool slots, capacity growth
  round();

  const size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int r = 0; r < 50; ++r) round();
  const size_t allocated =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(got, want);
  EXPECT_GT(pool.recycled(), 0u);
}

}  // namespace
}  // namespace selin
