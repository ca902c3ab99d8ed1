// enforced — the paper's own pipeline: self-enforced queues (Figure 11:
// A* -> publish to M -> test X(τ) ∈ O on every operation) with library
// defaults (double-collect snapshots, sequential checker, StepCounter on).
//
// Why this workload: it exercises `core`, `views` and `snapshot` and
// nothing else, so it moves only when the enforcement layers do.  Rounds of
// 32 SelfEnforced objects over make_ms_queue, 8 process slots each, are
// claimed by 4 worker threads from a shared counter; each object is driven
// by one thread at a time over a fixed round-robin of its slots with a
// seeded random_op script.  Free-running producers on one object make the
// checking work depend on the schedule (48.7k vs 8.1k verified ops/s across
// three identical runs), whereas this drive makes it a function of the seed
// alone, and dynamic claiming spreads the work over every vCPU.  Every 8th
// object wraps a seeded make_lossy_queue, so detection is timed too.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "selin/core/astar.hpp"
#include "selin/core/monitor_core.hpp"
#include "selin/core/self_enforced.hpp"
#include "selin/lincheck/monitor.hpp"

namespace pb {
namespace {

struct EnfShape {
  size_t objects = 32;  // per round
  size_t scripts = 256;  // distinct op scripts, taken in turn by the rounds
  size_t procs = 8;
  size_t ops = 512;     // per object
  size_t workers = 4;
  size_t lossy_every = 8;
  uint64_t lossy_num = 1, lossy_den = 16;  // enqueues the lossy queue drops
  size_t replay_objects = 8;
};

EnfShape shape(const RunArgs& a) {
  EnfShape s;
  if (a.smoke) {
    s.objects = 8;
    s.scripts = 16;
    s.ops = 256;
  }
  return s;
}

constexpr size_t kNone = static_cast<size_t>(-1);

struct Script {
  std::vector<std::pair<Method, Value>> ops;
  std::vector<Value> expected;  // the sequential spec's responses
  bool lossy = false;
  uint64_t lossy_seed = 0;
  /// First op whose response from the lossy queue, driven alone on the same
  /// schedule, leaves the spec's; kNone when no drop is ever observed.
  size_t diverge = kNone;
};

std::vector<Script> make_scripts(const RunArgs& a, const EnfShape& s) {
  std::vector<Script> out(s.scripts);
  for (size_t i = 0; i < s.scripts; ++i) {
    Script& sc = out[i];
    Rng rng(sub_seed(a.seed, 3, i));
    auto state = make_queue_spec()->initial();
    for (size_t k = 0; k < s.ops; ++k) {
      const auto op = random_op(ObjectKind::kQueue, rng);
      sc.ops.push_back(op);
      sc.expected.push_back(state->step(op.first, op.second));
    }
    sc.lossy = i % s.lossy_every == s.lossy_every - 1;
    sc.lossy_seed = sub_seed(a.seed, 4, i);
    if (sc.lossy) {
      // A* numbers process p's ops (p, 0), (p, 1), ...; the lossy queue's
      // drops are a function of the op id, so this replay sees the same ones.
      auto q = make_lossy_queue(s.lossy_num, s.lossy_den, sc.lossy_seed);
      for (size_t k = 0; k < s.ops && sc.diverge == kNone; ++k) {
        const auto p = static_cast<ProcId>(k % s.procs);
        const OpDesc d{{p, static_cast<uint32_t>(k / s.procs)}, sc.ops[k].first,
                       sc.ops[k].second};
        if (q->apply(p, d) != sc.expected[k]) sc.diverge = k;
      }
    }
  }
  return out;
}

/// One enforced object: SelfEnforced, or (traced) the same A* + M + check
/// composition with a span around each call.
struct Object {
  std::unique_ptr<IConcurrent> impl;
  std::unique_ptr<GenLinObject> spec;
  std::unique_ptr<SelfEnforced> se;
  std::unique_ptr<AStar> astar;
  std::unique_ptr<MonitorCore> core;
};

Object make_object(const EnfShape& s, const Script& sc, bool composed) {
  Object o;
  o.impl = sc.lossy ? make_lossy_queue(s.lossy_num, s.lossy_den, sc.lossy_seed)
                    : make_ms_queue();
  o.spec = make_linearizable_object(make_queue_spec());
  if (composed) {
    o.astar = std::make_unique<AStar>(s.procs, *o.impl);
    o.core = std::make_unique<MonitorCore>(s.procs, s.procs, *o.spec,
                                           MonitorCore::Options{});
  } else {
    o.se = std::make_unique<SelfEnforced>(s.procs, *o.impl, *o.spec);
  }
  return o;
}

/// Per-call timings of the composed pipeline.
struct CoreSamples {
  Samples astar_us{1 << 16, 11}, publish_us{1 << 16, 12}, check_us{1 << 16, 13};
  uint64_t check_ns = 0, apply_ns = 0;
};

struct Outcome {
  Value value;
  bool error;
  Value raw;  // A's own response (composed pipeline only)
};

/// Figure 11's Apply composed from the public calls exactly as
/// SelfEnforced::apply composes them.  Spans go to `buf` when non-null.
Outcome composed_apply(Object& o, ProcId p, Method m, Value arg,
                       std::vector<Span>* buf, uint64_t id, CoreSamples* cs) {
  const uint64_t t1 = now_ns();
  AStar::Result r = o.astar->apply(p, m, arg);
  const uint64_t t2 = now_ns();
  o.core->publish(p, r.op, r.y, std::move(r.view));
  const uint64_t t3 = now_ns();
  const bool ok = o.core->check(p);
  const uint64_t t4 = now_ns();
  span(buf, SpanName::kEnfApply, SpanName::kNone, id, t1, t4);
  span(buf, SpanName::kEnfAstar, SpanName::kEnfApply, id, t1, t2);
  span(buf, SpanName::kEnfPublish, SpanName::kEnfApply, id, t2, t3);
  span(buf, SpanName::kEnfCheck, SpanName::kEnfApply, id, t3, t4);
  if (cs != nullptr) {
    cs->astar_us.add(static_cast<double>(t2 - t1) / 1e3);
    cs->publish_us.add(static_cast<double>(t3 - t2) / 1e3);
    cs->check_us.add(static_cast<double>(t4 - t3) / 1e3);
    cs->check_ns += t4 - t3;
    cs->apply_ns += t4 - t1;
  }
  return {ok ? r.y : kError, !ok, r.y};
}

/// Outcome gates of one object's run.  Every non-ERROR answer is the
/// sequential spec's (the drive is sequential, so any other answer is a
/// violation let through).  ERROR is sticky, and appears only once the
/// implementation's answers have left the spec's: never on a correct
/// object, and on a lossy one not before its divergence but by the end.
class Gate {
 public:
  explicit Gate(const Script& sc) : sc_(sc) {}
  /// False on a wrong outcome for op k.
  bool step(size_t k, const Outcome& out) {
    if (!out.error) {
      return first_error_ == kNone && out.value == sc_.expected[k];
    }
    if (first_error_ == kNone) first_error_ = k;
    return sc_.diverge != kNone && k >= sc_.diverge;
  }
  /// False when a divergence went undetected.
  bool finish() const {
    return sc_.diverge == kNone || first_error_ != kNone;
  }
  size_t first_error() const { return first_error_; }

 private:
  const Script& sc_;
  size_t first_error_ = kNone;
};

struct WorkerResult {
  Samples call_us{1 << 18, 7};
  std::vector<double> object_ms;
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t objects = 0;
  uint64_t detected = 0;
  CoreSamples core;
};

}  // namespace

PassResult run_enforced(const RunArgs& a, Tally& t, SpanLog* spans) {
  const EnfShape s = shape(a);
  const std::vector<Script> scripts = make_scripts(a, s);
  const bool composed = spans != nullptr;
  std::vector<WorkerResult> res(s.workers);

  // Workers persist across rounds; a round starts when `gen` moves on and
  // ends when every worker has found the claim counter exhausted.
  struct Round {
    std::mutex mu;
    std::condition_variable cv;
    uint64_t gen = 0;
    size_t running = 0;
    bool quit = false;
    std::vector<Object>* objs = nullptr;
    size_t first = 0;  // script of the round's object 0
    uint64_t end_ns = 0;
    std::atomic<size_t> next{0};
  } round;
  const auto worker = [&](size_t w) {
    WorkerResult& wr = res[w];
    std::vector<Span>* buf = spans != nullptr ? &spans->buffer() : nullptr;
    for (uint64_t seen = 0;;) {
      {
        std::unique_lock<std::mutex> lk(round.mu);
        round.cv.wait(lk, [&] { return round.quit || round.gen != seen; });
        if (round.quit) return;
        seen = round.gen;
      }
      for (;;) {
        const size_t i = round.next.fetch_add(1);
        if (i >= round.objs->size() || now_ns() >= round.end_ns) break;
        const Script& sc = scripts[(round.first + i) % scripts.size()];
        Object& o = (*round.objs)[i];
        Gate gate(sc);
        const uint64_t t_obj = now_ns();
        uint64_t bad = 0;
        for (size_t k = 0; k < s.ops; ++k) {
          const auto p = static_cast<ProcId>(k % s.procs);
          const auto [m, arg] = sc.ops[k];
          Outcome out;
          const uint64_t t1 = now_ns();
          if (composed) {
            // Spans of every 7th op (so every process slot is sampled):
            // all of them would be ~100 bytes of trace per microsecond.
            out = composed_apply(o, p, m, arg, k % 7 == 0 ? buf : nullptr,
                                 (uint64_t{w} << 48) | wr.ops, &wr.core);
          } else {
            const SelfEnforced::Outcome so = o.se->apply(p, m, arg);
            out = {so.value, so.error, kNoArg};
          }
          const uint64_t t2 = now_ns();
          wr.call_us.add(static_cast<double>(t2 - t1) / 1e3);
          ++wr.ops;
          if (!gate.step(k, out)) ++bad;
        }
        wr.object_ms.push_back(static_cast<double>(now_ns() - t_obj) / 1e6);
        t.attempt(s.ops);
        if (!gate.finish()) ++bad;
        if (bad != 0) {
          t.fail(bad, "enforced object " + std::to_string(i) +
                          (sc.lossy ? " (lossy)" : "") + ": " +
                          std::to_string(bad) + " wrong outcomes");
        }
        if (gate.first_error() != kNone) {
          wr.errors += s.ops - gate.first_error();
          ++wr.detected;
        }
        ++wr.objects;
        o = Object{};  // release the object's history now
      }
      std::lock_guard<std::mutex> lk(round.mu);
      if (--round.running == 0) round.cv.notify_all();
    }
  };
  std::vector<std::thread> ws;
  for (size_t w = 0; w < s.workers; ++w) ws.emplace_back(worker, w);
  HeapSampler heap;

  std::vector<double> setup_s;
  const auto budget_ns = static_cast<uint64_t>(a.seconds * 1e9);
  uint64_t timed_ns = 0;
  for (size_t first = 0; timed_ns < budget_ns; first += s.objects) {
    // Set-up: the round's objects, constructed and ready for a first Apply
    // (on each CPU in turn, round by round).
    std::vector<Object> objs;
    objs.reserve(s.objects);
    {
      OnCpu pin(setup_s.size());
      const uint64_t t_setup = now_ns();
      for (size_t i = 0; i < s.objects; ++i) {
        objs.push_back(
            make_object(s, scripts[(first + i) % scripts.size()], composed));
      }
      setup_s.push_back(static_cast<double>(now_ns() - t_setup) / 1e9);
    }

    std::unique_lock<std::mutex> lk(round.mu);
    const uint64_t t_round = now_ns();
    round.objs = &objs;
    round.first = first;
    round.next.store(0);
    round.end_ns = t_round + (budget_ns - timed_ns);
    round.running = s.workers;
    ++round.gen;
    round.cv.notify_all();
    round.cv.wait(lk, [&] { return round.running == 0; });
    timed_ns += now_ns() - t_round;
  }
  {
    std::lock_guard<std::mutex> lk(round.mu);
    round.quit = true;
  }
  round.cv.notify_all();
  for (auto& th : ws) th.join();
  const double timed_s = static_cast<double>(timed_ns) / 1e9;
  const double heap_mb = heap.p90_growth_mb();

  std::vector<std::vector<double>> calls, object_ms;
  uint64_t ops = 0, errors = 0, objects_done = 0, lossy_detected = 0;
  std::vector<double> astar, publish, check;
  uint64_t check_ns = 0, apply_ns = 0;
  for (auto& wr : res) {
    calls.push_back(wr.call_us.values());
    object_ms.push_back(wr.object_ms);
    ops += wr.ops;
    errors += wr.errors;
    objects_done += wr.objects;
    lossy_detected += wr.detected;
    if (composed) {
      for (auto [from, to] : {std::pair{&wr.core.astar_us, &astar},
                              {&wr.core.publish_us, &publish},
                              {&wr.core.check_us, &check}}) {
        const auto vals = from->values();
        to->insert(to->end(), vals.begin(), vals.end());
      }
      check_ns += wr.core.check_ns;
      apply_ns += wr.core.apply_ns;
    }
  }
  if (objects_done == 0) t.broken("enforced: no object completed");

  PassResult r;
  const double rate = static_cast<double>(ops) / timed_s;
  r.e2e.put("verified_per_s", rate, "1/s");
  r.e2e.put("call_p50_us", mean_of_percentiles(calls, 0.5), "us");
  r.e2e.put("call_p90_us", mean_of_percentiles(calls, 0.9), "us");
  r.e2e.put("verdict_p50_ms", mean_of_percentiles(object_ms, 0.5), "ms");
  r.e2e.put("setup_s", median(setup_s), "s");
  r.e2e.put("heap_p90_mb", heap_mb, "MB");
  if (composed) {
    r.layer.put("core.astar_us_p50", percentile(astar, 0.5), "us");
    r.layer.put("core.publish_us_p50", percentile(publish, 0.5), "us");
    r.layer.put("core.check_us_p50", percentile(check, 0.5), "us");
    r.layer.put("core.check_share",
                apply_ns == 0 ? 0.0
                              : static_cast<double>(check_ns) /
                                    static_cast<double>(apply_ns),
                "ratio");
    r.layer.put("self.core.astar_apply_us",
                spans->mean_self_us(SpanName::kEnfAstar), "us");
    r.layer.put("self.core.publish_us",
                spans->mean_self_us(SpanName::kEnfPublish), "us");
    r.layer.put("self.core.check_us",
                spans->mean_self_us(SpanName::kEnfCheck), "us");
  }
  std::printf("enforced: objects=%llu lossy_detected=%llu ops=%llu "
              "error_ops=%llu rounds=%zu\n",
              static_cast<unsigned long long>(objects_done),
              static_cast<unsigned long long>(lossy_detected),
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(errors), setup_s.size());
  r.primary = rate;
  return r;
}

void replay_core_layers(const RunArgs& a, Tally& t, Metrics& out) {
  const EnfShape s = shape(a);
  const std::vector<Script> scripts = make_scripts(a, s);
  uint64_t probes = 0, ops = 0, lag_sum = 0, lag_n = 0;
  double bytes_per_op = 0;
  for (size_t i = 0; i < s.replay_objects && i < scripts.size(); ++i) {
    const Script& sc = scripts[i];
    // The composed pipeline must reach SelfEnforced's outcome on every op of
    // the same schedule.
    Object ref = make_object(s, sc, false);
    const size_t heap0 = ::mallinfo2().uordblks;
    Object comp = make_object(s, sc, true);
    size_t diverge = kNone, first_error = kNone;
    uint64_t mismatches = 0;
    Gate gate(sc);
    for (size_t k = 0; k < s.ops; ++k) {
      const auto p = static_cast<ProcId>(k % s.procs);
      const auto [m, arg] = sc.ops[k];
      const SelfEnforced::Outcome want = ref.se->apply(p, m, arg);
      const Outcome got = composed_apply(comp, p, m, arg, nullptr, 0, nullptr);
      if (got.value != want.value || got.error != want.error) ++mismatches;
      if (diverge == kNone && got.raw != sc.expected[k]) diverge = k;
      // Soundness and completeness of the composed pipeline itself.
      if (!gate.step(k, got)) ++mismatches;
      if (first_error == kNone && got.error) first_error = k;
    }
    if (i == 0) {
      // Heap retained by one object's history, per operation.
      bytes_per_op = static_cast<double>(::mallinfo2().uordblks - heap0) /
                     static_cast<double>(s.ops);
    }
    t.attempt(s.ops);
    if (!gate.finish() || diverge != sc.diverge) ++mismatches;
    if (mismatches != 0) {
      t.fail(mismatches, "composed pipeline: " + std::to_string(mismatches) +
                             " ops differ from SelfEnforced or the gates");
    }
    if (sc.lossy && diverge != kNone) {
      if (first_error == kNone || first_error < diverge) {
        t.fail(1, "lossy object: divergence at " + std::to_string(diverge) +
                      " but first ERROR at " +
                      (first_error == kNone ? std::string("none")
                                            : std::to_string(first_error)));
      } else {
        lag_sum += first_error - diverge;
        ++lag_n;
      }
    }
    probes += ref.se->stats().dedup_probes;
    ops += s.ops;
  }
  out.put("engine.dedup_probes_per_op",
          static_cast<double>(probes) / static_cast<double>(ops), "ratio");
  out.put("core.bytes_per_op", bytes_per_op, "B");
  out.put("core.detect_lag_ops",
          lag_n == 0 ? 0.0
                     : static_cast<double>(lag_sum) / static_cast<double>(lag_n),
          "count");
}

}  // namespace pb
