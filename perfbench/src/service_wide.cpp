// service_wide — many saturated sessions with wide frontiers through an
// in-process service::MonitorService (library defaults, observe off,
// lanes = 2).
//
// Why this workload: it puts `engine` (frontiers of a few hundred
// configurations, real dedup traffic) and `parallel` (the executor running
// independent sessions' batches side by side) to work while bypassing `net`
// and `obs`, so a change there shows here and nowhere else.  It is the
// service layer used the other way round from wire_paced: 32 saturated
// sessions instead of 4 paced ones, wide frontiers instead of O(1) ones.
// Each session has 4 processes with up to 4 operations open at once; kinds
// rotate through counter, register, set and pqueue (random queue and stack
// windows overflow the exploration budget within ~1k events, so they are
// left out).  One producer thread publishes 256-event batches round-robin
// with try_publish, skipping full inboxes and yielding only when every
// inbox is full; the controller thread loops drain_round.  No sleeps in the
// timed loop: the work is bounded by the checker, not by a pace.  Every 8th
// session ends with a corrupt width-1 response.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "selin/lincheck/checker.hpp"
#include "selin/service/monitor_service.hpp"

namespace pb {
namespace {

struct SvcShape {
  size_t slots = 32;
  size_t lanes = 2;
  size_t procs = 4;
  size_t window = 4;
  size_t batch = 256;
  size_t session_events = 2048;
  size_t corrupt_every = 8;
  size_t pool = 512;  // distinct session streams, cycled
  size_t setups = 51;
};

SvcShape shape(const RunArgs& a) {
  SvcShape s;
  if (a.smoke) {
    s.slots = 8;
    s.session_events = 1024;
    s.pool = 32;
    s.setups = 3;
  }
  return s;
}

// ServiceOptions' default drain quantum, which bounds how far first_bad can
// sit before the offending event.
const size_t kBatchLimit = service::ServiceOptions{}.batch_limit;

struct Stream {
  ObjectKind kind;
  bool corrupt;
  std::vector<Event> events;
};

std::vector<Stream> make_pool(const RunArgs& a, const SvcShape& s) {
  static constexpr ObjectKind kKinds[] = {
      ObjectKind::kCounter, ObjectKind::kRegister, ObjectKind::kSet,
      ObjectKind::kPqueue};
  std::vector<Stream> pool;
  for (size_t i = 0; i < s.pool; ++i) {
    const ObjectKind kind = kKinds[(i + i / s.corrupt_every) % 4];
    const bool corrupt = i % s.corrupt_every == s.corrupt_every - 1;
    Rng rng(sub_seed(a.seed, 2, i));
    pool.push_back({kind, corrupt,
                    window_stream(kind, s.procs, s.window, s.session_events,
                                  rng, corrupt)});
  }
  return pool;
}

/// One session slot, handed back and forth between the producer (state
/// kPublishing) and the controller (kPublished: every event is in).
struct alignas(64) Slot {
  enum State : int { kPublishing, kPublished };
  std::atomic<int> state{kPublishing};
  service::SessionId id = 0;
  service::Session* sess = nullptr;
  const Stream* st = nullptr;
  size_t pos = 0;
  uint64_t published_ns = 0;
  uint64_t next = 0;  // sessions this slot has opened
};

struct ProducerResult {
  Samples call_us{1 << 18};
  uint64_t attempts = 0;
  uint64_t rejects = 0;
};

void producer(std::vector<Slot>& slots, size_t batch,
              const std::atomic<bool>& stop, SpanLog* spans,
              ProducerResult& out) {
  std::vector<Span>* buf = spans != nullptr ? &spans->buffer() : nullptr;
  uint64_t id = 0;
  size_t rr = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    bool any = false;
    for (size_t i = 0; i < slots.size(); ++i) {
      Slot& sl = slots[(rr + i) % slots.size()];
      if (sl.state.load(std::memory_order_acquire) != Slot::kPublishing) {
        continue;
      }
      const size_t n = sl.st->events.size();
      const size_t len = std::min(batch, n - sl.pos);
      const uint64_t t1 = now_ns();
      const bool ok = sl.sess->try_publish({sl.st->events.data() + sl.pos, len});
      const uint64_t t2 = now_ns();
      ++out.attempts;
      if (!ok) {
        ++out.rejects;
        continue;
      }
      out.call_us.add(static_cast<double>(t2 - t1) / 1e3);
      span(buf, SpanName::kSvcPublish, SpanName::kNone, id++, t1, t2);
      any = true;
      sl.pos += len;
      if (sl.pos == n) {
        sl.published_ns = t2;
        sl.state.store(Slot::kPublished, std::memory_order_release);
      }
    }
    rr = (rr + 1) % slots.size();
    if (!any) std::this_thread::yield();
  }
}

struct EngineTotals {
  size_t peak_frontier = 0;
  uint64_t probes = 0;
  uint64_t hits = 0;
  uint64_t events = 0;
  void add(const engine::EngineStats& st) {
    peak_frontier = std::max(peak_frontier, st.peak_frontier);
    probes += st.dedup_probes;
    hits += st.dedup_hits;
    events += st.events_fed;
  }
};

}  // namespace

PassResult run_service_wide(const RunArgs& a, Tally& t, SpanLog* spans) {
  const SvcShape s = shape(a);
  const std::vector<Stream> pool = make_pool(a, s);
  ProducerResult prod;
  std::vector<double> verdict_ms;
  verdict_ms.reserve(1 << 16);
  std::vector<Span>* buf = spans != nullptr ? &spans->buffer() : nullptr;

  service::ServiceOptions so;
  so.lanes = s.lanes;
  std::unique_ptr<service::MonitorService> svc;
  std::vector<Slot> slots(s.slots);
  const auto open_next = [&](size_t i) {
    Slot& sl = slots[i];
    sl.st = &pool[(sl.next++ * s.slots + i) % pool.size()];
    sl.id = svc->open("s" + std::to_string(i), make_spec(sl.st->kind));
    sl.sess = &svc->session(sl.id);
    sl.pos = 0;
  };

  // Set-up: the service and its 32 open sessions, ready for the first
  // publish (its executor lanes start with the first round).
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const uint64_t t_start = now_ns();
    svc = std::make_unique<service::MonitorService>(so);
    for (size_t i = 0; i < s.slots; ++i) open_next(i);
    setup_s.push_back(static_cast<double>(now_ns() - t_start) / 1e9);
  };
  HeapSampler heap;
  set_up();

  std::atomic<bool> stop{false};
  EngineTotals eng;
  uint64_t rounds = 0, busy_rounds = 0, serviced_sum = 0, busy_ns = 0,
           round_ns = 0;
  uint64_t verified = 0, sessions = 0, rejected = 0;

  const uint64_t t0 = now_ns();
  const uint64_t t_end = t0 + static_cast<uint64_t>(a.seconds * 1e9);
  std::thread prod_thread(producer, std::ref(slots), s.batch, std::cref(stop),
                          spans, std::ref(prod));
  uint64_t t_stop = t0;
  for (;;) {
    const uint64_t tr = now_ns();
    const size_t serviced = svc->drain_round();
    const uint64_t te = now_ns();
    span(buf, SpanName::kSvcRound, SpanName::kNone, rounds, tr, te);
    ++rounds;
    serviced_sum += serviced;
    round_ns += te - tr;
    if (serviced > 0) {
      busy_ns += te - tr;
      ++busy_rounds;
    }
    for (size_t i = 0; i < slots.size(); ++i) {
      Slot& sl = slots[i];
      if (sl.state.load(std::memory_order_acquire) != Slot::kPublished ||
          sl.sess->backlog() != 0) {
        continue;
      }
      // Every event is in and drained: the verdict is settled.
      const size_t n = sl.st->events.size();
      const service::Session::Status st = sl.sess->status();
      const size_t bad = n - 1;
      const bool good =
          sl.st->corrupt
              ? st == service::Session::Status::kRejected &&
                    sl.sess->first_bad_index() <= bad &&
                    bad - sl.sess->first_bad_index() < kBatchLimit
              : st == service::Session::Status::kOk &&
                    sl.sess->events_fed() == n;
      t.attempt(n);
      if (good) {
        verdict_ms.push_back(static_cast<double>(te - sl.published_ns) / 1e6);
        verified += n;
        rejected += sl.st->corrupt ? 1 : 0;
      } else {
        t.fail(n, "service session " + std::to_string(sl.id) + " kind " +
                      object_kind_name(sl.st->kind) + " status " +
                      std::to_string(int(st)) + " fed " +
                      std::to_string(sl.sess->events_fed()) + " first_bad " +
                      std::to_string(sl.sess->first_bad_index()));
      }
      ++sessions;
      eng.add(sl.sess->stats());
      const uint64_t tc = now_ns();
      const service::SessionId closed = sl.id;
      svc->close(closed);
      const uint64_t to = now_ns();
      open_next(i);
      span(buf, SpanName::kSvcClose, SpanName::kNone, closed, tc, to);
      span(buf, SpanName::kSvcOpen, SpanName::kNone, sl.id, to, now_ns());
      sl.state.store(Slot::kPublishing, std::memory_order_release);
    }
    t_stop = now_ns();
    if (t_stop >= t_end) break;
  }
  // Sessions still open hold a fed prefix of a linearizable stream: each
  // fed event is verified, and anything but kOk is a wrong verdict (the
  // corrupt response is always a session's last event).
  for (Slot& sl : slots) {
    const size_t fed = sl.sess->events_fed();
    t.attempt(fed);
    if (sl.sess->status() == service::Session::Status::kOk) {
      verified += fed;
    } else if (!(sl.st->corrupt &&
                 sl.state.load(std::memory_order_acquire) ==
                     Slot::kPublished &&
                 sl.sess->status() == service::Session::Status::kRejected)) {
      t.fail(fed, "open service session " + std::to_string(sl.id) +
                      " not ok on a linearizable prefix");
    }
  }
  stop.store(true);
  prod_thread.join();
  for (Slot& sl : slots) eng.add(sl.sess->stats());
  const double heap_mb = heap.p90_growth_mb();
  svc.reset();
  // More set-up samples, on each CPU in turn: the vCPUs run at different
  // speeds, so one CPU's set-up time says little about the next run's.
  for (size_t r = 1; r < s.setups; ++r) {
    OnCpu pin(r);
    for (Slot& sl : slots) sl.next = 0;
    set_up();
    svc.reset();
  }
  if (sessions == 0 || rejected == 0) {
    t.broken("service_wide: no session (or no corrupt session) completed");
  }

  PassResult r;
  const double elapsed = static_cast<double>(t_stop - t0) / 1e9;
  const double rate = static_cast<double>(verified) / elapsed;
  r.e2e.put("verified_per_s", rate, "1/s");
  std::vector<double> calls = prod.call_us.values();
  r.e2e.put("call_p50_us", percentile(calls, 0.5), "us");
  r.e2e.put("call_p90_us", percentile(calls, 0.9), "us");
  r.e2e.put("verdict_p50_ms", percentile(verdict_ms, 0.5), "ms");
  r.e2e.put("setup_s", median(setup_s), "s");
  r.e2e.put("heap_p90_mb", heap_mb, "MB");

  r.layer.put("engine.peak_frontier", static_cast<double>(eng.peak_frontier),
              "count");
  r.layer.put("engine.dedup_probes_per_event",
              eng.events == 0 ? 0.0
                              : static_cast<double>(eng.probes) /
                                    static_cast<double>(eng.events),
              "ratio");
  r.layer.put("engine.dedup_hit_rate",
              eng.probes == 0 ? 0.0
                              : static_cast<double>(eng.hits) /
                                    static_cast<double>(eng.probes),
              "ratio");
  r.layer.put("service.sessions_per_round",
              busy_rounds == 0 ? 0.0
                               : static_cast<double>(serviced_sum) /
                                     static_cast<double>(busy_rounds),
              "count");
  r.layer.put("service.publish_reject_frac",
              prod.attempts == 0 ? 0.0
                                 : static_cast<double>(prod.rejects) /
                                       static_cast<double>(prod.attempts),
              "ratio");
  r.layer.put("service.busy_frac",
              static_cast<double>(busy_ns) / (elapsed * 1e9), "ratio");
  r.layer.put("service.drain_ns_per_event",
              verified == 0 ? 0.0
                            : static_cast<double>(round_ns) /
                                  static_cast<double>(verified),
              "ns");
  if (spans != nullptr) {
    r.layer.put("self.service.try_publish_us",
                spans->mean_self_us(SpanName::kSvcPublish), "us");
    r.layer.put("self.service.drain_round_us",
                spans->mean_self_us(SpanName::kSvcRound), "us");
  }
  std::printf("service_wide: sessions=%llu rejected=%llu rounds=%llu "
              "publish_calls=%llu verdict_samples=%zu\n",
              static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(prod.call_us.seen()),
              verdict_ms.size());
  r.primary = rate;
  return r;
}

void replay_service_layers(const RunArgs& a, Tally& t, Metrics& out,
                           const Metrics& live) {
  const SvcShape s = shape(a);
  const std::vector<Stream> pool = make_pool(a, s);
  // engine: one LinMonitor per stream, single thread, 256-event batches.
  uint64_t ns = 0, events = 0;
  for (size_t i = 0; i < s.slots && i < pool.size(); ++i) {
    const Stream& st = pool[i];
    const auto spec = make_spec(st.kind);
    LinMonitor mon(*spec);
    const uint64_t t1 = now_ns();
    try {
      for (size_t at = 0; at < st.events.size() && mon.ok(); at += s.batch) {
        mon.feed_batch({st.events.data() + at,
                        std::min(s.batch, st.events.size() - at)});
      }
    } catch (const CheckerOverflow&) {
      t.fail(st.events.size(), "engine replay overflowed");
      continue;
    }
    ns += now_ns() - t1;
    events += mon.stats().events_fed;
    if (mon.ok() == st.corrupt) {
      t.fail(st.events.size(), "engine replay verdict wrong");
    }
  }
  const double feed_ns = static_cast<double>(ns) / static_cast<double>(events);
  out.put("engine.feed_ns_per_event", feed_ns, "ns");
  // parallel: how many lanes' worth of single-thread engine work the live
  // drain rounds got through per unit of wall time.
  double drain_ns = 0;
  for (const auto& m : live.items) {
    if (m.name == "service.drain_ns_per_event") drain_ns = m.value;
  }
  out.put("parallel.effective_lanes", drain_ns > 0 ? feed_ns / drain_ns : 0.0,
          "ratio");
}

}  // namespace pb
