// wire_paced — the live ingest path end to end: client frames over a Unix
// socket into an in-process net::IngestServer (selin_ingestd's shipped
// defaults: observe on, batch_limit 512, inbox 16384; lanes = 1), verdicts
// back out.
//
// Why this workload: it drives `net` and `service` (and `obs`, which the
// daemon turns on) at a realistic rate while leaving `engine` light.  The
// load is an open loop paced *below* capacity — a fixed 1,000,000 events/s
// over 4 connections in 64-event frames — because the saturated wire path is
// bound by kThrottle retries (each waits a 200 µs hint), which measures the
// backoff rule rather than the program.  Each connection cycles through
// fresh 8,192-event sessions (connect, hello, stream, bye) whose kinds
// rotate through queue, stack, set and counter in the soak's width-2
// mutator∥consumer shape, so frontiers stay O(1); every 10th session ends
// with a corrupt width-1 response, so the rejecting verdict path is timed
// too.  Latency is taken from each frame's *due* time, so a stall is charged
// to every frame it delays.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "selin/net/ingest_client.hpp"
#include "selin/net/ingest_server.hpp"
#include "selin/net/wire.hpp"
#include "selin/service/monitor_service.hpp"

namespace pb {
namespace {

struct WireShape {
  size_t conns = 4;
  double rate = 1e6;  // offered events/s over all connections
  size_t frame = 64;
  size_t session_events = 8192;
  size_t corrupt_every = 10;
  size_t pool = 40;  // distinct session streams, cycled
  size_t setups = 51;
};

WireShape shape(const RunArgs& a) {
  WireShape s;
  if (a.smoke) {
    s.session_events = 1024;
    s.pool = 20;
    s.setups = 3;
  }
  return s;
}

// The daemon's defaults (IngestOptions) for everything but lanes and path.
constexpr size_t kBatchLimit = 512;

struct Stream {
  ObjectKind kind;
  bool corrupt;
  std::vector<Event> events;
};

std::vector<Stream> make_pool(const RunArgs& a, const WireShape& s) {
  static constexpr ObjectKind kKinds[] = {ObjectKind::kQueue,
                                          ObjectKind::kStack, ObjectKind::kSet,
                                          ObjectKind::kCounter};
  std::vector<Stream> pool;
  for (size_t i = 0; i < s.pool; ++i) {
    // Rotating the kind by i / corrupt_every spreads the corrupt sessions
    // over every kind.
    const ObjectKind kind = kKinds[(i + i / s.corrupt_every) % 4];
    const bool corrupt = i % s.corrupt_every == s.corrupt_every - 1;
    Rng rng(sub_seed(a.seed, 1, i));
    pool.push_back({kind, corrupt,
                    width2_stream(kind, s.session_events, rng, corrupt)});
  }
  return pool;
}

std::string sock_path() {
  return ".bench_build/pb" + std::to_string(::getpid()) + ".sock";
}

/// An IngestServer with its reactor thread.
class LiveServer {
 public:
  explicit LiveServer(const std::string& path) {
    net::IngestOptions o;
    o.uds_path = path;
    o.lanes = 1;
    srv_ = std::make_unique<net::IngestServer>(o);
  }
  ~LiveServer() {
    srv_->stop();
    if (reactor_.joinable()) reactor_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  bool start(std::string* err) {
    if (!srv_->start(err)) return false;
    reactor_ = std::thread([this] { srv_->run(); });
    return true;
  }
  net::IngestServer& server() { return *srv_; }

 private:
  std::unique_ptr<net::IngestServer> srv_;
  std::thread reactor_;
};

/// The verdict gates of one session: an intact stream must come back ok
/// with every event fed; a corrupt one rejected, with first_bad inside the
/// drained batch that held the corrupt (final) response.
bool verdict_ok(net::WireStatus st, uint64_t fed, uint64_t first_bad, size_t n,
                bool corrupt, size_t batch_limit, std::string* why) {
  if (!corrupt) {
    if (st == net::WireStatus::kOk && fed == n) return true;
    *why = "intact session: status " + std::to_string(int(st)) +
           " events_fed " + std::to_string(fed) + " of " + std::to_string(n);
    return false;
  }
  const uint64_t bad = n - 1;
  if (st == net::WireStatus::kRejected && first_bad <= bad &&
      bad - first_bad < batch_limit) {
    return true;
  }
  *why = "corrupt session: status " + std::to_string(int(st)) +
         " first_bad " + std::to_string(first_bad) + " for offense at " +
         std::to_string(bad);
  return false;
}

struct ConnResult {
  explicit ConnResult(size_t frames) : call_us(frames), late_us(frames) {
    verdict_ms.reserve(frames);
  }
  Samples call_us, late_us;
  std::vector<double> verdict_ms;
  uint64_t events_verified = 0;
  uint64_t events_acked = 0;
  uint64_t frames = 0;
  uint64_t sessions = 0;
  uint64_t rejected = 0;
  uint64_t last_ns = 0;
};

/// One connection's open-loop generator.  It gets ready (timer slack, span
/// buffer) before the heap baseline is taken, then waits for the first due
/// time; 0 means the run was called off.
void generator(size_t c, const WireShape& s, const std::vector<Stream>& pool,
               const std::string& path, double seconds, std::latch& ready,
               std::shared_future<uint64_t> go, Tally& t, SpanLog* spans,
               ConnResult& out) {
  min_timer_slack();
  std::vector<Span>* buf = spans != nullptr ? &spans->buffer() : nullptr;
  ready.count_down();
  const uint64_t t0 = go.get();
  if (t0 == 0) return;
  const uint64_t t_end = t0 + static_cast<uint64_t>(seconds * 1e9);
  const auto interval = static_cast<uint64_t>(
      1e9 * static_cast<double>(s.frame * s.conns) / s.rate);
  // Stagger the connections evenly inside one frame interval.
  const uint64_t start = t0 + c * interval / s.conns;
  const uint64_t frames_per_session = s.session_events / s.frame;
  uint64_t k = 0;  // frame slot on this connection's schedule
  for (uint64_t j = 0; start + k * interval < t_end; ++j) {
    const Stream& st = pool[(j * s.conns + c) % pool.size()];
    const size_t n = st.events.size();
    const uint64_t sid = (uint64_t{c} << 56) | (uint64_t{1} << 48) | j;
    t.attempt(n);
    const uint64_t ts = now_ns();
    net::IngestClient cl;
    std::string err;
    bool ok = cl.connect_uds(path, &err);
    const uint64_t tc = now_ns();
    span(buf, SpanName::kWireConnect, SpanName::kWireSession, sid, ts, tc);
    ok = ok && cl.hello(static_cast<uint8_t>(st.kind), "pb", nullptr, &err);
    const uint64_t th = now_ns();
    span(buf, SpanName::kWireHello, SpanName::kWireSession, sid, tc, th);
    if (!ok) {
      t.fail(n, "connect/hello: " + err);
      k += frames_per_session;  // the session's slots pass unused
      continue;
    }
    for (size_t at = 0; at < n; at += s.frame, ++k) {
      const uint64_t due = start + k * interval;
      if (now_ns() < due) sleep_until_ns(due);
      const uint64_t t_send = now_ns();
      ok = cl.send_events({st.events.data() + at, std::min(s.frame, n - at)},
                          &err);
      const uint64_t t_ack = now_ns();
      if (!ok) break;
      out.call_us.add(static_cast<double>(t_ack - due) / 1e3);
      out.late_us.add(static_cast<double>(t_send - due) / 1e3);
      out.events_acked += std::min(s.frame, n - at);
      ++out.frames;
      const uint64_t fid = (uint64_t{c} << 56) | k;
      span(buf, SpanName::kWireFrame, SpanName::kNone, fid, due, t_ack);
      span(buf, SpanName::kWireLate, SpanName::kWireFrame, fid, due, t_send);
      span(buf, SpanName::kWireSend, SpanName::kWireFrame, fid, t_send, t_ack);
    }
    if (!ok) {
      t.fail(n, "send_events: " + err);
      k = (j + 1) * frames_per_session;
      continue;
    }
    net::VerdictBody v;
    const uint64_t t_bye = now_ns();
    ok = cl.bye(&v, &err);
    const uint64_t t_verdict = now_ns();
    span(buf, SpanName::kWireBye, SpanName::kWireSession, sid, t_bye,
         t_verdict);
    span(buf, SpanName::kWireSession, SpanName::kNone, sid, ts, t_verdict);
    std::string why;
    if (!ok) {
      t.fail(n, "bye: " + err);
    } else if (!verdict_ok(v.status, v.events_fed, v.first_bad, n, st.corrupt,
                           kBatchLimit, &why)) {
      t.fail(n, why);
    } else {
      out.verdict_ms.push_back(static_cast<double>(t_verdict - t_bye) / 1e6);
      out.events_verified += n;
      out.rejected += st.corrupt ? 1 : 0;
    }
    ++out.sessions;
    out.last_ns = t_verdict;
  }
}

}  // namespace

PassResult run_wire_paced(const RunArgs& a, Tally& t, SpanLog* spans) {
  const WireShape s = shape(a);
  const std::vector<Stream> pool = make_pool(a, s);
  const std::string path = sock_path();
  // Sample storage for every frame slot of the run, allocated before the
  // heap baseline.
  const size_t slots =
      static_cast<size_t>(a.seconds * s.rate / static_cast<double>(s.frame *
                                                                   s.conns)) +
      1024;
  std::vector<ConnResult> res;
  for (size_t c = 0; c < s.conns; ++c) res.emplace_back(slots);
  std::latch ready(static_cast<std::ptrdiff_t>(s.conns));
  std::promise<uint64_t> go;
  const std::shared_future<uint64_t> go_f = go.get_future().share();
  std::vector<std::thread> gens;
  for (size_t c = 0; c < s.conns; ++c) {
    gens.emplace_back(generator, c, std::cref(s), std::cref(pool),
                      std::cref(path), a.seconds, std::ref(ready), go_f,
                      std::ref(t), spans, std::ref(res[c]));
  }
  ready.wait();

  // Set-up: construct the server, start it, and get a session's kHelloAck —
  // the point at which the first timed input would be accepted.
  std::vector<double> setup_s;
  const auto set_up = [&](std::unique_ptr<LiveServer>& srv,
                          const std::string& at, std::string* err) {
    const uint64_t t_start = now_ns();
    srv = std::make_unique<LiveServer>(at);
    net::IngestClient probe;
    if (!srv->start(err) || !probe.connect_uds(at, err) ||
        !probe.hello(static_cast<uint8_t>(ObjectKind::kQueue), "setup",
                     nullptr, err)) {
      return false;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t_start) / 1e9);
    net::VerdictBody v;
    return probe.bye(&v, err);
  };

  // The heap baseline: inputs generated, generator threads waiting.
  auto heap = std::make_unique<HeapSampler>();
  std::unique_ptr<LiveServer> live;
  if (std::string err; !set_up(live, path, &err)) {
    t.broken("server set-up: " + err);
    go.set_value(0);
    for (auto& g : gens) g.join();
    return {};
  }
  const uint64_t t0 = now_ns() + 2'000'000;  // first frame due in 2 ms
  go.set_value(t0);
  // More set-up samples while the timed phase runs, on a second socket,
  // spread evenly over the run and pinned to each CPU in turn: back to back
  // they all see one moment's CPU state (medians 105 vs 186 µs in two
  // runs), spread out they see the run's.
  const std::string setup_path = path + ".setup";
  const double gap_ns = a.seconds * 1e9 / static_cast<double>(s.setups);
  for (size_t i = 1; i < s.setups; ++i) {
    sleep_until_ns(t0 + static_cast<uint64_t>(gap_ns * static_cast<double>(i)));
    OnCpu pin(i);
    std::unique_ptr<LiveServer> srv;
    if (std::string err; !set_up(srv, setup_path, &err)) {
      t.broken("server set-up: " + err);
      break;
    }
  }
  for (auto& g : gens) g.join();
  const double heap_mb = heap->p90_growth_mb();
  heap.reset();
  const net::IngestServer::Totals tot = live->server().totals();
  live.reset();

  ConnResult all(0);
  std::vector<double> calls, lates;
  std::vector<std::vector<double>> conn_calls, conn_verdicts;
  for (auto& r : res) {
    conn_calls.push_back(r.call_us.values());
    conn_verdicts.push_back(r.verdict_ms);
    const auto l = r.late_us.values();
    calls.insert(calls.end(), conn_calls.back().begin(),
                 conn_calls.back().end());
    lates.insert(lates.end(), l.begin(), l.end());
    all.verdict_ms.insert(all.verdict_ms.end(), r.verdict_ms.begin(),
                          r.verdict_ms.end());
    all.events_verified += r.events_verified;
    all.events_acked += r.events_acked;
    all.frames += r.frames;
    all.sessions += r.sessions;
    all.rejected += r.rejected;
    all.last_ns = std::max(all.last_ns, r.last_ns);
  }
  if (tot.events != all.events_acked) {
    t.broken("server counted " + std::to_string(tot.events) +
             " events, clients had " + std::to_string(all.events_acked) +
             " acked");
  }
  if (tot.protocol_errors != 0) {
    t.broken(std::to_string(tot.protocol_errors) + " protocol errors");
  }
  if (all.sessions == 0 || all.rejected == 0) {
    t.broken("no session (or no corrupt session) completed");
  }

  PassResult r;
  const double elapsed = static_cast<double>(all.last_ns - t0) / 1e9;
  const double call_p50 = mean_of_percentiles(conn_calls, 0.5);
  const double call_p90 = mean_of_percentiles(conn_calls, 0.9);
  const double late_p50 = percentile(lates, 0.5);
  r.e2e.put("verified_per_s", static_cast<double>(all.events_verified) /
                                  elapsed, "1/s");
  r.e2e.put("call_p50_us", call_p50, "us");
  r.e2e.put("call_p90_us", call_p90, "us");
  r.e2e.put("verdict_p50_ms", mean_of_percentiles(conn_verdicts, 0.5), "ms");
  r.e2e.put("setup_s", median(setup_s), "s");
  r.e2e.put("heap_p90_mb", heap_mb, "MB");

  r.layer.put("gen.late_p50_us", late_p50, "us");
  r.layer.put("gen.late_p99_us", percentile(lates, 0.99), "us");
  r.layer.put("net.call_p99_us", percentile(calls, 0.99), "us");
  r.layer.put("net.call_p999_us", percentile(calls, 0.999), "us");
  r.layer.put("net.throttle_frac",
              tot.frames == 0 ? 0.0
                              : static_cast<double>(tot.throttles) /
                                    static_cast<double>(tot.frames),
              "ratio");
  const double slow = static_cast<double>(std::count_if(
      all.verdict_ms.begin(), all.verdict_ms.end(),
      [](double ms) { return ms >= 2.0; }));
  r.layer.put("net.verdict_tick_frac",
              all.verdict_ms.empty()
                  ? 0.0
                  : slow / static_cast<double>(all.verdict_ms.size()),
              "ratio");
  if (spans != nullptr) {
    r.layer.put("self.wire.send_events_us",
                spans->mean_self_us(SpanName::kWireSend), "us");
    r.layer.put("self.wire.connect_us",
                spans->mean_self_us(SpanName::kWireConnect), "us");
    r.layer.put("self.wire.hello_us",
                spans->mean_self_us(SpanName::kWireHello), "us");
    r.layer.put("self.wire.bye_us", spans->mean_self_us(SpanName::kWireBye),
                "us");
  }
  // Validity: when the generator itself ran late by a large share of the
  // latency it reports, the latency measures the generator, not the program.
  if (late_p50 > 0.5 * call_p50) {
    std::printf("FLAG wire_paced: generator lateness p50 %.1f us vs call p50 "
                "%.1f us -- the generator, not the program, set the latency\n",
                late_p50, call_p50);
  }
  std::printf("wire_paced: sessions=%llu rejected=%llu frames=%llu "
              "throttles=%llu call_samples=%zu verdict_samples=%zu\n",
              static_cast<unsigned long long>(all.sessions),
              static_cast<unsigned long long>(all.rejected),
              static_cast<unsigned long long>(all.frames),
              static_cast<unsigned long long>(tot.throttles),
              calls.size(), all.verdict_ms.size());
  r.primary = call_p50;
  r.primary_is_latency = true;
  return r;
}

namespace {

/// One replay of the pool's frames through a MonitorService configured as
/// the daemon configures its own: one frame published per session, then
/// one drain round, over `conns` concurrent sessions.  Returns total ns
/// spent in try_publish + drain_round.
struct ServiceReplay {
  uint64_t publish_ns = 0;
  uint64_t events = 0;
  std::vector<double> round_us;
};

ServiceReplay replay_service(const WireShape& s,
                             const std::vector<Stream>& pool, bool observe,
                             Tally& t) {
  service::ServiceOptions so;
  so.lanes = 1;
  so.batch_limit = kBatchLimit;
  so.observe = observe;
  service::MonitorService svc(so);
  struct Slot {
    const Stream* st = nullptr;
    service::SessionId id = 0;
    size_t pos = 0;
  };
  std::vector<Slot> slots(s.conns);
  size_t next = 0;
  const auto open_next = [&](Slot& sl) {
    sl.st = next < pool.size() ? &pool[next++] : nullptr;
    sl.pos = 0;
    if (sl.st != nullptr) sl.id = svc.open("replay", make_spec(sl.st->kind));
  };
  for (Slot& sl : slots) open_next(sl);
  ServiceReplay r;
  for (;;) {
    bool any = false;
    for (Slot& sl : slots) {
      if (sl.st == nullptr) continue;
      any = true;
      const size_t n = sl.st->events.size();
      if (sl.pos >= n) continue;
      const size_t len = std::min(s.frame, n - sl.pos);
      const uint64_t t_pub = now_ns();
      const bool ok =
          svc.session(sl.id).try_publish({sl.st->events.data() + sl.pos, len});
      r.publish_ns += now_ns() - t_pub;
      if (!ok) {
        t.broken("replay publish rejected below inbox capacity");
        return r;
      }
      sl.pos += len;
      r.events += len;
    }
    if (!any) break;
    const uint64_t t_round = now_ns();
    svc.drain_round();
    r.round_us.push_back(static_cast<double>(now_ns() - t_round) / 1e3);
    for (Slot& sl : slots) {
      if (sl.st == nullptr || sl.pos < sl.st->events.size()) continue;
      service::Session& sess = svc.session(sl.id);
      if (sess.backlog() != 0) continue;
      std::string why;
      if (!verdict_ok(static_cast<net::WireStatus>(sess.status()),
                      sess.events_fed(), sess.first_bad_index(),
                      sl.st->events.size(), sl.st->corrupt, kBatchLimit,
                      &why)) {
        t.fail(sl.st->events.size(), "replay: " + why);
      }
      svc.close(sl.id);
      open_next(sl);
    }
  }
  return r;
}

}  // namespace

void replay_wire_layers(const RunArgs& a, Tally& t, Metrics& out) {
  const WireShape s = shape(a);
  const std::vector<Stream> pool = make_pool(a, s);

  // net: peek_frame + decode_events over the run's frames.
  std::vector<uint8_t> wire;
  size_t total = 0;
  for (const Stream& st : pool) {
    uint32_t seq = 0;
    for (size_t at = 0; at < st.events.size(); at += s.frame) {
      const size_t len = std::min(s.frame, st.events.size() - at);
      net::append_events(wire, 1, seq++, {st.events.data() + at, len});
      total += len;
    }
  }
  std::vector<Event> batch;
  uint64_t decoded = 0;
  const uint64_t t_dec = now_ns();
  const uint64_t budget = a.smoke ? 20'000'000 : 300'000'000;
  do {
    for (size_t at = 0; at < wire.size();) {
      net::FrameView f;
      if (net::peek_frame({wire.data() + at, wire.size() - at}, f) !=
              net::DecodeStatus::kFrame ||
          !net::decode_events(f.body, batch)) {
        t.broken("replay: recorded frame failed to decode");
        return;
      }
      decoded += batch.size();
      at += f.frame_len;
    }
  } while (now_ns() - t_dec < budget);
  const uint64_t dec_ns = now_ns() - t_dec;
  if (decoded % total != 0) t.broken("replay: decoded event count mismatch");
  out.put("net.decode_ns_per_event",
          static_cast<double>(dec_ns) / static_cast<double>(decoded), "ns");

  // service + obs: the same frames through try_publish / drain_round, with
  // the obs plane on (the daemon's default) and off, alternated.
  std::vector<double> on_ns, off_ns, pub_ns_per_event, round_us;
  for (int rep = 0; rep < 3; ++rep) {
    for (const bool observe : {false, true}) {
      const uint64_t t_rep = now_ns();
      ServiceReplay r = replay_service(s, pool, observe, t);
      const double ns = static_cast<double>(now_ns() - t_rep);
      (observe ? on_ns : off_ns).push_back(ns);
      if (observe) {
        pub_ns_per_event.push_back(static_cast<double>(r.publish_ns) /
                                   static_cast<double>(r.events));
        round_us.push_back(percentile(r.round_us, 0.5));
      }
    }
  }
  out.put("service.publish_ns_per_event", median(pub_ns_per_event), "ns");
  out.put("service.drain_round_us_p50", median(round_us), "us");
  out.put("obs.overhead_frac", median(on_ns) / median(off_ns) - 1.0, "ratio");
}

}  // namespace pb
