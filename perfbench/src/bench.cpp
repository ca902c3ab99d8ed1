#include "bench.hpp"

#include <malloc.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>
#include <unordered_map>

namespace pb {

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double mean_of_percentiles(std::vector<std::vector<double>>& per_thread,
                           double q) {
  double sum = 0;
  size_t n = 0;
  for (auto& v : per_thread) {
    if (v.empty()) continue;
    sum += percentile(v, q);
    ++n;
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

void Tally::fail(uint64_t items, const std::string& why) {
  failed_ += std::max<uint64_t>(items, 1);
  std::lock_guard<std::mutex> lock(mu_);
  if (logged_++ < 20) std::cerr << "FAIL: " << why << "\n";
}

void Tally::broken(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  broken_ = true;
  std::cerr << "FAIL (run): " << why << "\n";
}

// ---- spans ----------------------------------------------------------------

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kNone: return "";
    case SpanName::kWireFrame: return "wire.frame";
    case SpanName::kWireLate: return "wire.late";
    case SpanName::kWireSend: return "wire.send_events";
    case SpanName::kWireSession: return "wire.session";
    case SpanName::kWireConnect: return "wire.connect";
    case SpanName::kWireHello: return "wire.hello";
    case SpanName::kWireBye: return "wire.bye";
    case SpanName::kSvcPublish: return "service.try_publish";
    case SpanName::kSvcRound: return "service.drain_round";
    case SpanName::kSvcOpen: return "service.open";
    case SpanName::kSvcClose: return "service.close";
    case SpanName::kEnfApply: return "enforced.apply";
    case SpanName::kEnfAstar: return "core.astar_apply";
    case SpanName::kEnfPublish: return "core.publish";
    case SpanName::kEnfCheck: return "core.check";
  }
  return "?";
}

std::vector<Span>& SpanLog::buffer() {
  std::lock_guard<std::mutex> lock(mu_);
  bufs_.push_back(std::make_unique<std::vector<Span>>());
  bufs_.back()->reserve(1 << 16);
  return *bufs_.back();
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("name,parent,id,start_ns,end_ns\n", f);
  for (const auto& b : bufs_) {
    for (const Span& s : *b) {
      std::fprintf(f, "%s,%s,%llu,%llu,%llu\n", span_name(s.name),
                   span_name(s.parent),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.start_ns + s.dur_ns));
    }
  }
  return std::fclose(f) == 0;
}

double SpanLog::mean_self_us(SpanName name) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Child time per id of the spans whose parent is `name`.
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const auto& b : bufs_) {
    for (const Span& s : *b) {
      if (s.parent == name) child_ns[s.id] += s.dur_ns;
    }
  }
  double sum = 0;
  size_t n = 0;
  for (const auto& b : bufs_) {
    for (const Span& s : *b) {
      if (s.name != name) continue;
      const auto it = child_ns.find(s.id);
      const uint64_t kids = it == child_ns.end() ? 0 : it->second;
      sum += static_cast<double>(s.dur_ns > kids ? s.dur_ns - kids : 0);
      ++n;
    }
  }
  return n == 0 ? 0 : sum / static_cast<double>(n) / 1e3;
}

// ---- memory ---------------------------------------------------------------

size_t heap_bytes() {
  const struct mallinfo2 m = ::mallinfo2();
  return m.uordblks + m.hblkhd;
}

HeapSampler::HeapSampler() : levels_(kMaxSamples), base_(heap_bytes()) {
  poller_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const size_t h = heap_bytes();
      const size_t n = n_.load(std::memory_order_relaxed);
      if (n < levels_.size()) {
        levels_[n] = h > base_ ? static_cast<double>(h - base_) : 0.0;
        n_.store(n + 1, std::memory_order_release);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
}

HeapSampler::~HeapSampler() { stop(); }

void HeapSampler::stop() {
  stop_.store(true);
  if (poller_.joinable()) poller_.join();
}

double HeapSampler::p90_growth_mb() {
  stop();
  std::vector<double> v(levels_.begin(),
                        levels_.begin() + static_cast<std::ptrdiff_t>(
                                              n_.load(std::memory_order_acquire)));
  return percentile(v, 0.9) / (1024.0 * 1024.0);
}

OnCpu::OnCpu(size_t index) {
  if (::sched_getaffinity(0, sizeof old_, &old_) != 0) return;
  const int allowed = CPU_COUNT(&old_);
  if (allowed <= 1) return;
  int want = static_cast<int>(index % static_cast<size_t>(allowed));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &old_) || want-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

OnCpu::~OnCpu() {
  if (pinned_) ::sched_setaffinity(0, sizeof old_, &old_);
}

void min_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void sleep_until_ns(uint64_t t_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t_ns / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(t_ns % 1'000'000'000ULL);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// ---- inputs ---------------------------------------------------------------

uint64_t sub_seed(uint64_t seed, uint64_t family, uint64_t index) {
  Rng r(seed ^ (family * 0x9e3779b97f4a7c15ULL) ^
        (index * 0xc2b2ae3d27d4eb4fULL));
  return r.next();
}

namespace {

// The overlapped partner at width 2 is the kind's consuming / observing
// method: its own response resolves it, so the frontier stays O(1) (two
// overlapped producers with distinct values would carry ambiguous orders).
std::pair<Method, Value> partner_op(ObjectKind kind) {
  switch (kind) {
    case ObjectKind::kQueue: return {Method::kDequeue, kNoArg};
    case ObjectKind::kStack: return {Method::kPop, kNoArg};
    case ObjectKind::kSet: return {Method::kContains, 3};
    case ObjectKind::kPqueue: return {Method::kPqExtractMin, kNoArg};
    case ObjectKind::kCounter: return {Method::kCounterRead, kNoArg};
    case ObjectKind::kRegister: return {Method::kRead, kNoArg};
    case ObjectKind::kConsensus: return {Method::kDecide, 1};
  }
  return {Method::kRead, kNoArg};
}

}  // namespace

std::vector<Event> width2_stream(ObjectKind kind, size_t events, Rng& rng,
                                 bool corrupt) {
  std::vector<Event> out;
  out.reserve(events);
  auto state = make_spec(kind)->initial();
  uint32_t seq[2] = {0, 0};
  const size_t body = corrupt ? events - 2 : events;
  while (out.size() + 4 <= body) {
    const auto [am, aarg] = random_op(kind, rng);
    const auto [bm, barg] = partner_op(kind);
    const OpDesc a{{0, seq[0]++}, am, aarg};
    const OpDesc b{{1, seq[1]++}, bm, barg};
    const Value ra = state->step(a.method, a.arg);
    const Value rb = state->step(b.method, b.arg);
    out.push_back(Event::inv(a));
    out.push_back(Event::inv(b));
    out.push_back(Event::res(a, ra));
    out.push_back(Event::res(b, rb));
  }
  while (out.size() + 2 <= events) {
    const auto [m, arg] = random_op(kind, rng);
    const OpDesc a{{0, seq[0]++}, m, arg};
    const Value ra = state->step(a.method, a.arg);
    out.push_back(Event::inv(a));
    out.push_back(
        Event::res(a, corrupt && out.size() + 1 == events ? kCorruptValue
                                                          : ra));
  }
  return out;
}

std::vector<Event> window_stream(ObjectKind kind, size_t procs, size_t window,
                                 size_t events, Rng& rng, bool corrupt) {
  struct Open {
    OpDesc op;
    Value result;
  };
  std::vector<Event> out;
  out.reserve(events);
  auto state = make_spec(kind)->initial();
  std::vector<std::optional<Open>> open(procs);
  std::vector<uint32_t> seq(procs, 0);
  size_t n_open = 0;
  const size_t body = corrupt ? events - 2 : events;
  for (;;) {
    const auto p = static_cast<ProcId>(rng.below(procs));
    if (open[p].has_value()) {
      if (rng.chance(2, 3)) {
        out.push_back(Event::res(open[p]->op, open[p]->result));
        open[p].reset();
        --n_open;
      }
      continue;
    }
    if (n_open < window && out.size() + 2 * (n_open + 1) <= body) {
      const auto [m, arg] = random_op(kind, rng);
      const OpDesc d{{p, seq[p]++}, m, arg};
      out.push_back(Event::inv(d));
      open[p] = Open{d, state->step(m, arg)};  // linearized at invocation
      ++n_open;
    } else if (n_open == 0) {
      break;
    }
  }
  if (corrupt) {
    const auto [m, arg] = random_op(kind, rng);
    const OpDesc d{{0, seq[0]++}, m, arg};
    out.push_back(Event::inv(d));
    out.push_back(Event::res(d, kCorruptValue));
  }
  return out;
}

}  // namespace pb
