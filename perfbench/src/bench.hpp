// Shared harness of the selin end-to-end benchmark: clocks, sample
// statistics, the pass/fail tally, the in-memory span log, the heap sampler
// and the seeded stream generators.  Everything here sits *outside* the
// library: spans wrap calls into selin's public functions, never code
// inside them.
#pragma once

#include <sched.h>

#include <atomic>
#include <cstddef>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "selin/history/event.hpp"
#include "selin/sim/workload.hpp"
#include "selin/util/rng.hpp"

namespace pb {

using namespace selin;

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile (q in [0, 1]) of `v`, sorted in place.  0 for an
/// empty sample.
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// The q-percentile of each load thread's own samples, averaged over the
/// threads.  Each thread runs on one vCPU at a time and the vCPUs run at
/// different speeds, so a pooled median of their samples sits between two
/// speed modes and jumps with the share of ops the faster vCPUs did; the
/// mean of per-thread percentiles moves smoothly with the vCPU speeds.
double mean_of_percentiles(std::vector<std::vector<double>>& per_thread,
                           double q);

/// A latency sample of bounded size.  The storage is allocated up front, so
/// recording never grows the heap that heap_p90_mb measures; past `cap`
/// values it keeps a uniform reservoir sample.
class Samples {
 public:
  explicit Samples(size_t cap, uint64_t seed = 1) : v_(cap), rng_(seed) {}
  void add(double x) {
    if (n_ < v_.size()) {
      v_[n_++] = x;
    } else if (!v_.empty()) {
      const uint64_t j = rng_.below(seen_ + 1);
      if (j < v_.size()) v_[j] = x;
    }
    ++seen_;
  }
  /// Every value recorded so far (or the reservoir), in any order.
  std::vector<double> values() const {
    return {v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(n_)};
  }
  uint64_t seen() const { return seen_; }

 private:
  std::vector<double> v_;
  size_t n_ = 0;
  uint64_t seen_ = 0;
  Rng rng_;
};

/// Named metric values in insertion order; printed as the result's
/// "metrics" object.
struct Metrics {
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items;
  void put(std::string name, double value, std::string unit) {
    items.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Operations attempted and failed.  A failed operation is an item whose
/// verdict was wrong or missing (a refused connect, a protocol error, an
/// overflow, a mismatched outcome); every fail() counts at least one.
class Tally {
 public:
  void attempt(uint64_t items) { attempted_ += items; }
  void fail(uint64_t items, const std::string& why);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && !broken_; }
  /// A check on the run as a whole failed (not attributable to items).
  void broken(const std::string& why);

 private:
  std::mutex mu_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  bool broken_ = false;
  int logged_ = 0;
};

// ---- spans ----------------------------------------------------------------

/// Span names: one per public call the benchmark times, plus the roots that
/// group them.
enum class SpanName : uint8_t {
  kNone,         ///< "no parent"
  kWireFrame,    ///< root of one frame: due time -> kAck
  kWireLate,     ///< due time -> send start (generator lateness)
  kWireSend,     ///< IngestClient::send_events
  kWireSession,  ///< root of one session: connect -> final kVerdict
  kWireConnect,  ///< IngestClient::connect_uds
  kWireHello,    ///< IngestClient::hello
  kWireBye,      ///< IngestClient::bye (kBye -> final kVerdict)
  kSvcPublish,   ///< Session::try_publish (accepted)
  kSvcRound,     ///< MonitorService::drain_round
  kSvcOpen,      ///< MonitorService::open
  kSvcClose,     ///< MonitorService::close
  kEnfApply,     ///< root of one enforced op (Figure 11's Apply)
  kEnfAstar,     ///< AStar::apply
  kEnfPublish,   ///< MonitorCore::publish
  kEnfCheck,     ///< MonitorCore::check
};
const char* span_name(SpanName n);

/// One timed call.  Spans of one frame / batch / op share `id`; `parent`
/// names the enclosing span of the same id.
struct Span {
  uint64_t id;
  uint64_t start_ns;
  uint32_t dur_ns;
  SpanName name;
  SpanName parent;
};

/// Spans kept in memory per thread and written out once, at exit.
class SpanLog {
 public:
  /// A fresh buffer for one thread; the log owns it.
  std::vector<Span>& buffer();
  /// Writes "name,parent,id,start_ns,end_ns" lines.  False on I/O error.
  bool write(const std::string& path) const;
  /// Mean self time (duration minus the part covered by children) of the
  /// spans named `name`, in microseconds.
  double mean_self_us(SpanName name) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> bufs_;
};

/// Records [start, end) into `buf` when tracing is on.
inline void span(std::vector<Span>* buf, SpanName name, SpanName parent,
                 uint64_t id, uint64_t start, uint64_t end) {
  if (buf != nullptr) {
    buf->push_back({id, start, static_cast<uint32_t>(end - start), name,
                    parent});
  }
}

// ---- memory ---------------------------------------------------------------

/// Heap bytes the program holds: mallinfo2's in-use chunks plus mmapped
/// blocks.  Unlike the RSS it leaves out allocator arenas' slack and thread
/// stacks, which move a footprint of a few megabytes by as much again from
/// run to run.
size_t heap_bytes();

/// Samples heap_bytes() every 50 ms from a background thread: mallinfo2
/// walks every arena under its lock (0.25 ms on average, up to 8 ms on the
/// enforced workload's heap), stalling the program's allocations meanwhile.
/// p90_growth_mb() stops the sampling and reports the 90th percentile of the
/// growth over the level at construction.  A plain maximum is set by brief
/// spikes (a session's inbox grown during one slow drain) and moved by 2x
/// from run to run on the wire workload; the p90 held within ±5%.
class HeapSampler {
 public:
  HeapSampler();
  ~HeapSampler();
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;
  double p90_growth_mb();

 private:
  static constexpr size_t kMaxSamples = 1 << 16;  // 55 minutes
  void stop();

  std::vector<double> levels_;  // allocated before the baseline is read
  std::atomic<size_t> n_{0};
  size_t base_;
  std::atomic<bool> stop_{false};
  std::thread poller_;
};

/// Pins the calling thread to one allowed CPU (index modulo their number)
/// and restores its previous mask on destruction.  Set-up samples rotate
/// over the CPUs with it: the vCPUs run at persistently different speeds, so
/// a set-up timed wherever the scheduler left the thread measures the CPU.
/// Threads started while pinned inherit the mask.
class OnCpu {
 public:
  explicit OnCpu(size_t index);
  ~OnCpu();
  OnCpu(const OnCpu&) = delete;
  OnCpu& operator=(const OnCpu&) = delete;

 private:
  cpu_set_t old_;
  bool pinned_ = false;
};

/// Minimal timer slack for the calling thread, so paced sleeps wake on time.
void min_timer_slack();

/// Absolute sleep until `t_ns` on the steady clock.
void sleep_until_ns(uint64_t t_ns);

// ---- inputs ---------------------------------------------------------------

/// A response value no object family in these workloads can legally give:
/// outside every random_op argument domain and not a boolean.
constexpr Value kCorruptValue = 1'999'999'999;

/// Width-2 mutator∥consumer stream of exactly `events` events, linearizable
/// by construction (responses follow one sequential order of each block);
/// `corrupt` replaces the final width-1 response by kCorruptValue.
std::vector<Event> width2_stream(ObjectKind kind, size_t events, Rng& rng,
                                 bool corrupt);

/// Stream of exactly `events` events over `procs` processes with up to
/// `window` operations open at once, each linearized at its invocation (so
/// the stream is linearizable); `corrupt` appends one width-1 operation at
/// quiescence whose response is kCorruptValue.
std::vector<Event> window_stream(ObjectKind kind, size_t procs, size_t window,
                                 size_t events, Rng& rng, bool corrupt);

/// Seed of item `index` of the stream family `family` under the run seed.
uint64_t sub_seed(uint64_t seed, uint64_t family, uint64_t index);

// ---- the run --------------------------------------------------------------

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;  ///< tiny sizes for the benchmark's own tests
};

/// What one pass of a workload reports.
struct PassResult {
  Metrics e2e;                  ///< the end-to-end metrics
  Metrics layer;                ///< per-layer metrics seen from this pass
  double primary = 0;           ///< the number tracing overhead is taken on
  bool primary_is_latency = false;
};

PassResult run_wire_paced(const RunArgs& a, Tally& t, SpanLog* spans);
PassResult run_service_wide(const RunArgs& a, Tally& t, SpanLog* spans);
PassResult run_enforced(const RunArgs& a, Tally& t, SpanLog* spans);

/// Offline replays that time one layer in isolation (traced run only).
void replay_wire_layers(const RunArgs& a, Tally& t, Metrics& out);
void replay_service_layers(const RunArgs& a, Tally& t, Metrics& out,
                           const Metrics& live);
void replay_core_layers(const RunArgs& a, Tally& t, Metrics& out);

}  // namespace pb
