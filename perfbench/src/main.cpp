// selin_perfbench — end-to-end and per-layer benchmark of selin.
//
//   selin_perfbench --workload <wire_paced|service_wide|enforced>
//                   --seed N --seconds S --trace 0|1 [--smoke]
//                   [--span-dir DIR]
//
// --trace 0 runs the workload untraced for S seconds and reports its
// end-to-end metrics.  --trace 1 is the traced run: every workload once
// untraced and once with spans around each public call (each pass S/8
// seconds, at most 2), then the single-layer replays; it reports every per-layer
// metric plus each workload's tracing overhead and writes the spans to
// DIR/<workload>.spans.  Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  Exit 0 when the run
// completed (correct or not), 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "bench.hpp"

namespace {

using namespace pb;

int usage() {
  std::cerr << "usage: selin_perfbench --workload "
               "<wire_paced|service_wide|enforced> --seed N --seconds S "
               "--trace 0|1 [--smoke] [--span-dir DIR]\n";
  return 2;
}

using RunFn = PassResult (*)(const RunArgs&, Tally&, SpanLog*);

struct Workload {
  const char* name;
  RunFn run;
};

constexpr Workload kWorkloads[] = {
    {"wire_paced", run_wire_paced},
    {"service_wide", run_service_wide},
    {"enforced", run_enforced},
};

void print_result(const Tally& t, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              t.correct() ? "true" : "false",
              static_cast<unsigned long long>(t.attempted()),
              static_cast<unsigned long long>(t.failed()));
  for (size_t i = 0; i < m.items.size(); ++i) {
    const auto& it = m.items[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", it.name.c_str(),
                std::isfinite(it.value) ? it.value : 0.0, it.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs a;
  std::string workload, span_dir;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const bool has_value = i + 1 < argc;
    if (f == "--workload" && has_value) {
      workload = argv[++i];
    } else if (f == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (f == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (f == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (f == "--span-dir" && has_value) {
      span_dir = argv[++i];
    } else if (f == "--smoke") {
      a.smoke = true;
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (workload == k.name) w = &k;
  }
  if (w == nullptr || (trace != 0 && trace != 1) || !(a.seconds > 0)) {
    return usage();
  }

  Tally t;
  Metrics out;
  if (trace == 0) {
    PassResult r = w->run(a, t, nullptr);
    out = std::move(r.e2e);
  } else {
    RunArgs pass = a;
    pass.seconds = std::min(a.seconds / 8, 2.0);
    Metrics live;
    std::vector<std::unique_ptr<SpanLog>> logs;
    for (const Workload& k : kWorkloads) {
      const PassResult plain = k.run(pass, t, nullptr);
      logs.push_back(std::make_unique<SpanLog>());
      const PassResult traced = k.run(pass, t, logs.back().get());
      // Tracing overhead on the workload's headline number: the latency it
      // adds on the paced workload, the throughput it costs on the others.
      const double overhead =
          plain.primary <= 0 || traced.primary <= 0 ? 0.0
          : plain.primary_is_latency ? traced.primary / plain.primary - 1.0
                                     : plain.primary / traced.primary - 1.0;
      for (const auto& it : traced.layer.items) live.items.push_back(it);
      live.put(std::string("trace.overhead_frac.") + k.name, overhead,
               "ratio");
    }
    out = live;
    replay_wire_layers(pass, t, out);
    replay_service_layers(pass, t, out, live);
    replay_core_layers(pass, t, out);
    for (size_t i = 0; i < logs.size() && !span_dir.empty(); ++i) {
      const std::string path = span_dir + "/" + kWorkloads[i].name + ".spans";
      if (!logs[i]->write(path)) t.broken("cannot write " + path);
    }
  }
  print_result(t, out);
  return 0;
}
