// mc-repl: exhaustive check of the replicated-log shard model, stepwise
// replication, 5 replicas, 5 appends, 2 leader kills (219,238 states)
// on the work-stealing parallel BFS and its sharded seen-set, at a fixed
// thread count. The model is fixed; the seed does not change it. The
// instance is sized so one check takes ~0.1 s and a 25 s run repeats it ~200
// times: a check cannot be timed in parts, and only short pieces of work
// have repeats that run entirely in the host's fast stretches (see
// Rounds). The 10-append instance (10.4M states) takes ~6 s a check.
//
// A round is one complete check; each must find no violation, not be
// capped, and explore exactly the recorded threads=1 figures. Set-up runs
// the same check at threads=1 in-process against the same figures.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

namespace {

using namespace zenith;

/// Thread count of the measured checks (bounded by the host's CPUs).
std::size_t mc_threads() {
  long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  return cpus >= 2 ? 2 : 1;
}

}  // namespace

mc::ReplModelConfig mc_instance(std::size_t threads) {
  mc::ReplModelConfig config;
  config.replicas = 5;
  config.max_appends = 5;
  config.max_kills = 2;
  config.stepwise_replication = true;
  config.threads = threads;
  return config;
}

// Regenerate with: .bench_build/perfbench_runner --mc-reference
ModelCounts mc_reference() { return {219238, 575004, 30}; }

Report run_mc(const Options& options, Tracer& tracer) {
  Report report;
  const std::size_t threads = mc_threads();
  double check_start = elapsed_s();
  report.merge(check_model(mc::check_repl_model(mc_instance(1)),
                           mc_reference(), "check at 1 thread"));
  double check_s = elapsed_s() - check_start;
  double setup_s = elapsed_s();
  std::fprintf(stderr, "mc-repl: %zu threads, set-up %.3fs\n", threads,
               setup_s);

  const Tracer::Layer check = tracer.layer("mc.check");
  Rounds untraced;
  Rounds traced;
  double traced_wall_s = 0.0;
  mc::ReplModelResult last;

  Window window(options);
  while (window.next()) {
    const bool trace_round = window.traced();
    tracer.set_on(trace_round);
    tracer.set_request(window.rounds());
    ++report.attempted;
    double round_start = elapsed_s();
    auto t0 = std::chrono::steady_clock::now();
    {
      Span span(tracer, check);
      last = mc::check_repl_model(mc_instance(threads));
    }
    std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - t0;
    report.merge(check_model(last, mc_reference(),
                             "check " + std::to_string(window.rounds())));
    (trace_round ? traced : untraced)
        .add(static_cast<double>(last.states_explored), {took.count()});
    if (trace_round) traced_wall_s += elapsed_s() - round_start;
  }
  tracer.set_on(false);
  std::fprintf(stderr, "mc-repl: %zu checks in %.3fs\n", window.rounds(),
               window.elapsed_s());

  if (!options.trace) {
    add_end_to_end(report, setup_s, untraced);
    return report;
  }
  report.add("harness.check_s", check_s, "s");
  report.add("mc.states", static_cast<double>(last.states_explored), "count");
  report.add("mc.transitions", static_cast<double>(last.transitions), "count");
  report.add("mc.diameter", static_cast<double>(last.diameter), "count");
  report.add("mc.bytes_per_state",
             ratio(peak_rss_mib() * 1024.0 * 1024.0,
                   static_cast<double>(last.states_explored)),
             "B/state");
  add_trace_summary(report, tracer, traced_wall_s, untraced, traced);
  return report;
}

}  // namespace perfbench
