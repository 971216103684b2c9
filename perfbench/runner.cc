// Benchmark runner: one workload per process.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench_runner --mc-reference
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones, and
// the spans go to .bench_out/trace-<workload>-seed<n>.json.
// --mc-reference explores the mc-repl instance at threads=1 and prints the
// figures mc_reference() records.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <vector>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

// Every run reports each metric of its mode; a layer a workload does not
// exercise reads 0.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"throughput_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
};

const std::vector<MetricSpec> kPerLayerFixed = {
    {"harness.gen_s", "s"},
    {"harness.deploy_s", "s"},
    {"harness.probe_s", "s"},
    {"harness.check_s", "s"},
    {"dag.submit_s", "s"},
    {"dag.ops_per_dag", "ops/dag"},
    {"dag.edges_per_dag", "edges/dag"},
    {"dag.wall_ms_p99", "ms"},
    {"apps.drain_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_op", "events/op"},
    {"sim.run_s", "s"},
    {"sim.ops_per_sim_s", "ops/sim-s"},
    {"dataplane.applies", "count"},
    {"dataplane.applies_per_op", "applies/op"},
    {"nib.writes", "count"},
    {"nib.writes_per_op", "writes/op"},
    {"nib.eventual_commits", "count"},
    {"nib.strong_barriers", "count"},
    {"nib.eventual_max_lag", "entries"},
    {"net.send_s", "s"},
    {"net.poll_s", "s"},
    {"net.frames_per_op", "frames/op"},
    {"net.bytes_per_op", "B/op"},
    {"net.short_writes", "count"},
    {"net.stall_events", "count"},
    {"netd.bridge_pump_s", "s"},
    {"netd.pumps", "count"},
    {"netd.pumps_per_dag", "pumps/dag"},
    {"chaos.campaign_ms_p50", "ms"},
    {"chaos.sim_events", "count"},
    {"chaos.faults", "count"},
    {"chaos.repl_faults", "count"},
    {"chaos.certified_ratio", "share"},
    {"mc.states", "count"},
    {"mc.transitions", "count"},
    {"mc.diameter", "count"},
    {"mc.bytes_per_state", "B/state"},
    {"trace.wall_s", "s"},
    {"trace.uncovered_share", "share"},
    {"trace.overhead", "share"},
};

/// The fixed per-layer metrics plus core.<kind>.{steps,idle_steps,step_s}.
std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> specs = kPerLayerFixed;
  for (const std::string& kind : component_kinds()) {
    specs.push_back({"core." + kind + ".steps", "count"});
    specs.push_back({"core." + kind + ".idle_steps", "count"});
    specs.push_back({"core." + kind + ".step_s", "s"});
  }
  return specs;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "<soak-sharded|wire-uds|chaos-repl|mc-repl> --seed <n> "
               "--seconds <s> --trace <0|1>\n       perfbench_runner "
               "--mc-reference\n",
               why);
  std::exit(2);
}

std::string format_number(double value) {
  char buf[64];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

int mc_reference_mode() {
  zenith::mc::ReplModelResult result =
      zenith::mc::check_repl_model(mc_instance(/*threads=*/1));
  std::printf("states=%zu transitions=%zu diameter=%zu violation=%d "
              "capped=%d seconds=%.3f\n",
              result.states_explored, result.transitions, result.diameter,
              result.violation_found ? 1 : 0, result.capped ? 1 : 0,
              result.seconds);
  return result.violation_found || result.capped ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  mark_process_start();
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--mc-reference") return mc_reference_mode();
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }

  std::map<std::string, Report (*)(const Options&, Tracer&)> workloads = {
      {"soak-sharded", run_soak},
      {"wire-uds", run_wire},
      {"chaos-repl", run_chaos},
      {"mc-repl", run_mc},
  };
  auto it = workloads.find(options.workload);
  if (it == workloads.end()) usage("unknown workload");
  if (options.trace) {
    std::filesystem::create_directories(".bench_out");
    options.trace_file = ".bench_out/trace-" + options.workload + "-seed" +
                         std::to_string(options.seed) + ".json";
  }

  Tracer tracer;
  Report report = it->second(options, tracer);
  if (options.trace && !tracer.write(options.trace_file)) {
    report.problems.push_back("cannot write " + options.trace_file);
  }

  std::map<std::string, const Metric*> measured;
  for (const Metric& m : report.metrics) measured[m.name] = &m;
  std::string metrics;
  for (const MetricSpec& spec :
       options.trace ? per_layer_specs() : kEndToEnd) {
    auto found = measured.find(spec.name);
    double value = found == measured.end() ? 0.0 : found->second->value;
    if (found != measured.end()) {
      if (found->second->unit != spec.unit) {
        report.problems.push_back("unit mismatch for " + spec.name);
      }
      measured.erase(found);
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + spec.name + "\": {\"value\": " +
               format_number(value) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  for (const auto& [name, _] : measured) {
    report.problems.push_back("unlisted metric " + name);
  }

  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
