// Million-OP soak + batching/sharding throughput comparison (the PR-4
// stress tier, grown into the PR-8 parallel-hot-path headline).
//
// Default-fabric arms on the same fat-tree k=16 deployment and seed:
//   bs=1   — the pre-batching pipeline shape (singleton dispatch), sized to
//            reach steady state and measure baseline throughput;
//   bs=16  — batched dispatch, >= 1M converged OPs under light chaos with
//            every invariant monitor armed. At the default fabric both of
//            these are DATA-PLANE bound: the 50us per-message switch
//            service, not the controller, sets the ceiling.
//
// Hot-path tier (the PR-8 measurement): the same deployment with a fast
// fabric (delay x0.1, switch op_service x0.05) so the controller is the
// measured resource, ECMP-style path spread, and a 16-worker pool — run
// twice with IDENTICAL config except nib_shards:
//   hot.unsharded — nib_shards=1 (the default): one NIB Event Handler, one
//                   Monitoring Server and the commit pump; the single
//                   shard's service steps are the ceiling;
//   hot.sharded   — nib_shards=4: four of each per-shard stage. Carries the
//                   10M-OP soak tier (ZENITH_SOAK_OPS overrides the volume;
//                   set it to 100000000 for the opt-in 100M tier).
//
// Headline metrics: batching_speedup_16v1 (default fabric) and
// sharding_speedup_4v1 (hot tier, four shards over one at identical
// settings). A chaos-off probe pair additionally reruns a short bs=16
// workload at one and four shards and asserts fingerprint equality
// (fingerprint_match) — the throughput claim is only meaningful because the
// shard count is outcome-identical.
//
// Flags: --quick (small topology + 40k-OP arms for CI smoke), --json
// (write BENCH_soak.json for scripts/ci.sh's gating baseline diff).
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "harness/soak.h"
#include "obs/bench_results.h"
#include "topo/generators.h"

namespace zenith {
namespace {

struct ArmResult {
  SoakResult soak;
  std::uint64_t folded_fingerprint = 0;
  double wall_seconds = 0.0;
};

/// The default-fabric arms (and the chaos-off equivalence probes): edge
/// endpoints, deterministic BFS paths, the stock 4-worker pipeline.
ArmResult run_arm(std::size_t batch_size, std::size_t target_ops, bool quick,
                  std::size_t nib_shards = 1, bool chaos = true) {
  ExperimentConfig config;
  config.seed = 20260807;
  config.kind = ControllerKind::kZenithNR;
  config.core.batch_size = batch_size;
  config.core.nib_shards = nib_shards;
  config.poll_interval = millis(2);
  config.scoped_convergence = true;

  std::size_t k = quick ? 8 : 16;
  Experiment exp(gen::fat_tree(k), config);
  exp.start();

  SoakConfig soak_config;
  soak_config.seed = 97;
  soak_config.target_ops = target_ops;
  // Wide waves: ~1k concurrent flows put one ACK per in-flight flow into
  // the MonitoringServer per dependency wave, so the singleton arm's one-
  // reply-per-20us service discipline — not path RTT or per-switch service
  // time — bounds throughput. Full mode spreads many groups across the
  // k=16 edge layer (128 edge switches) with flows_per_group matched to
  // the batch size; quick mode compresses onto fat_tree(8)'s 32 edges.
  soak_config.groups = quick ? 16 : 64;
  soak_config.flows_per_group = quick ? 32 : 16;
  soak_config.chaos = chaos;
  gen::FatTreeIndex index = gen::fat_tree_index(k);
  for (std::size_t i = index.edge_begin; i < index.edge_end; ++i) {
    soak_config.endpoints.push_back(SwitchId(static_cast<std::uint32_t>(i)));
  }

  SoakWorkload workload(&exp, soak_config);
  auto wall_start = std::chrono::steady_clock::now();
  ArmResult arm;
  arm.soak = workload.run();
  arm.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
  arm.folded_fingerprint = exp.nib().folded_shard_fingerprint(4);
  return arm;
}

/// The hot-path tier: controller-bound by design. Fast fabric (delay x0.1,
/// switch op_service x0.05 — a 50us TCAM write shrunk to modern-ASIC 2.5us),
/// ECMP-style path spread over all-switch endpoints so no stride-aligned
/// agg/core switch concentrates the load, and a 16-worker pool so dispatch
/// lanes outnumber the reply-commit lanes under test. Everything except
/// nib_shards is IDENTICAL across the two calls — the reported speedup is
/// the sharding, nothing else.
ArmResult run_hot_arm(std::size_t nib_shards, std::size_t target_ops,
                      bool quick) {
  ExperimentConfig config;
  config.seed = 20260807;
  config.kind = ControllerKind::kZenithNR;
  config.core.batch_size = 16;
  config.core.nib_shards = nib_shards;
  config.core.num_workers = quick ? 8 : 16;
  config.poll_interval = millis(2);
  config.scoped_convergence = true;
  config.fabric.ctrl_to_sw = {SimTime(millis(0.5) * 0.1),
                              SimTime(millis(0.5) * 0.1)};
  config.fabric.sw_to_ctrl = {SimTime(millis(0.5) * 0.1),
                              SimTime(millis(0.5) * 0.1)};
  config.fabric.timings.op_service = SimTime(micros(50) * 0.05);

  std::size_t k = quick ? 8 : 16;
  Experiment exp(gen::fat_tree(k), config);
  exp.start();

  SoakConfig soak_config;
  soak_config.seed = 97;
  soak_config.target_ops = target_ops;
  soak_config.groups = quick ? 64 : 256;
  soak_config.flows_per_group = 32;
  soak_config.path_spread = 16;
  // endpoints left empty: any switch pair, spreading load over the whole
  // agg/core layer instead of pinning src/dst to the edge.

  SoakWorkload workload(&exp, soak_config);
  auto wall_start = std::chrono::steady_clock::now();
  ArmResult arm;
  arm.soak = workload.run();
  arm.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
  arm.folded_fingerprint = exp.nib().folded_shard_fingerprint(4);
  return arm;
}

void print_arm(const char* label, const ArmResult& arm) {
  const SoakResult& r = arm.soak;
  std::printf(
      "  %-12s ops=%zu rounds=%zu blips=%zu crashes=%zu timeouts=%zu "
      "violations=%zu order=%s sim=%.1fs wall=%.0fs  ops/sim-s=%.0f\n",
      label, r.ops_completed, r.rounds, r.switch_blips, r.component_crashes,
      r.timeouts, r.invariant_violations, r.order_ok ? "ok" : "VIOLATED",
      to_seconds(r.sim_elapsed), arm.wall_seconds, r.ops_per_sim_second());
}

/// The sharded soak-tier volume: 10M OPs by default, overridable through
/// ZENITH_SOAK_OPS (the 100M tier is the same binary with the variable set
/// to 100000000 — see EXPERIMENTS.md).
std::size_t sharded_soak_ops(bool quick) {
  if (quick) return 40'000;
  const char* env = std::getenv("ZENITH_SOAK_OPS");
  if (env != nullptr && *env != '\0') {
    long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 10'000'000;
}

}  // namespace
}  // namespace zenith

int main(int argc, char** argv) {
  using namespace zenith;
  benchutil::Options opts = benchutil::parse_options(argc, argv);

  benchutil::banner(
      "Soak: mixed install/delete churn — batched, singleton, and sharded",
      "control plane stays consistent under sustained load; batching the "
      "per-switch OP stream and sharding the NIB hot path lift throughput "
      "without changing outcomes");

  // The bs=1 arm only needs enough rounds for a stable throughput estimate;
  // the bs=16 arm carries the >=1M-OP requirement.
  std::size_t base_ops = opts.quick ? 40'000 : 200'000;
  std::size_t soak_ops = opts.quick ? 40'000 : 1'000'000;

  ArmResult bs1 = run_arm(1, base_ops, opts.quick);
  print_arm("bs=1", bs1);
  ArmResult bs16 = run_arm(16, soak_ops, opts.quick);
  print_arm("bs=16", bs16);

  // Hot-path tier: one-shard control first (a throughput estimate), then
  // the four-shard arm carrying the 10M-OP soak (100M via ZENITH_SOAK_OPS).
  std::size_t hot_control_ops = opts.quick ? 40'000 : 300'000;
  ArmResult hot_one =
      run_hot_arm(/*nib_shards=*/1, hot_control_ops, opts.quick);
  print_arm("hot", hot_one);
  ArmResult hot_sharded = run_hot_arm(
      /*nib_shards=*/4, sharded_soak_ops(opts.quick), opts.quick);
  print_arm("hot+shards", hot_sharded);

  double speedup = bs1.soak.ops_per_sim_second() > 0.0
                       ? bs16.soak.ops_per_sim_second() /
                             bs1.soak.ops_per_sim_second()
                       : 0.0;
  double shard_speedup = hot_one.soak.ops_per_sim_second() > 0.0
                             ? hot_sharded.soak.ops_per_sim_second() /
                                   hot_one.soak.ops_per_sim_second()
                             : 0.0;
  std::printf("\n  batching speedup (bs=16 / bs=1):          %.2fx\n",
              speedup);
  std::printf("  sharding speedup (hot tier, 4 shards):    %.2fx\n",
              shard_speedup);

  // Equivalence probe: a short chaos-off workload (comparable OpId streams)
  // run at one and four shards must land on byte-identical NIB state — both
  // the global fingerprint and the shard-order fold.
  std::size_t probe_ops = opts.quick ? 20'000 : 100'000;
  ArmResult probe_one =
      run_arm(16, probe_ops, opts.quick, /*nib_shards=*/1, /*chaos=*/false);
  ArmResult probe_sharded =
      run_arm(16, probe_ops, opts.quick, /*nib_shards=*/4, /*chaos=*/false);
  bool fingerprint_match =
      probe_one.soak.nib_fingerprint == probe_sharded.soak.nib_fingerprint &&
      probe_one.folded_fingerprint == probe_sharded.folded_fingerprint &&
      probe_one.soak.ops_completed == probe_sharded.soak.ops_completed;
  std::printf("  1-shard-vs-4-shard fingerprints:          %s\n",
              fingerprint_match ? "match" : "MISMATCH");

  std::size_t total_violations =
      bs1.soak.invariant_violations + bs16.soak.invariant_violations +
      hot_one.soak.invariant_violations +
      hot_sharded.soak.invariant_violations +
      probe_one.soak.invariant_violations +
      probe_sharded.soak.invariant_violations;
  bool clean = total_violations == 0 && bs1.soak.order_ok &&
               bs16.soak.order_ok && hot_one.soak.order_ok &&
               hot_sharded.soak.order_ok && fingerprint_match;
  std::printf("  invariants: %s\n", clean ? "clean" : "VIOLATIONS SEEN");

  if (opts.json) {
    obs::BenchResult bench("soak");
    bench.add_count("bs1.ops_completed", bs1.soak.ops_completed);
    bench.add_count("bs16.ops_completed", bs16.soak.ops_completed);
    bench.add_count("bs16.rounds", bs16.soak.rounds);
    bench.add_count("bs16.switch_blips", bs16.soak.switch_blips);
    bench.add_count("bs16.component_crashes", bs16.soak.component_crashes);
    bench.add_count("sharded.ops_completed", hot_sharded.soak.ops_completed);
    bench.add_count("sharded.rounds", hot_sharded.soak.rounds);
    bench.add_count("sharded.component_crashes",
                    hot_sharded.soak.component_crashes);
    bench.add_count("invariant_violations", total_violations);
    bench.add_count("fingerprint_match", fingerprint_match ? 1 : 0);
    bench.add("bs1.ops_per_sim_sec", bs1.soak.ops_per_sim_second(), "1/s");
    bench.add("bs16.ops_per_sim_sec", bs16.soak.ops_per_sim_second(), "1/s");
    bench.add("hot.unsharded.ops_per_sim_sec",
              hot_one.soak.ops_per_sim_second(), "1/s");
    bench.add("hot.sharded.ops_per_sim_sec",
              hot_sharded.soak.ops_per_sim_second(), "1/s");
    bench.add("batching_speedup_16v1", speedup, "x");
    bench.add("sharding_speedup_4v1", shard_speedup, "x");
    bench.add("bs1.wall_seconds", bs1.wall_seconds, "s");
    bench.add("bs16.wall_seconds", bs16.wall_seconds, "s");
    bench.add("sharded.wall_seconds", hot_sharded.wall_seconds, "s");
    bench.add_note("mode", opts.quick ? "quick" : "full");
    bench.add_note("topology", opts.quick ? "fat_tree(8)" : "fat_tree(16)");
    std::string path = bench.write(".");
    std::printf("wrote %s\n", path.c_str());
  }
  return clean ? 0 : 1;
}
