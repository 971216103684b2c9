// The golden-fingerprint regression corpus: one place that defines WHICH
// runs are pinned, shared by the generator binary (golden_gen) and the
// conformance diff test, so the two can never drift apart.
//
// Everything here is a timing-inclusive digest of a fully deterministic
// run, pinned at batch_size=1 and one NIB shard unless the name says
// otherwise (the determinism contract in CoreConfig::batch_size:
// timing-sensitive artifacts are golden only at the batch size they were
// recorded at; the same holds for nib_shards).
// Regenerate with scripts/update_golden.sh after any INTENDED behaviour
// change; an unintended diff is a regression in pipeline determinism or
// semantics and should be treated like a failing invariant.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "chaos/campaign.h"
#include "harness/soak.h"
#include "mc/lockstep.h"
#include "topo/generators.h"

namespace zenith::golden {

/// Small failure-free soak cell on fat_tree(4). Deterministic in
/// (seed, batch_size); the golden corpus pins the 4-group x 8-flow shape,
/// the batch-equivalence property sweep reuses it with its own shapes.
inline SoakResult run_soak_cell(std::size_t batch_size,
                                DeliveryOrderRecorder* recorder,
                                std::uint64_t seed = 9,
                                std::size_t groups = 4,
                                std::size_t flows_per_group = 8,
                                std::size_t target_ops = 2000,
                                std::size_t nib_shards = 1) {
  ExperimentConfig config;
  config.seed = 16 + seed;
  config.kind = ControllerKind::kZenithNR;
  config.core.batch_size = batch_size;
  config.core.nib_shards = nib_shards;
  config.poll_interval = millis(2);
  config.scoped_convergence = true;
  Experiment exp(gen::fat_tree(4), config);
  if (recorder != nullptr) recorder->attach(exp.fabric());
  exp.start();

  SoakConfig soak_config;
  soak_config.seed = seed;
  soak_config.groups = groups;
  soak_config.flows_per_group = flows_per_group;
  soak_config.target_ops = target_ops;
  soak_config.chaos = false;
  gen::FatTreeIndex index = gen::fat_tree_index(4);
  for (std::size_t i = index.edge_begin; i < index.edge_end; ++i) {
    soak_config.endpoints.push_back(SwitchId(static_cast<std::uint32_t>(i)));
  }
  SoakWorkload workload(&exp, soak_config);
  return workload.run();
}

/// The PR-3 chaos determinism grid: {kdl_like(16), b4, fat_tree(4)} x
/// seeds 1..4, default (batch_size=1, one NIB shard) core.
inline chaos::CampaignConfig chaos_cell_config(chaos::TopologyKind topology,
                                               std::size_t size,
                                               std::uint64_t seed,
                                               std::size_t nib_shards = 1) {
  chaos::CampaignConfig config;
  config.topology = topology;
  config.topology_size = size;
  config.seed = seed;
  config.core.nib_shards = nib_shards;
  config.schedule.horizon = seconds(4);
  config.schedule.fault_count = 10;
  config.initial_flows = 4;
  return config;
}

/// Replicated-control-plane chaos cell: the chaos grid shape with two
/// shards of three replicas each and the replication fault classes
/// (kill-leader, partition-leader, lease-stall) mixed into the schedule.
/// The pinned verdict digest covers the R1-R4 oracle sweep and the
/// schedule/trace/metrics fingerprints across unplanned leader failovers.
inline chaos::CampaignConfig repl_cell_config(chaos::TopologyKind topology,
                                              std::size_t size,
                                              std::uint64_t seed,
                                              std::size_t nib_shards = 1) {
  chaos::CampaignConfig config =
      chaos_cell_config(topology, size, seed, nib_shards);
  config.core.repl.num_shards = 2;
  config.schedule.fault_count = 12;
  config.schedule.weights.repl_kill_leader = 0.18;
  config.schedule.weights.repl_partition_leader = 0.12;
  config.schedule.weights.repl_lease_stall = 0.08;
  return config;
}

/// Adaptive-consistency cells (PR 10): the chaos_fattree4 shape with the
/// consistency knob set explicitly. The strong cell must reproduce
/// chaos_fattree4_s1.verdict exactly — eventual_installs=false is the
/// default and adds no log, no pump steps and no rng draws (the
/// default-is-byte-identical contract, pinned as its own named entry so a
/// drift names the subsystem). The eventual cell pins the bounded-staleness
/// publication order under the same faults.
inline chaos::CampaignConfig consistency_cell_config(bool eventual,
                                                     std::uint64_t seed) {
  chaos::CampaignConfig config =
      chaos_cell_config(chaos::TopologyKind::kFatTree, 4, seed);
  config.core.consistency.eventual_installs = eventual;
  if (eventual) {
    // Slow the apply pump below the commit cadence so the pinned run
    // actually exercises lag > 1 (the strong cell never constructs a pump).
    config.core.eventual_apply_service = millis(1);
  }
  return config;
}

/// The lockstep conformance grid cell (mirrors the zenith_lockstep runner's
/// defaults): a 3-second, 8-fault schedule sliced into 3 quiescence phases.
/// The golden corpus pins the per-phase abstraction digests via
/// LockstepReport::report_digest().
inline mc::LockstepConfig lockstep_cell_config(chaos::TopologyKind topology,
                                               std::size_t size,
                                               std::size_t batch_size,
                                               std::uint64_t seed,
                                               std::size_t nib_shards = 1) {
  mc::LockstepConfig config;
  config.campaign.topology = topology;
  config.campaign.topology_size = size;
  config.campaign.seed = seed;
  config.campaign.core.batch_size = batch_size;
  config.campaign.core.nib_shards = nib_shards;
  config.campaign.schedule.horizon = seconds(3);
  config.campaign.schedule.fault_count = 8;
  config.campaign.initial_flows = 4;
  config.phases = 3;
  config.check_model = false;  // the model verdict is not a run digest
  return config;
}

inline std::map<std::string, std::uint64_t> compute_fingerprints() {
  std::map<std::string, std::uint64_t> out;

  for (std::size_t bs : {std::size_t{1}, std::size_t{16}}) {
    DeliveryOrderRecorder recorder;
    SoakResult result = run_soak_cell(bs, &recorder);
    std::string prefix = "soak_fattree4_bs" + std::to_string(bs);
    out[prefix + ".nib"] = result.nib_fingerprint;
    out[prefix + ".delivery"] = recorder.fingerprint();
  }

  struct Cell {
    chaos::TopologyKind kind;
    std::size_t size;
    const char* name;
  };
  const Cell cells[] = {
      {chaos::TopologyKind::kKdlLike, 16, "kdl16"},
      {chaos::TopologyKind::kB4, 0, "b4"},
      {chaos::TopologyKind::kFatTree, 4, "fattree4"},
  };
  for (const Cell& cell : cells) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      chaos::ChaosCampaign campaign(
          chaos_cell_config(cell.kind, cell.size, seed));
      out["chaos_" + std::string(cell.name) + "_s" + std::to_string(seed) +
          ".verdict"] = campaign.run().verdict_digest();
    }
  }

  // Replicated control plane: the same chaos grid with 2 shards x 3
  // replicas and replication faults in the mix, pinned for two seeds per
  // topology (the full 3x3 grid runs in repl_test; the corpus pins a
  // representative slice).
  for (const Cell& cell : cells) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      chaos::ChaosCampaign campaign(
          repl_cell_config(cell.kind, cell.size, seed));
      out["repl_" + std::string(cell.name) + "_s" + std::to_string(seed) +
          ".verdict"] = campaign.run().verdict_digest();
    }
  }

  // Adaptive consistency: all-strong (must equal chaos_fattree4_s1) and
  // eventual-class installs, same faults, same seed.
  for (bool eventual : {false, true}) {
    chaos::ChaosCampaign campaign(consistency_cell_config(eventual, 1));
    out[std::string("consistency_fattree4_s1_") +
        (eventual ? "eventual" : "strong") + ".verdict"] =
        campaign.run().verdict_digest();
  }

  // Lockstep conformance grid: per-phase abstraction digests pinned at the
  // batching extremes (bs=1 singleton, bs=16 coalescing).
  for (const Cell& cell : cells) {
    for (std::size_t bs : {std::size_t{1}, std::size_t{16}}) {
      mc::LockstepChecker checker(
          lockstep_cell_config(cell.kind, cell.size, bs, /*seed=*/1));
      out["lockstep_" + std::string(cell.name) + "_bs" + std::to_string(bs) +
          ".report"] = checker.run().report_digest();
    }
  }

  // The same pipeline at four NIB shards: the bs=16 soak (its .nib must
  // equal the one-shard cell's — shard count changes timing, never
  // outcome), chaos and replicated chaos seeds 1-2, and the lockstep grid.
  {
    DeliveryOrderRecorder recorder;
    SoakResult result = run_soak_cell(16, &recorder, 9, 4, 8, 2000,
                                      /*nib_shards=*/4);
    out["soak_fattree4_bs16_shards4.nib"] = result.nib_fingerprint;
    out["soak_fattree4_bs16_shards4.delivery"] = recorder.fingerprint();
  }
  for (const Cell& cell : cells) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const std::string suffix =
          "_s" + std::to_string(seed) + "_shards4.verdict";
      out["chaos_" + std::string(cell.name) + suffix] =
          chaos::ChaosCampaign(chaos_cell_config(cell.kind, cell.size, seed, 4))
              .run()
              .verdict_digest();
      out["repl_" + std::string(cell.name) + suffix] =
          chaos::ChaosCampaign(repl_cell_config(cell.kind, cell.size, seed, 4))
              .run()
              .verdict_digest();
    }
    for (std::size_t bs : {std::size_t{1}, std::size_t{16}}) {
      mc::LockstepChecker checker(
          lockstep_cell_config(cell.kind, cell.size, bs, /*seed=*/1, 4));
      out["lockstep_" + std::string(cell.name) + "_bs" + std::to_string(bs) +
          "_shards4.report"] = checker.run().report_digest();
    }
  }
  return out;
}

}  // namespace zenith::golden
