// Lockstep model–implementation conformance harness tests.
//
// The grid cases assert the headline property: the real pipeline, run over
// seeded chaos scenarios at every batching configuration, never reaches a
// quiescent state the formal-model substitute's invariants exclude. The
// deliberate-bug case asserts the harness has teeth — a known §3.9 defect
// (pop-before-process, which loses a worker's whole held batch on crash)
// must be caught AND shrink to a short reproducer. The campaign-hook cases
// cover the optional CampaignConfig::lockstep oracle wiring.
#include <gtest/gtest.h>

#include "chaos/campaign.h"
#include "mc/lockstep.h"

namespace zenith {
namespace {

using chaos::TopologyKind;
using mc::LockstepChecker;
using mc::LockstepConfig;
using mc::LockstepReport;

LockstepConfig small_cell(TopologyKind topology, std::size_t size,
                          std::size_t batch_size, std::uint64_t seed) {
  LockstepConfig config;
  config.campaign.topology = topology;
  config.campaign.topology_size = size;
  config.campaign.seed = seed;
  config.campaign.core.batch_size = batch_size;
  config.campaign.schedule.horizon = seconds(3);
  config.campaign.schedule.fault_count = 8;
  config.campaign.initial_flows = 4;
  config.phases = 3;
  config.check_model = false;
  return config;
}

/// Fault mix that exercises crash recovery hard: mostly component crashes
/// (the Watchdog path), some OFC failovers.
void make_crash_heavy(LockstepConfig& config) {
  chaos::FaultWeights& w = config.campaign.schedule.weights;
  w.switch_complete_transient = 0.0;
  w.switch_partial_transient = 0.0;
  w.link_flap = 0.0;
  w.component_crash = 0.8;
  w.ofc_crash = 0.2;
  w.de_crash = 0.0;
  w.reply_burst_loss = 0.0;
}

TEST(LockstepGrid, ConformsAcrossTopologiesBatchSizesAndSchedules) {
  struct Topo {
    TopologyKind kind;
    std::size_t size;
  };
  const Topo topologies[] = {
      {TopologyKind::kKdlLike, 16},
      {TopologyKind::kB4, 0},
      {TopologyKind::kFatTree, 4},
  };
  for (const Topo& topo : topologies) {
    for (std::size_t batch_size : {1, 4, 16}) {
      for (std::uint64_t seed : {1, 2}) {
        for (bool crash_heavy : {false, true}) {
          LockstepConfig config =
              small_cell(topo.kind, topo.size, batch_size, seed);
          if (crash_heavy) make_crash_heavy(config);
          LockstepChecker checker(config);
          LockstepReport report = checker.run();
          EXPECT_FALSE(report.diverged)
              << chaos::to_string(topo.kind) << " bs=" << batch_size
              << " seed=" << seed << " crash_heavy=" << crash_heavy << " :: "
              << report.summary();
          EXPECT_EQ(report.phases.size(), config.phases);
          // The schedule actually exercised the cell: faults were injected
          // across the phases (8 primaries plus their recoveries).
          std::size_t injected = 0;
          for (const auto& phase : report.phases) {
            injected += phase.events_injected;
          }
          EXPECT_GE(injected, config.campaign.schedule.fault_count);
        }
      }
    }
  }
}

TEST(LockstepGrid, ReplicatedCellsConformAcrossLeaderFailovers) {
  // The replicated control plane under the same lockstep microscope: phase
  // quiescence waits for the replica sets to settle (ReplicatedControlPlane
  // ::settled), then check_quiescent folds the abstract replica set — epoch,
  // committed prefix, per-replica applied index — into the comparison. Any
  // state an unplanned takeover leaves behind that the model's invariants
  // exclude is a divergence.
  struct Topo {
    TopologyKind kind;
    std::size_t size;
  };
  const Topo topologies[] = {
      {TopologyKind::kKdlLike, 16},
      {TopologyKind::kFatTree, 4},
  };
  for (const Topo& topo : topologies) {
    for (std::uint64_t seed : {1, 2}) {
      LockstepConfig config = small_cell(topo.kind, topo.size, 4, seed);
      config.campaign.core.repl.num_shards = 2;
      chaos::FaultWeights& w = config.campaign.schedule.weights;
      w.repl_kill_leader = 0.25;
      w.repl_partition_leader = 0.15;
      w.repl_lease_stall = 0.10;
      LockstepChecker checker(config);
      LockstepReport report = checker.run();
      EXPECT_FALSE(report.diverged)
          << chaos::to_string(topo.kind) << " seed=" << seed << " :: "
          << report.summary();
      EXPECT_EQ(report.phases.size(), config.phases);
    }
  }
}

TEST(LockstepDeliberateBug, CommitBeforeQuorumDivergesAndShrinks) {
  // The replication defect through the lockstep lens: the abstract replica
  // set exposes a committed prefix no quorum holds, which check_quiescent's
  // replication invariant rejects. A curated kill-leader schedule pins the
  // fault inside the append window (generated multi-kill ddmin subsets can
  // legally starve a quorum on the clean build, muddying the shrink).
  //
  // Unlike the campaign variant, lockstep converges the initial DAG before
  // phase 0, so the only unreplicated appends come from the phase-0 update
  // DAG submitted at the window start — its ACK-driven appends land within
  // the first few milliseconds. The scan therefore sweeps that early window
  // at sub-hop granularity (replication_hop is 1ms).
  bool caught = false;
  for (SimTime kill_at = micros(500); kill_at <= millis(16) && !caught;
       kill_at += micros(500)) {
    LockstepConfig config = small_cell(TopologyKind::kKdlLike, 12, 1, 5);
    config.campaign.core.repl.num_shards = 1;
    config.campaign.core.repl.bug_commit_before_quorum = true;
    config.campaign.update_period = millis(40);
    chaos::ChaosSchedule schedule;
    schedule.seed = config.campaign.seed;
    chaos::ChaosEvent kill;
    kill.kind = chaos::FaultKind::kReplKillLeader;
    kill.at = kill_at;
    kill.shard = 0;
    schedule.events.push_back(kill);
    chaos::ChaosEvent revive;
    revive.kind = chaos::FaultKind::kReplRevive;
    revive.at = kill_at + millis(400);
    revive.shard = 0;
    schedule.events.push_back(revive);

    LockstepChecker checker(config);
    LockstepReport report = checker.run(schedule);
    if (!report.diverged) continue;
    caught = true;
    ASSERT_FALSE(report.divergences.empty());
    bool replication_divergence = false;
    for (const std::string& divergence : report.divergences) {
      if (divergence.find("replication") != std::string::npos ||
          divergence.find("R2") != std::string::npos) {
        replication_divergence = true;
      }
    }
    EXPECT_TRUE(replication_divergence) << report.summary();

    LockstepChecker::DivergenceShrink shrunk = checker.shrink(schedule);
    EXPECT_TRUE(shrunk.minimal_report.diverged);
    EXPECT_LE(shrunk.minimal.size(), 2u)
        << "reproducer did not shrink: " << shrunk.trace.to_string();
    EXPECT_FALSE(shrunk.trace.violation.empty());
  }
  EXPECT_TRUE(caught)
      << "commit-before-quorum never diverged across the kill-offset scan — "
         "the replicated lockstep harness has no teeth";
}

TEST(LockstepReportDigest, DeterministicAcrossReruns) {
  LockstepConfig config = small_cell(TopologyKind::kB4, 0, 16, 3);
  LockstepReport first = LockstepChecker(config).run();
  LockstepReport second = LockstepChecker(config).run();
  ASSERT_EQ(first.phases.size(), second.phases.size());
  for (std::size_t i = 0; i < first.phases.size(); ++i) {
    EXPECT_EQ(first.phases[i].digest, second.phases[i].digest) << "phase " << i;
    EXPECT_EQ(first.phases[i].at, second.phases[i].at) << "phase " << i;
  }
  EXPECT_EQ(first.report_digest(), second.report_digest());
}

TEST(LockstepModel, AttachesTheSmallScopeModelVerdict) {
  // With the bug knobs off the downscaled PipelineModel instance (same
  // batch_size, crash budget armed by the crash-heavy schedule) verifies
  // clean, and its statistics ride along on the report.
  LockstepConfig config = small_cell(TopologyKind::kKdlLike, 16, 4, 1);
  make_crash_heavy(config);
  config.check_model = true;
  LockstepReport report = LockstepChecker(config).run();
  EXPECT_FALSE(report.diverged) << report.summary();
  EXPECT_TRUE(report.model_result.ok) << report.model_result.violation;
  EXPECT_FALSE(report.model_result.capped);
  EXPECT_GT(report.model_result.distinct_states, 0u);
}

TEST(LockstepDeliberateBug, PopBeforeProcessIsCaughtAndShrinks) {
  // pop-before-process takes the OP (at batch_size=4: the whole held batch)
  // off the queue before recording it; a worker crash then loses the work
  // forever. The model excludes every such state, so the harness must flag
  // a divergence, and ddmin must cut the schedule to a handful of events.
  // The loss window is one worker service step, so the cell stretches
  // worker_service (as the mark_up_before_reset hunts stretch the deferred
  // reset) to give randomly-timed crashes a realistic chance of landing in
  // it; a crash-heavy schedule supplies plenty of attempts. The schedule
  // draws crash targets from the whole wiring, where workers are a minority,
  // so the hunt aims every component crash at a worker.
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 8 && !caught; ++seed) {
    LockstepConfig config = small_cell(TopologyKind::kKdlLike, 16, 4, seed);
    make_crash_heavy(config);
    config.campaign.core.bugs.pop_before_process = true;
    config.campaign.core.worker_service = millis(10);
    config.campaign.schedule.fault_count = 20;
    config.settle_timeout = seconds(5);
    chaos::ChaosSchedule schedule = chaos::generate_schedule(
        chaos::make_topology(config.campaign), config.campaign.core,
        config.campaign.schedule, seed);
    std::size_t next_worker = 0;
    for (chaos::ChaosEvent& event : schedule.events) {
      if (event.kind != chaos::FaultKind::kComponentCrash) continue;
      event.component = "worker" + std::to_string(
                                       next_worker++ %
                                       config.campaign.core.num_workers);
    }
    LockstepChecker checker(config);
    LockstepReport report = checker.run(schedule);
    if (!report.diverged) continue;
    caught = true;
    ASSERT_FALSE(report.divergences.empty());
    // The causal tail travels with the report.
    EXPECT_FALSE(report.flight_recorder_dump.empty());

    LockstepChecker::DivergenceShrink shrunk =
        checker.shrink(schedule);
    EXPECT_TRUE(shrunk.minimal_report.diverged);
    EXPECT_LE(shrunk.minimal.size(), 15u)
        << "reproducer did not shrink: " << shrunk.trace.to_string();
    EXPECT_LE(shrunk.minimal.size(), schedule.size());
    EXPECT_FALSE(shrunk.trace.violation.empty());
    EXPECT_GE(shrunk.oracle_runs, 1u);
  }
  EXPECT_TRUE(caught)
      << "pop_before_process never diverged across 8 seeds — the harness "
         "has no teeth";
}

TEST(LockstepCampaignHook, RequestedWithoutOracleFailsLoudly) {
  chaos::set_campaign_lockstep_oracle(nullptr);
  chaos::CampaignConfig config;
  config.topology = TopologyKind::kKdlLike;
  config.topology_size = 12;
  config.seed = 2;
  config.schedule.horizon = seconds(2);
  config.schedule.fault_count = 4;
  config.initial_flows = 3;
  config.lockstep = true;
  chaos::CampaignResult result = chaos::ChaosCampaign(config).run();
  ASSERT_FALSE(result.ok);
  bool mentioned = false;
  for (const std::string& violation : result.violations) {
    if (violation.find("not installed") != std::string::npos) mentioned = true;
  }
  EXPECT_TRUE(mentioned) << result.summary();
}

TEST(LockstepCampaignHook, InstalledOracleKeepsCleanCampaignsOk) {
  mc::enable_campaign_lockstep_oracle();
  ASSERT_TRUE(chaos::campaign_lockstep_oracle_installed());
  chaos::CampaignConfig config;
  config.topology = TopologyKind::kKdlLike;
  config.topology_size = 12;
  config.seed = 2;
  config.schedule.horizon = seconds(2);
  config.schedule.fault_count = 4;
  config.initial_flows = 3;
  config.lockstep = true;
  chaos::CampaignResult result = chaos::ChaosCampaign(config).run();
  EXPECT_TRUE(result.ok) << result.summary();
  // Same cell at batch_size=16: the oracle must hold across the batched
  // dispatch path too.
  config.core.batch_size = 16;
  chaos::CampaignResult batched = chaos::ChaosCampaign(config).run();
  EXPECT_TRUE(batched.ok) << batched.summary();
  chaos::set_campaign_lockstep_oracle(nullptr);
  EXPECT_FALSE(chaos::campaign_lockstep_oracle_installed());
}

}  // namespace
}  // namespace zenith
