// Adaptive per-OP-class consistency (PR 10): the NIB's eventual apply log
// (bound enforcement, SENT-freshness, strong barriers, the E2 counter and
// its deliberate-defect knob), strong/eventual state-equivalence at
// quiescence, the E1/E2 model-checker cases on PipelineModel/ReplModel,
// the chaos grid with the lockstep oracle in eventual mode, and the
// campaign-level E2 oracle tripping on the buggy build.
#include <gtest/gtest.h>

#include "chaos/campaign.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "mc/checker.h"
#include "mc/lockstep.h"
#include "mc/pipeline_model.h"
#include "mc/repl_model.h"
#include "nib/nib.h"
#include "topo/generators.h"

namespace zenith {
namespace {

Op install_op(std::uint32_t id, std::uint32_t sw) {
  Op op;
  op.id = OpId(id);
  op.type = OpType::kInstallRule;
  op.sw = SwitchId(sw);
  op.rule = FlowRule{FlowId(1), SwitchId(sw), SwitchId(9), SwitchId(sw + 1), 1};
  return op;
}

Op delete_op(std::uint32_t id, std::uint32_t sw, std::uint32_t target) {
  Op op;
  op.id = OpId(id);
  op.type = OpType::kDeleteRule;
  op.sw = SwitchId(sw);
  op.delete_target = OpId(target);
  return op;
}

/// A Nib with the eventual knob on and `count` SENT install OPs on sw0.
Nib eventual_nib(std::size_t count, ConsistencyConfig config) {
  Nib nib;
  nib.configure_consistency(config);
  for (std::uint32_t i = 1; i <= count; ++i) {
    nib.put_op(install_op(i, 0));
    nib.set_op_status(OpId(i), OpStatus::kScheduled);
    nib.set_op_status(OpId(i), OpStatus::kSent);
  }
  return nib;
}

TEST(NibEventualLog, BoundHoldsStructurallyAtEveryCommit) {
  ConsistencyConfig config;
  config.eventual_installs = true;
  config.staleness_bound = 3;
  Nib nib = eventual_nib(6, config);
  for (std::uint32_t i = 1; i <= 6; ++i) {
    nib.eventual_commit_batch(SwitchId(0), {install_op(i, 0)});
    // E1 structurally: the commit itself drains the oldest entry first.
    EXPECT_LE(nib.eventual_pending(), 3u);
  }
  EXPECT_EQ(nib.eventual_committed(), 6u);
  EXPECT_EQ(nib.eventual_applied(), 3u);
  EXPECT_EQ(nib.eventual_max_lag(), 3u);
  // The drained entries are already visible; the pending ones are not.
  EXPECT_EQ(nib.view_installed(SwitchId(0)).size(), 3u);
  nib.apply_eventual();
  EXPECT_EQ(nib.eventual_pending(), 0u);
  EXPECT_EQ(nib.view_installed(SwitchId(0)).size(), 6u);
  for (std::uint32_t i = 1; i <= 6; ++i) {
    EXPECT_EQ(nib.op_status(OpId(i)), OpStatus::kDone);
  }
}

TEST(NibEventualLog, ApplyHonorsSentFreshness) {
  // Between commit and apply a takeover requeue (SENT -> SCHEDULED) may
  // re-arm an op; the apply must skip it and let the pipeline re-drive.
  ConsistencyConfig config;
  config.eventual_installs = true;
  Nib nib = eventual_nib(2, config);
  nib.eventual_commit_batch(SwitchId(0), {install_op(1, 0), install_op(2, 0)});
  nib.set_op_status(OpId(2), OpStatus::kScheduled);  // requeued mid-window
  nib.apply_eventual();
  EXPECT_EQ(nib.op_status(OpId(1)), OpStatus::kDone);
  EXPECT_EQ(nib.op_status(OpId(2)), OpStatus::kScheduled);
  EXPECT_EQ(nib.view_installed(SwitchId(0)).count(OpId(1)), 1u);
  EXPECT_EQ(nib.view_installed(SwitchId(0)).count(OpId(2)), 0u);
}

TEST(NibEventualLog, StrongBarrierPublishesEverything) {
  ConsistencyConfig config;
  config.eventual_installs = true;
  Nib nib = eventual_nib(2, config);
  nib.eventual_commit_batch(SwitchId(0), {install_op(1, 0)});
  nib.eventual_commit_batch(SwitchId(0), {install_op(2, 0)});
  EXPECT_EQ(nib.eventual_pending(), 2u);
  EXPECT_EQ(nib.strong_barrier(), 2u);
  EXPECT_EQ(nib.eventual_pending(), 0u);
  EXPECT_EQ(nib.eventual_barrier_count(), 1u);
  EXPECT_EQ(nib.strong_commits_with_pending(), 0u);
  // Barrier on an empty log is free (doesn't even count).
  EXPECT_EQ(nib.strong_barrier(), 0u);
  EXPECT_EQ(nib.eventual_barrier_count(), 1u);
}

TEST(NibEventualLog, WakeFiresOnEmptyToNonEmptyTransition) {
  ConsistencyConfig config;
  config.eventual_installs = true;
  Nib nib = eventual_nib(3, config);
  std::size_t wakes = 0;
  nib.set_eventual_wake([&] { ++wakes; });
  nib.eventual_commit_batch(SwitchId(0), {install_op(1, 0)});
  nib.eventual_commit_batch(SwitchId(0), {install_op(2, 0)});
  EXPECT_EQ(wakes, 1u);  // second append found a non-empty log
  nib.strong_barrier();
  nib.eventual_commit_batch(SwitchId(0), {install_op(3, 0)});
  EXPECT_EQ(wakes, 2u);
}

TEST(NibEventualLog, BugSkipBarrierTripsTheE2Counter) {
  // The deliberate defect: strong_barrier() is a no-op, so a delete-bearing
  // (strong-class) commit executes with eventual entries pending — exactly
  // what the E2 counter records and every oracle asserts to be zero.
  ConsistencyConfig config;
  config.eventual_installs = true;
  config.bug_skip_barrier = true;
  Nib nib = eventual_nib(2, config);
  Op del = delete_op(10, 0, 2);
  nib.put_op(del);
  nib.set_op_status(del.id, OpStatus::kScheduled);
  nib.set_op_status(del.id, OpStatus::kSent);
  nib.eventual_commit_batch(SwitchId(0), {install_op(1, 0)});
  EXPECT_EQ(nib.strong_barrier(), 0u);  // no-op on the buggy build
  EXPECT_EQ(nib.eventual_pending(), 1u);
  nib.commit_ack_batch(SwitchId(0), {del});
  EXPECT_GE(nib.strong_commits_with_pending(), 1u);
}

TEST(Consistency, EventualModeConvergesToTheStrongFingerprint) {
  // Same topology, same workload, strong vs eventual: once the log drains
  // the NIB state must be identical — the knob changes visibility timing,
  // never the converged state.
  auto run = [](bool eventual) {
    ExperimentConfig config;
    config.seed = 21;
    config.kind = ControllerKind::kZenithNR;
    config.core.consistency.eventual_installs = eventual;
    Experiment exp(gen::figure2_diamond(), config);
    exp.start();
    Workload workload(&exp, 5);
    Dag dag = workload.initial_dag_for_pairs({{SwitchId(0), SwitchId(3)}});
    EXPECT_TRUE(exp.install_and_wait(std::move(dag), seconds(10)).has_value());
    exp.run_until([&] { return exp.nib().eventual_pending() == 0; },
                  seconds(5));
    return std::make_tuple(exp.nib().state_fingerprint(),
                           exp.nib().eventual_committed(),
                           exp.nib().strong_commits_with_pending());
  };
  auto [strong_fp, strong_committed, strong_e2] = run(false);
  auto [eventual_fp, eventual_committed, eventual_e2] = run(true);
  EXPECT_EQ(strong_fp, eventual_fp);
  // The strong run never touched the log; the eventual run lived off it.
  EXPECT_EQ(strong_committed, 0u);
  EXPECT_GT(eventual_committed, 0u);
  EXPECT_EQ(strong_e2, 0u);
  EXPECT_EQ(eventual_e2, 0u);
}

// ---- model-checker coverage (E1/E2 as reachability properties) ---------------

mc::CheckerOptions quick_options() {
  mc::CheckerOptions options;
  options.max_states = 2'000'000;
  options.time_limit_seconds = 60.0;
  return options;
}

TEST(McPipelineEventual, TinyInstanceVerifiesWithEventualInstalls) {
  mc::ModelConfig config = mc::ModelConfig::tiny_instance();
  config.eventual_installs = true;
  mc::CheckResult result = mc::check(mc::PipelineModel(config),
                                     quick_options());
  EXPECT_TRUE(result.ok) << result.violation;
  EXPECT_FALSE(result.capped);
  // The eventual log adds interleavings over the classic instance.
  mc::CheckResult classic = mc::check(
      mc::PipelineModel(mc::ModelConfig::tiny_instance()), quick_options());
  EXPECT_GT(result.distinct_states, classic.distinct_states);
}

TEST(McPipelineEventual, Table4InstanceVerifiesWithEventualInstalls) {
  mc::ModelConfig config = mc::ModelConfig::table4_instance();
  config.eventual_installs = true;
  config.opt_por = true;
  mc::CheckResult result = mc::check(mc::PipelineModel(config),
                                     quick_options());
  EXPECT_TRUE(result.ok) << result.violation;
  EXPECT_FALSE(result.capped);
}

TEST(McPipelineEventual, SkippedBarrierYieldsE2Counterexample) {
  // An install and an independent delete: with the barrier skipped there is
  // an interleaving where the delete's (strong-class) ACK commits while the
  // install's eventual entry is still pending — the checker must find it,
  // and must NOT find it on the correct build (previous tests).
  mc::ModelConfig config;
  config.num_switches = 1;
  config.num_workers = 1;
  config.max_switch_failures = 0;
  mc::ModelOp install{.sw = 0, .preds = {}, .dag = 0};
  mc::ModelOp del{.sw = 0, .preds = {}, .dag = 0};
  del.is_delete = true;
  config.ops = {install, del};
  config.eventual_installs = true;
  config.bug_skip_barrier = true;
  mc::CheckResult result = mc::check(mc::PipelineModel(config),
                                     quick_options());
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("E2"), std::string::npos)
      << result.violation;

  // Same instance, barrier intact: exhaustively clean.
  config.bug_skip_barrier = false;
  mc::CheckResult clean = mc::check(mc::PipelineModel(config),
                                    quick_options());
  EXPECT_TRUE(clean.ok) << clean.violation;
}

TEST(McReplEventual, LeaderlessEventualStreamVerifies) {
  // The availability property as model coverage: eventual submits stay
  // enabled while the shard is leaderless (kill interleavings included) and
  // no reachable state puts a replica's cursor past the submitted prefix.
  mc::ReplModelConfig config;
  config.max_appends = 2;
  config.max_kills = 1;
  config.max_eventual_submits = 2;
  mc::ReplModelResult result = mc::check_repl_model(config);
  EXPECT_FALSE(result.violation_found)
      << result.violation << "\nvia: " << result.counterexample;
  EXPECT_GT(result.states_explored, 100u);
}

TEST(McReplEventual, OverDeliveryYieldsCursorCounterexample) {
  mc::ReplModelConfig config;
  config.max_appends = 0;
  config.max_kills = 0;
  config.max_eventual_submits = 1;
  config.bug_eventual_over_deliver = true;
  mc::ReplModelResult result = mc::check_repl_model(config);
  ASSERT_TRUE(result.violation_found);
  EXPECT_NE(result.violation.find("eventual cursor"), std::string::npos)
      << result.violation;
  EXPECT_FALSE(result.counterexample.empty());
}

// ---- repl eventual stream (runtime) ------------------------------------------

TEST(ReplEventualStream, DeliversWhileLeaderless) {
  // The availability win: eventual-class visibility keeps flowing to the
  // standbys while the strong commit path is blocked on an election.
  ExperimentConfig config;
  config.seed = 33;
  config.kind = ControllerKind::kZenithNR;
  config.core.repl.num_shards = 1;
  config.core.consistency.eventual_installs = true;
  Experiment exp(gen::figure2_diamond(), config);
  exp.start();
  Workload workload(&exp, 7);
  Dag dag = workload.initial_dag_for_pairs({{SwitchId(0), SwitchId(3)}});
  ASSERT_TRUE(exp.install_and_wait(std::move(dag), seconds(10)).has_value());
  repl::ReplicatedControlPlane* repl = exp.controller().repl();
  ASSERT_NE(repl, nullptr);

  repl->kill_shard_leader(0);
  const std::uint64_t before = repl->shard(0).eventual_submitted();
  repl->note_eventual(SwitchId(0), 3);
  EXPECT_EQ(repl->shard(0).eventual_submitted(), before + 3);
  // One replication hop later every live replica's cursor has advanced —
  // no election required (the strong log would still be refusing appends).
  exp.run_for(config.core.repl.replication_hop * 4);
  const repl::Shard& shard = repl->shard(0);
  for (std::size_t i = 0; i < shard.replicas().size(); ++i) {
    if (!shard.replicas()[i].alive) continue;
    EXPECT_EQ(shard.eventual_seen(i), before + 3) << "replica " << i;
  }
  repl->revive_shard(0);
  auto settled = exp.run_until([&] { return repl->settled(); }, seconds(10));
  EXPECT_TRUE(settled.has_value());
}

// ---- chaos grid with the lockstep oracle -------------------------------------

using chaos::CampaignConfig;
using chaos::CampaignResult;
using chaos::ChaosCampaign;
using chaos::TopologyKind;

CampaignConfig grid_config(chaos::TopologyKind topology, std::size_t size,
                           std::uint64_t seed) {
  CampaignConfig config;
  config.topology = topology;
  config.topology_size = size;
  config.seed = seed;
  config.schedule.horizon = seconds(4);
  config.schedule.fault_count = 8;
  config.initial_flows = 4;
  config.core.consistency.eventual_installs = true;
  config.lockstep = true;
  return config;
}

TEST(ConsistencyChaos, EventualGridHoldsE1E2UnderLockstep) {
  mc::enable_campaign_lockstep_oracle();
  struct Cell {
    TopologyKind topology;
    std::size_t size;
    std::uint64_t seed;
  };
  const Cell cells[] = {
      {TopologyKind::kFatTree, 4, 101},
      {TopologyKind::kKdlLike, 14, 102},
      {TopologyKind::kRandomConnected, 12, 103},
      {TopologyKind::kRing, 8, 104},
  };
  std::size_t eventual_commits = 0;
  for (const Cell& cell : cells) {
    // Every cell at one NIB shard (the default) and at four.
    for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      CampaignConfig config = grid_config(cell.topology, cell.size, cell.seed);
      config.core.nib_shards = shards;
      ChaosCampaign campaign(config);
      CampaignResult result = campaign.run();
      EXPECT_TRUE(result.ok)
          << chaos::to_string(cell.topology) << " seed " << cell.seed
          << " nib_shards " << shards << ": " << result.summary();
      eventual_commits += result.stats.eventual_commits;
      EXPECT_EQ(result.stats.strong_barriers,
                result.stats.strong_barriers);  // telemetry present
      // Determinism: the eventual path stays a pure function of the seed.
      ChaosCampaign rerun(config);
      EXPECT_EQ(rerun.run().verdict_digest(), result.verdict_digest());
    }
  }
  EXPECT_GT(eventual_commits, 0u)
      << "the grid never exercised the eventual path";
}

TEST(ConsistencyChaos, ReplicatedEventualCellHoldsUnderLeaderFaults) {
  mc::enable_campaign_lockstep_oracle();
  CampaignConfig config = grid_config(TopologyKind::kFatTree, 4, 107);
  config.core.repl.num_shards = 2;
  config.schedule.weights.repl_kill_leader = 0.25;
  config.schedule.weights.repl_partition_leader = 0.15;
  config.schedule.weights.repl_lease_stall = 0.1;
  ChaosCampaign campaign(config);
  CampaignResult result = campaign.run();
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_GT(result.stats.eventual_commits, 0u);
}

TEST(ConsistencyChaos, SkippedBarrierCampaignTripsTheE2Oracle) {
  // The buggy build under a cadence that keeps the eventual log populated
  // when delete-bearing (strong) batches commit: the campaign's E2 oracle
  // must flag it, and the same seed with the barrier intact must be green.
  CampaignConfig config = grid_config(TopologyKind::kDiamond, 0, 109);
  config.lockstep = false;  // the campaign's own oracle is under test here
  config.initial_flows = 6;
  config.update_period = millis(5);  // updates overlap each other's deletes
  config.core.consistency.staleness_bound = 16;
  config.core.eventual_apply_service = millis(2);  // slow pump: log lingers
  config.core.consistency.bug_skip_barrier = true;
  ChaosCampaign buggy(config);
  CampaignResult bad = buggy.run();
  ASSERT_FALSE(bad.ok) << "E2 oracle never tripped: " << bad.summary();
  bool found_e2 = false;
  for (const std::string& violation : bad.violations) {
    if (violation.find("E2") != std::string::npos) found_e2 = true;
  }
  EXPECT_TRUE(found_e2) << bad.summary();

  CampaignConfig fixed = config;
  fixed.core.consistency.bug_skip_barrier = false;
  ChaosCampaign clean(fixed);
  CampaignResult good = clean.run();
  EXPECT_TRUE(good.ok) << good.summary();
}

}  // namespace
}  // namespace zenith
