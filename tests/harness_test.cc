// Harness tests: workload generation, failure schedules, the experiment
// runner, and the reconciliation contention model's calibration knobs.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/workload.h"
#include "topo/generators.h"

namespace zenith {
namespace {

ExperimentConfig zenith_config(std::uint64_t seed = 3) {
  ExperimentConfig config;
  config.seed = seed;
  config.kind = ControllerKind::kZenithNR;
  return config;
}

TEST(WorkloadTest, InitialDagCoversRequestedFlows) {
  Experiment exp(gen::kdl_like(30, 2), zenith_config());
  exp.start();
  Workload workload(&exp, 5);
  Dag dag = workload.initial_dag(10);
  EXPECT_EQ(workload.flow_count(), 10u);
  EXPECT_GT(dag.size(), 0u);
  EXPECT_TRUE(dag.topological_order().ok());
  // Every flow got install ops.
  std::unordered_set<std::uint32_t> flows;
  for (const Op* op : dag.all_ops()) {
    if (op->type == OpType::kInstallRule) flows.insert(op->rule.flow.value());
  }
  EXPECT_EQ(flows.size(), 10u);
}

TEST(WorkloadTest, NextUpdateDagAlwaysAvailableOnChainHeavyGraphs) {
  // KDL-like graphs are chain heavy: reroutes often do not exist, but the
  // update stream must keep flowing (Figure 11's 5-minute loop).
  Experiment exp(gen::kdl_like(120, 7), zenith_config(9));
  exp.start();
  Workload workload(&exp, 11);
  (void)workload.initial_dag(10);
  int produced = 0;
  for (int i = 0; i < 200; ++i) {
    auto dag = workload.next_update_dag();
    if (dag.has_value()) ++produced;
  }
  EXPECT_GE(produced, 195) << "the update stream stalled";
}

TEST(WorkloadTest, UpdateDagsTouchFewSwitches) {
  Experiment exp(gen::kdl_like(200, 7), zenith_config(13));
  exp.start();
  Workload workload(&exp, 17);
  (void)workload.initial_dag(10);
  for (int i = 0; i < 50; ++i) {
    auto dag = workload.next_update_dag(/*max_hops=*/5);
    ASSERT_TRUE(dag.has_value());
    // "Each DAG only updates a portion of the topology (i.e., 5 switches)":
    // installs touch at most max_hops switches (deletions may touch the
    // outgoing path's too).
    std::unordered_set<SwitchId> installs_on;
    for (const Op* op : dag->all_ops()) {
      if (op->type == OpType::kInstallRule) installs_on.insert(op->sw);
    }
    EXPECT_LE(installs_on.size(), 5u);
  }
}

TEST(WorkloadTest, RepairDagAvoidsDeadSwitchesEntirely) {
  Experiment exp(gen::b4(), zenith_config(19));
  exp.start();
  Workload workload(&exp, 23);
  (void)workload.initial_dag_for_pairs(
      {{SwitchId(0), SwitchId(8)}, {SwitchId(1), SwitchId(11)}});
  auto repair = workload.repair_dag({SwitchId(4)});
  if (repair.has_value()) {
    for (const Op* op : repair->all_ops()) {
      EXPECT_NE(op->sw, SwitchId(4)) << to_string(*op);
      if (op->type == OpType::kInstallRule) {
        EXPECT_NE(op->rule.next_hop, SwitchId(4));
      }
    }
  }
}

// build_replacement assigns max + 1 from a running maximum; the reference
// is Listing 6's HighestPriorityInOPSet scan over every flow's current OPs.
TEST(WorkloadTest, ReplacementPriorityMatchesFullScan) {
  Experiment exp(gen::b4(), zenith_config(37));
  exp.start();
  Workload workload(&exp, 41);
  auto expect_scan_priority = [&](const std::optional<Dag>& dag, int want) {
    if (!dag.has_value()) return;
    for (const Op* op : dag->all_ops()) {
      if (op->type == OpType::kInstallRule) {
        EXPECT_EQ(op->rule.priority, want) << to_string(*op);
      }
    }
  };
  int want = highest_priority(workload.all_flow_ops()) + 1;
  expect_scan_priority(workload.initial_dag(6), want);
  for (int i = 0; i < 120; ++i) {
    want = highest_priority(workload.all_flow_ops()) + 1;
    switch (i % 4) {
      case 0:
        expect_scan_priority(workload.reroute_dag(), want);
        break;
      case 1:
        expect_scan_priority(
            workload.repair_dag({SwitchId(static_cast<std::uint32_t>(i % 12))}),
            want);
        break;
      case 2:
        expect_scan_priority(workload.initial_dag(1), want);
        break;
      default:
        expect_scan_priority(workload.next_update_dag(), want);
        break;
    }
  }
}

TEST(PreloadTest, BackgroundEntriesAreConsistentState) {
  Experiment exp(gen::linear(5), zenith_config(29));
  exp.start();
  preload_background_entries(exp, 100);
  for (SwitchId sw : exp.nib().switches()) {
    EXPECT_EQ(exp.fabric().at(sw).table_size(), 100u);
    EXPECT_EQ(exp.nib().view_installed(sw).size(), 100u);
  }
  // Consistent: the checker agrees.
  EXPECT_TRUE(exp.checker().check(std::nullopt).view_consistent);
  // And they do not disturb convergence of real DAGs.
  Workload workload(&exp, 31);
  Dag dag = workload.initial_dag_for_pairs({{SwitchId(0), SwitchId(4)}});
  EXPECT_TRUE(exp.install_and_wait(std::move(dag), seconds(10)).has_value());
}

TEST(FailureScheduleTest, RespectsConcurrencyCap) {
  Experiment exp(gen::kdl_like(50, 3), zenith_config(37));
  exp.start();
  FailurePlanConfig plan;
  plan.mean_gap = millis(200);
  plan.down_time = seconds(2);
  plan.max_concurrent = 1;
  plan.horizon = seconds(30);
  auto injected = schedule_switch_failures(exp, plan, 41);
  ASSERT_GT(injected.size(), 2u);
  // With down_time 2s and cap 1, admitted failures are >= 2s apart.
  for (std::size_t i = 1; i < injected.size(); ++i) {
    EXPECT_GE(injected[i].first - injected[i - 1].first, plan.down_time);
  }
}

TEST(FailureScheduleTest, InjectionsActuallyHappen) {
  Experiment exp(gen::kdl_like(20, 3), zenith_config(43));
  exp.start();
  FailurePlanConfig plan;
  plan.mean_gap = seconds(1);
  plan.down_time = millis(500);
  plan.horizon = seconds(10);
  auto injected = schedule_switch_failures(exp, plan, 47);
  ASSERT_GT(injected.size(), 0u);
  auto [when, sw] = injected.front();
  exp.run_until([&] { return !exp.fabric().alive(sw); }, seconds(15));
  EXPECT_FALSE(exp.fabric().alive(sw));
  // And it recovers.
  auto recovered = exp.run_until(
      [&] { return exp.fabric().alive(sw); }, seconds(15));
  EXPECT_TRUE(recovered.has_value());
}

TEST(ComponentScheduleTest, CrashesAreDeliveredAndWatchdogRecovers) {
  Experiment exp(gen::linear(4), zenith_config(53));
  exp.start();
  auto plan = schedule_component_failures(exp, seconds(1), seconds(5), 59);
  ASSERT_GT(plan.size(), 0u);
  exp.run_for(seconds(10));
  // Watchdog restarted everything.
  for (Component* c : exp.controller().components()) {
    EXPECT_TRUE(c->alive()) << c->name();
  }
  std::uint64_t crashes = 0;
  for (Component* c : exp.controller().components()) {
    crashes += c->crash_count();
  }
  EXPECT_GE(crashes, plan.size());
}

TEST(ExperimentTest, RunUntilTimesOutCleanly) {
  Experiment exp(gen::linear(3), zenith_config(61));
  exp.start();
  auto never = exp.run_until([] { return false; }, millis(50));
  EXPECT_FALSE(never.has_value());
  auto instant = exp.run_until([] { return true; }, millis(50));
  ASSERT_TRUE(instant.has_value());
  EXPECT_EQ(*instant, 0);
}

TEST(ExperimentTest, ScopedAndFullConvergenceAgreeOnSmallRuns) {
  ExperimentConfig config = zenith_config(67);
  Experiment exp(gen::b4(), config);
  exp.start();
  Workload workload(&exp, 71);
  Dag dag = workload.initial_dag(5);
  DagId id = dag.id();
  ASSERT_TRUE(exp.install_and_wait(std::move(dag), seconds(20)).has_value());
  EXPECT_TRUE(exp.checker().converged(id));
  EXPECT_TRUE(exp.checker().converged_scoped(id));
}

TEST(ReconcilerModel, SaturationGrowsBacklogButNotDeadlock) {
  // At a size where cycle work exceeds the period, PR's updates still make
  // (slow) progress through the courtesy gaps — the graceful-degradation
  // regime documented in DESIGN.md §4b.
  ExperimentConfig config;
  config.seed = 73;
  config.kind = ControllerKind::kPr;
  config.reconciliation_period = seconds(2);
  config.scoped_convergence = true;
  config.poll_interval = millis(5);
  Experiment exp(gen::kdl_like(60, 3), config);
  exp.start();
  preload_background_entries(exp, 3000);  // 60 x 3000 x 16us = 2.9s > 2s
  Workload workload(&exp, 79);
  Dag dag = workload.initial_dag(5);
  ASSERT_TRUE(exp.install_and_wait(std::move(dag), seconds(60)).has_value());
  exp.run_for(seconds(10));  // several saturated cycles
  auto update = workload.next_update_dag();
  ASSERT_TRUE(update.has_value());
  auto latency = exp.install_and_wait(std::move(*update), seconds(60));
  ASSERT_TRUE(latency.has_value()) << "saturated PR must still progress";
  EXPECT_GT(*latency, millis(1));
}

}  // namespace
}  // namespace zenith
