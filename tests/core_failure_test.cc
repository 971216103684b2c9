// ZENITH-core under the failure matrix of Table 3: switch failures (all
// three modes), component crashes, complete microservice failures, and the
// §G ordering-bug regression.
#include <gtest/gtest.h>

#include <stdexcept>

#include "dag/compiler.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "topo/generators.h"

namespace zenith {
namespace {

ExperimentConfig zenith_config(std::uint64_t seed = 7,
                               ControllerKind kind = ControllerKind::kZenithNR) {
  ExperimentConfig config;
  config.seed = seed;
  config.kind = kind;
  return config;
}

// Installs a 1-flow DAG on a diamond and returns (experiment ready to go).
struct DiamondSetup {
  std::unique_ptr<Experiment> exp;
  std::unique_ptr<Workload> workload;
  DagId initial;
};

DiamondSetup diamond_with_flow(ControllerKind kind, std::uint64_t seed = 7) {
  DiamondSetup setup;
  setup.exp = std::make_unique<Experiment>(gen::figure2_diamond(),
                                           zenith_config(seed, kind));
  setup.exp->start();
  setup.workload = std::make_unique<Workload>(setup.exp.get(), seed + 1);
  Dag dag =
      setup.workload->initial_dag_for_pairs({{SwitchId(0), SwitchId(3)}});
  setup.initial = dag.id();
  EXPECT_TRUE(
      setup.exp->install_and_wait(std::move(dag), seconds(10)).has_value());
  return setup;
}

TEST(CoreSwitchFailure, CompleteTransientRecoversViaClearAndReinstall) {
  auto setup = diamond_with_flow(ControllerKind::kZenithNR);
  Experiment& exp = *setup.exp;

  // The flow's path goes through B (sw1, shortest). Kill B completely.
  exp.fabric().inject_failure(SwitchId(1), FailureMode::kCompleteTransient);
  exp.run_for(seconds(1));
  exp.fabric().inject_recovery(SwitchId(1));

  // Controller must converge back: clear B, reset its OPs, re-install.
  auto recovered = exp.run_until(
      [&] { return exp.checker().converged(setup.initial); }, seconds(30));
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(exp.order_checker().ok());
  auto report = exp.checker().check(setup.initial);
  EXPECT_TRUE(report.view_consistent)
      << (report.diffs.empty() ? "" : report.diffs.front());
}

TEST(CoreSwitchFailure, PartialTransientKeepsTcamButStillReconverges) {
  auto setup = diamond_with_flow(ControllerKind::kZenithNR, 11);
  Experiment& exp = *setup.exp;
  exp.fabric().inject_failure(SwitchId(1), FailureMode::kPartialTransient);
  exp.run_for(millis(300));
  exp.fabric().inject_recovery(SwitchId(1));
  auto recovered = exp.run_until(
      [&] { return exp.checker().converged(setup.initial); }, seconds(30));
  ASSERT_TRUE(recovered.has_value());
}

TEST(CoreSwitchFailure, DirectedReconciliationAdoptsSurvivingState) {
  // ZENITH-DR: a partial failure keeps the TCAM; DR should diff instead of
  // wiping, so surviving rules are adopted, not reinstalled.
  auto setup = diamond_with_flow(ControllerKind::kZenithDR, 13);
  Experiment& exp = *setup.exp;
  std::size_t table_before = exp.fabric().at(SwitchId(1)).table_size();
  exp.fabric().inject_failure(SwitchId(1), FailureMode::kPartialTransient);
  exp.run_for(millis(300));
  exp.fabric().inject_recovery(SwitchId(1));
  auto recovered = exp.run_until(
      [&] { return exp.checker().converged(setup.initial); }, seconds(30));
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(exp.fabric().at(SwitchId(1)).table_size(), table_before);
  // No duplicate install happened for the surviving entry.
  DuplicateInstallMonitor dup(&exp.order_checker());
  EXPECT_EQ(dup.duplicate_installs(), 0u);
}

TEST(CoreSwitchFailure, PermanentFailureThenAppRepairConverges) {
  auto setup = diamond_with_flow(ControllerKind::kZenithNR, 17);
  Experiment& exp = *setup.exp;
  exp.fabric().inject_failure(SwitchId(1), FailureMode::kCompletePermanent);
  exp.run_for(seconds(1));
  // The app reroutes around the dead switch (Figure 5's third DAG).
  auto repair = setup.workload->repair_dag({SwitchId(1)});
  ASSERT_TRUE(repair.has_value());
  auto latency = exp.install_and_wait(std::move(*repair), seconds(30));
  ASSERT_TRUE(latency.has_value());
  // Traffic must flow via C (sw2).
  EXPECT_TRUE(exp.fabric().at(SwitchId(2)).lookup(SwitchId(3)).has_value());
}

TEST(CoreComponentFailure, EachComponentCrashIsSurvivable) {
  // Crash every component of the wiring mid-installation — each pipeline
  // stage of every NIB shard included; the Watchdog restarts it and the DAG
  // still converges (Table 3 CP Partial).
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ExperimentConfig config = zenith_config(23);
    config.core.nib_shards = shards;
    for (const std::string& name :
         ZenithController::component_names(config.core)) {
      Experiment exp(gen::linear(6), config);
      exp.start();
      Workload workload(&exp, 29);
      Dag dag = workload.initial_dag_for_pairs(
          {{SwitchId(0), SwitchId(5)}, {SwitchId(5), SwitchId(0)}});
      DagId id = dag.id();
      exp.order_checker().register_dag(dag);
      exp.controller().submit_dag(std::move(dag));
      // Crash shortly after submission (mid-pipeline).
      exp.run_for(millis(2));
      exp.controller().crash_component(name);
      auto converged = exp.run_until(
          [&] { return exp.checker().converged(id); }, seconds(30));
      EXPECT_TRUE(converged.has_value())
          << "crash of " << name << " deadlocked (shards=" << shards << ")";
      EXPECT_TRUE(exp.order_checker().ok())
          << "order violated after " << name << " (shards=" << shards << ")";
    }
  }
}

TEST(CoreComponentFailure, CrashOfUnknownComponentIsAnError) {
  // A crash aimed at a component the wiring lacks must not pass silently.
  Experiment exp(gen::linear(3), zenith_config(5));
  exp.start();
  EXPECT_THROW(exp.controller().crash_component("monitoring"),
               std::invalid_argument);
  EXPECT_THROW(exp.controller().crash_component("nib_event_handler"),
               std::invalid_argument);
  EXPECT_NO_THROW(exp.controller().crash_component("monitoring0"));
}

TEST(CoreComponentFailure, RepeatedWorkerCrashesDoNotLoseOps) {
  Experiment exp(gen::linear(8), zenith_config(31));
  exp.start();
  Workload workload(&exp, 37);
  Dag dag = workload.initial_dag_for_pairs({{SwitchId(0), SwitchId(7)}});
  DagId id = dag.id();
  exp.order_checker().register_dag(dag);
  exp.controller().submit_dag(std::move(dag));
  for (int i = 0; i < 5; ++i) {
    exp.run_for(millis(1));
    exp.controller().crash_component("worker" +
                                     std::to_string(i % 4));
  }
  auto converged =
      exp.run_until([&] { return exp.checker().converged(id); }, seconds(30));
  ASSERT_TRUE(converged.has_value());
}

TEST(CoreMicroserviceFailure, CompleteOfcFailureRecoversViaStandby) {
  auto setup = diamond_with_flow(ControllerKind::kZenithNR, 41);
  Experiment& exp = *setup.exp;
  // New DAG in flight when the whole OFC dies.
  auto reroute = setup.workload->reroute_dag();
  ASSERT_TRUE(reroute.has_value());
  DagId id = reroute->id();
  exp.order_checker().register_dag(*reroute);
  exp.controller().submit_dag(std::move(*reroute));
  exp.run_for(millis(3));
  exp.controller().crash_ofc();
  auto converged =
      exp.run_until([&] { return exp.checker().converged(id); }, seconds(30));
  ASSERT_TRUE(converged.has_value());
  EXPECT_TRUE(exp.order_checker().ok());
}

TEST(CoreMicroserviceFailure, CompleteDeFailureRecoversViaStandby) {
  auto setup = diamond_with_flow(ControllerKind::kZenithNR, 43);
  Experiment& exp = *setup.exp;
  auto reroute = setup.workload->reroute_dag();
  ASSERT_TRUE(reroute.has_value());
  DagId id = reroute->id();
  exp.controller().submit_dag(std::move(*reroute));
  exp.run_for(millis(1));
  exp.controller().crash_de();
  auto converged =
      exp.run_until([&] { return exp.checker().converged(id); }, seconds(30));
  ASSERT_TRUE(converged.has_value());
}

TEST(CorePlannedFailover, DrainedFailoverIsHitlessAndBounded) {
  auto setup = diamond_with_flow(ControllerKind::kZenithNR, 47);
  Experiment& exp = *setup.exp;
  SimTime done_at = kSimTimeNever;
  exp.controller().planned_ofc_failover(
      [&](SimTime t) { done_at = t; }, /*drain_first=*/true);
  auto finished =
      exp.run_until([&] { return done_at != kSimTimeNever; }, seconds(10));
  ASSERT_TRUE(finished.has_value());
  // All switches now follow the new master instance.
  for (SwitchId sw : exp.nib().switches()) {
    EXPECT_EQ(exp.fabric().at(sw).controller_role(), 1);
  }
  // Nothing is stuck in SENT (the drain guaranteed ACK processing).
  EXPECT_TRUE(exp.nib().ops_with_status(OpStatus::kSent).empty());
}

TEST(CorePlannedFailover, ConcurrentRequestIsALoggedNoOp) {
  // A second planned-failover request while one is in flight must not
  // restart the drain or re-target the role change: the collected ACK set
  // would be split across two targets and the handoff could complete
  // against neither. The guard drops it (with the caller's callback) and
  // the first handoff completes exactly once.
  auto setup = diamond_with_flow(ControllerKind::kZenithNR, 59);
  Experiment& exp = *setup.exp;
  SimTime first_done = kSimTimeNever;
  SimTime second_done = kSimTimeNever;
  std::size_t first_calls = 0;
  exp.controller().planned_ofc_failover(
      [&](SimTime t) {
        first_done = t;
        ++first_calls;
      },
      /*drain_first=*/true);
  // Re-entrant requests while the drain is in progress: one drained, one
  // PR-style immediate — both must be dropped without re-targeting.
  exp.controller().planned_ofc_failover([&](SimTime t) { second_done = t; },
                                        /*drain_first=*/true);
  exp.controller().planned_ofc_failover([&](SimTime t) { second_done = t; },
                                        /*drain_first=*/false);
  auto finished =
      exp.run_until([&] { return first_done != kSimTimeNever; }, seconds(10));
  ASSERT_TRUE(finished.has_value());
  exp.run_for(seconds(1));
  EXPECT_EQ(first_calls, 1u);
  EXPECT_EQ(second_done, kSimTimeNever)
      << "ignored request's callback fired anyway";
  // Exactly one instance advance: 0 -> 1, not 2.
  for (SwitchId sw : exp.nib().switches()) {
    EXPECT_EQ(exp.fabric().at(sw).controller_role(), 1);
  }
  // The failover manager is idle again: a fresh request is accepted.
  SimTime third_done = kSimTimeNever;
  exp.controller().planned_ofc_failover([&](SimTime t) { third_done = t; },
                                        /*drain_first=*/true);
  auto again =
      exp.run_until([&] { return third_done != kSimTimeNever; }, seconds(10));
  ASSERT_TRUE(again.has_value());
  for (SwitchId sw : exp.nib().switches()) {
    EXPECT_EQ(exp.fabric().at(sw).controller_role(), 2);
  }
}

TEST(CoreMicroserviceFailure, OfcCrashMidBatchRequeuesExactlyOnce) {
  // Regression for the batched-pipeline ghost-ACK race: OPs travel as a
  // kBatch (batch_size=4), the OFC dies while the batch-ACK is in flight,
  // and the standby requeues every SENT OP. If the crash does not also drop
  // the dead instance's in-flight socket traffic, the ghost ACK lands in
  // the *new* instance's reply queue, commits the requeued OPs to DONE, and
  // the still-queued requeue copies then get processed a second time — a
  // DONE->SENT status flap that no legitimate transition produces (resets
  // go DONE->NONE, takeovers SENT->SCHEDULED, dispatch SCHEDULED->SENT).
  // The flap is the exactly-once violation: one logical requeue, two
  // deliveries recorded. We sweep crash offsets because the vulnerable
  // window (ACK on the wire) moves with channel jitter.
  for (SimTime crash_after :
       {micros(600), micros(900), micros(1200), micros(1500), micros(1800)}) {
    ExperimentConfig config = zenith_config(61);
    config.core.batch_size = 4;
    Experiment exp(gen::linear(4), config);
    exp.start();

    // Watch the NIB event stream for the DONE->SENT signature.
    std::unordered_map<OpId, OpStatus> last_status;
    bool flap_seen = false;
    NadirFifo<NibEvent> probe;
    probe.set_wake_callback([&] {
      while (!probe.empty()) {
        NibEvent event = probe.pop();
        if (event.type != NibEvent::Type::kOpStatusChanged) continue;
        // A batch-ACK commit publishes one coalesced event for the whole
        // transaction; track every OP it covers.
        std::vector<OpId> covered =
            event.batch.empty() ? std::vector<OpId>{event.op} : event.batch;
        for (OpId id : covered) {
          auto it = last_status.find(id);
          if (it != last_status.end() && it->second == OpStatus::kDone &&
              event.op_status == OpStatus::kSent) {
            flap_seen = true;
          }
          last_status[id] = event.op_status;
        }
      }
    });
    exp.nib().subscribe(&probe);

    // Four flows over the same path: their same-switch OPs become ready in
    // one sequencer pass, so each hop carries a genuine 4-OP batch.
    Workload workload(&exp, 67);
    Dag dag = workload.initial_dag_for_pairs({{SwitchId(0), SwitchId(3)},
                                              {SwitchId(0), SwitchId(3)},
                                              {SwitchId(0), SwitchId(3)},
                                              {SwitchId(0), SwitchId(3)}});
    DagId id = dag.id();
    exp.order_checker().register_dag(dag);
    exp.controller().submit_dag(std::move(dag));
    exp.run_for(crash_after);
    exp.controller().crash_ofc();

    auto converged =
        exp.run_until([&] { return exp.checker().converged(id); }, seconds(30));
    ASSERT_TRUE(converged.has_value())
        << "no convergence after crash at +" << crash_after << "us";
    EXPECT_FALSE(flap_seen)
        << "ghost ACK reprocessed a requeued OP (crash at +" << crash_after
        << "us): in-flight batched OPs were not re-enqueued exactly once";
    EXPECT_TRUE(exp.order_checker().ok());
  }
}

TEST(CoreComponentFailure, WorkerCrashMidBatchRedeliversWithoutLoss) {
  // A single worker dying between batch dispatch steps must not lose or
  // double-enqueue the batch: the queue entry survives (ack-pop never ran),
  // the Watchdog restarts the worker, and reprocessing re-sends the whole
  // batch (idempotent by OP id). The NIB's worker-slot assert catches any
  // double-processing structurally; here we check end-to-end convergence.
  for (int i = 0; i < 4; ++i) {
    ExperimentConfig config = zenith_config(71 + i);
    config.core.batch_size = 4;
    Experiment exp(gen::linear(4), config);
    exp.start();
    Workload workload(&exp, 73);
    Dag dag = workload.initial_dag_for_pairs({{SwitchId(0), SwitchId(3)},
                                              {SwitchId(0), SwitchId(3)},
                                              {SwitchId(0), SwitchId(3)},
                                              {SwitchId(0), SwitchId(3)}});
    DagId id = dag.id();
    exp.order_checker().register_dag(dag);
    exp.controller().submit_dag(std::move(dag));
    exp.run_for(micros(200 + 300 * i));
    exp.controller().crash_component("worker" + std::to_string(i));
    auto converged =
        exp.run_until([&] { return exp.checker().converged(id); }, seconds(30));
    ASSERT_TRUE(converged.has_value()) << "worker" << i << " crash deadlocked";
    EXPECT_TRUE(exp.order_checker().ok());
  }
}

TEST(CoreRegression, MarkUpBeforeResetBugCausesHiddenEntry) {
  // §G / Figure A.8: switch fails and quickly recovers; the app installs a
  // new rule (OP1) on the recovered switch; with the buggy ordering, the
  // Topo Event Handler's (slow, deferred) OP reset then wipes OP1's DONE
  // record although OP1 is installed — the NIB has no record of an
  // installed rule. We detect the exact signature (installed rule whose OP
  // status is NONE on an UP switch) with fine-grained polling, since the
  // level-triggered sequencer eventually self-heals by re-installing.
  auto run_scenario = [](bool bug) {
    ExperimentConfig config = zenith_config(53);
    config.core.bugs.mark_up_before_reset = bug;
    Experiment exp(gen::figure2_diamond(), config);
    exp.start();
    Workload workload(&exp, 59);
    Dag initial =
        workload.initial_dag_for_pairs({{SwitchId(0), SwitchId(3)}});
    (void)exp.install_and_wait(std::move(initial), seconds(10));

    // Brief complete-transient failure of B (sw1).
    exp.fabric().inject_failure(SwitchId(1), FailureMode::kCompleteTransient);
    exp.run_for(millis(100));
    exp.fabric().inject_recovery(SwitchId(1));
    // Give the controller just enough time to mark the switch UP (buggy) or
    // finish reset-then-UP (fixed).
    exp.run_for(millis(40));

    // The app reacts to the recovery with a DAG installing OP1 on B.
    Dag dag(DagId(100));
    Op op1;
    op1.id = exp.op_ids().next();
    op1.type = OpType::kInstallRule;
    op1.sw = SwitchId(1);
    op1.rule = FlowRule{FlowId(50), SwitchId(1), SwitchId(3), SwitchId(3), 5};
    EXPECT_TRUE(dag.add_op(op1).ok());
    exp.controller().submit_dag(std::move(dag));

    // The inconsistency window can be microseconds wide (the sequencer
    // self-heals), so watch the NIB event stream: a DONE->NONE transition
    // while the rule is still installed on a healthy switch is the exact §G
    // signature.
    bool hidden_seen = false;
    NadirFifo<NibEvent> probe;
    probe.set_wake_callback([&] {
      while (!probe.empty()) {
        NibEvent event = probe.pop();
        if (event.type == NibEvent::Type::kOpStatusChanged &&
            event.op == op1.id && event.op_status == OpStatus::kNone &&
            exp.fabric().alive(event.sw) &&
            exp.fabric().at(event.sw).has_entry(event.op)) {
          hidden_seen = true;
        }
      }
    });
    exp.nib().subscribe(&probe);
    exp.run_for(seconds(2));
    return hidden_seen;
  };
  EXPECT_FALSE(run_scenario(false))
      << "fixed ordering must never leave hidden entries";
  EXPECT_TRUE(run_scenario(true))
      << "bug knob no longer reproduces the Figure A.8 inconsistency";
}

}  // namespace
}  // namespace zenith
