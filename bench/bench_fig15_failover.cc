// Figure 15: planned OFC failover. Five orchestrated failover scenarios,
// 10 runs each: ZENITH drains in-flight ACKs before moving the master role
// (bounded, small convergence); PR fails over immediately and loses
// in-flight ACKs, paying deadlock-timeout/reconciliation tax at the tail.
#include "core/controller.h"
#include "bench_util.h"
#include "topo/generators.h"

namespace zenith {
namespace {

enum class Scenario {
  kIdle,            // failover with a quiet controller
  kMidInstall,      // failover while a DAG is installing
  kWithSwitchChurn, // a transient switch failure overlaps the failover
  kWithCrash,       // a component crash overlaps the failover
  kBackToBack,      // two failovers in sequence with traffic
};

const char* name_of(Scenario s) {
  switch (s) {
    case Scenario::kIdle: return "idle";
    case Scenario::kMidInstall: return "mid-install";
    case Scenario::kWithSwitchChurn: return "switch-churn";
    case Scenario::kWithCrash: return "component-crash";
    case Scenario::kBackToBack: return "back-to-back";
  }
  return "?";
}

std::optional<SimTime> run(Scenario scenario, ControllerKind kind,
                           std::uint64_t seed) {
  ExperimentConfig config;
  config.seed = seed;
  config.kind = kind;
  config.reconciliation_period = seconds(30);
  Experiment exp(gen::kdl_like(20, 6), config);
  exp.start();
  Workload workload(&exp, seed + 5);
  Dag initial = workload.initial_dag(6);
  if (!exp.install_and_wait(std::move(initial), seconds(30)).has_value()) {
    return std::nullopt;
  }
  bool drain_first = !is_pr_variant(kind);

  std::optional<DagId> pending;
  switch (scenario) {
    case Scenario::kIdle:
      break;
    case Scenario::kMidInstall:
    case Scenario::kBackToBack: {
      auto dag = workload.reroute_dag();
      if (dag.has_value()) {
        pending = dag->id();
        exp.controller().submit_dag(std::move(*dag));
        // Orchestrated timing (the paper replays TO traces here): the
        // failover fires at the instant an ACK sits at the old instance,
        // received but not yet processed into the NIB. A drained handover
        // processes it first; an abrupt one loses it.
        exp.config().poll_interval = micros(20);
        (void)exp.run_until(
            [&] { return !exp.fabric().replies().empty(); }, millis(30));
        exp.config().poll_interval = millis(1);
      }
      break;
    }
    case Scenario::kWithSwitchChurn:
      exp.fabric().inject_failure(SwitchId(3),
                                  FailureMode::kCompleteTransient);
      exp.run_for(millis(100));
      exp.fabric().inject_recovery(SwitchId(3));
      break;
    case Scenario::kWithCrash:
      exp.controller().crash_component("monitoring0");
      break;
  }

  SimTime start = exp.sim().now();
  std::size_t completed = 0;
  // Direct, synchronous failover request (the management app path is
  // exercised in apps_test; here timing precision matters).
  exp.controller().planned_ofc_failover([&](SimTime) { ++completed; },
                                        drain_first);
  std::size_t wanted = 1;
  if (scenario == Scenario::kBackToBack) wanted = 2;
  bool second_requested = false;
  // Convergence: all failovers completed, pending DAG converged, and the
  // controller is consistent with the data plane.
  auto done = exp.run_until(
      [&] {
        if (completed >= 1 && wanted == 2 && !second_requested) {
          second_requested = true;
          exp.controller().planned_ofc_failover(
              [&](SimTime) { ++completed; }, drain_first);
        }
        if (completed < wanted) return false;
        if (pending.has_value() && !exp.checker().converged(*pending)) {
          return false;
        }
        return exp.nib().ops_with_status(OpStatus::kSent).empty();
      },
      seconds(120));
  if (!done.has_value()) return std::nullopt;
  return exp.sim().now() - start;
}

}  // namespace
}  // namespace zenith

int main() {
  using namespace zenith;
  benchutil::banner(
      "Figure 15: planned OFC failover (5 scenarios x 10 runs)",
      "ZENITH's convergence is bounded and small; vs PR it is 2.3x faster "
      "on average, 3.8x at p99, with far lower variance");

  const Scenario scenarios[] = {Scenario::kIdle, Scenario::kMidInstall,
                                Scenario::kWithSwitchChurn,
                                Scenario::kWithCrash, Scenario::kBackToBack};
  Summary zenith_all, pr_all;
  std::size_t zenith_dnf = 0, pr_dnf = 0;

  std::printf("\n(15b) per-scenario convergence [median (min..max) s]:\n");
  std::printf("%-18s %-24s %-24s\n", "scenario", "ZENITH", "PR");
  for (Scenario scenario : scenarios) {
    Summary zenith_s, pr_s;
    for (std::uint64_t run_idx = 0; run_idx < 10; ++run_idx) {
      auto z = run(scenario, ControllerKind::kZenithNR, 100 + run_idx);
      auto p = run(scenario, ControllerKind::kPr, 100 + run_idx);
      if (z.has_value()) {
        zenith_s.add(to_seconds(*z));
        zenith_all.add(to_seconds(*z));
      } else {
        ++zenith_dnf;
      }
      if (p.has_value()) {
        pr_s.add(to_seconds(*p));
        pr_all.add(to_seconds(*p));
      } else {
        ++pr_dnf;
      }
    }
    auto spread = [](const Summary& s) -> std::string {
      if (s.empty()) return "DNF";
      return TablePrinter::fmt(s.median(), 2) + " (" +
             TablePrinter::fmt(s.min(), 2) + ".." +
             TablePrinter::fmt(s.max(), 2) + ")";
    };
    std::printf("%-18s %-24s %-24s\n", name_of(scenario),
                spread(zenith_s).c_str(), spread(pr_s).c_str());
  }

  std::printf("\n(15a) aggregate:\n");
  TablePrinter table({"system", "mean(s)", "p99(s)", "DNF"});
  table.add_row({"ZENITH", TablePrinter::fmt(zenith_all.mean(), 2),
                 TablePrinter::fmt(zenith_all.p99(), 2),
                 std::to_string(zenith_dnf)});
  table.add_row({"PR", TablePrinter::fmt(pr_all.mean(), 2),
                 TablePrinter::fmt(pr_all.p99(), 2), std::to_string(pr_dnf)});
  std::printf("%s", table.to_string().c_str());
  benchutil::print_cdf("ZENITH", zenith_all);
  benchutil::print_cdf("PR", pr_all);
  std::printf(
      "\nshape check: mean ratio PR/ZENITH = %.1fx (paper 2.3x), p99 ratio "
      "= %.1fx (paper 3.8x)\n",
      pr_all.mean() / zenith_all.mean(), pr_all.p99() / zenith_all.p99());
  return 0;
}
