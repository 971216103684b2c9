// Shows that each correctness check the benchmark runs can fail: every
// check gets a real output, which it must accept, and a corrupted one,
// which it must report. Exit code 0 only when every case behaves.
//
//   cmake --build .bench_build --target check_test && .bench_build/check_test
#include <cstdio>
#include <string>

#include "harness/experiment.h"
#include "harness/workload.h"
#include "mc/lockstep.h"
#include "topo/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace zenith;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void tables_and_applies() {
  ExperimentConfig config;
  config.seed = 3;
  Experiment exp(gen::fat_tree(4), config);
  exp.start();
  std::uint64_t applies = 0;
  exp.fabric().set_apply_observer(
      [&applies](SwitchId, const Op&) { ++applies; });
  Workload workload(&exp, 3);
  Dag dag = workload.initial_dag(6);
  std::size_t ops = dag.size();
  expect(exp.install_and_wait(std::move(dag), seconds(10)).has_value(),
         "fat_tree(4) DAG converges");
  std::vector<std::uint32_t> expected;
  for (const Op& op : workload.all_flow_ops()) expected.push_back(op.id.value());
  std::sort(expected.begin(), expected.end());

  TableSnapshot snapshot = snapshot_tables(exp.fabric(), exp.nib());
  expect(check_tables(snapshot, expected).empty(),
         "tables: converged deployment passes");
  for (auto& table : snapshot.table) {
    if (!table.empty()) {
      table.pop_back();
      break;
    }
  }
  expect(!check_tables(snapshot, expected).empty(),
         "tables: one switch-table entry removed is reported");
  std::vector<std::uint32_t> extra = expected;
  extra.push_back(expected.back() + 1000);
  expect(!check_tables(snapshot_tables(exp.fabric(), exp.nib()), extra).empty(),
         "tables: an expected entry missing from every table is reported");

  expect(check_applies(applies, ops).empty(), "applies: real count passes");
  expect(!check_applies(ops - 1, ops).empty(),
         "applies: fewer applies than converged OPs is reported");
}

void wire() {
  netd::WireScenarioConfig config;
  config.seed = 42;
  config.flows = 8;
  config.churn_updates = 6;
  config.target_ops = 500;
  config.drain_rounds = 1;
  std::vector<Dag> dags = wire_dag_sequence(config, nullptr);
  std::uint64_t ours = sim_bus_fingerprint(config, dags);
  netd::WireScenarioReport scenario = netd::run_wire_scenario_sim(config);
  expect(scenario.converged && scenario.dags == dags.size() &&
             ours == scenario.fingerprint,
         "wire: pre-generated DAG sequence reproduces run_wire_scenario");
  expect(check_fingerprint(ours, scenario.fingerprint).empty(),
         "fingerprint: equal fingerprints pass");
  expect(!check_fingerprint(ours ^ 1, scenario.fingerprint).empty(),
         "fingerprint: a different final fingerprint is reported");
  expect(check_frames(99, 100).empty(), "frames: frames sent minus Hello");
  expect(!check_frames(100, 100).empty(),
         "frames: a request count off by one is reported");
}

void chaos_checks() {
  mc::enable_campaign_lockstep_oracle();
  chaos::CampaignResult clean = chaos::ChaosCampaign(chaos_campaign(1, 0)).run();
  expect(check_campaign(clean, "clean").empty(), "campaign: clean run passes");
  chaos::CampaignResult again = chaos::ChaosCampaign(chaos_campaign(1, 0)).run();
  expect(check_digest(clean.verdict_digest(), again.verdict_digest(), "rerun")
             .empty(),
         "digest: a re-run seed reproduces its verdict digest");
  expect(!check_digest(clean.verdict_digest(), again.verdict_digest() + 1,
                       "rerun")
              .empty(),
         "digest: a different digest is reported");

  for (const char* knob : {"repl.bug_commit_before_quorum",
                           "consistency.bug_skip_barrier"}) {
    std::vector<chaos::CampaignResult> set;
    bool reported = false;
    for (std::size_t i = 0; i < 16; ++i) {
      chaos::CampaignConfig config = chaos_campaign(1, i);
      if (std::string(knob) == "repl.bug_commit_before_quorum") {
        config.core.repl.bug_commit_before_quorum = true;
      } else {
        config.core.consistency.bug_skip_barrier = true;
      }
      set.push_back(chaos::ChaosCampaign(config).run());
      if (!check_campaign(set.back(), knob).empty()) reported = true;
    }
    expect(reported, std::string("campaign: a campaign with ") + knob +
                         " is reported");
    expect(check_defect_flagged(set, knob).empty(),
           std::string("defect set: ") + knob + " set counts as flagged");
  }
  expect(!check_defect_flagged({clean, again}, "none").empty(),
         "defect set: a set nothing flags is reported");
}

void model() {
  mc::ReplModelConfig config;
  config.replicas = 3;
  config.max_appends = 2;
  config.max_kills = 1;
  mc::ReplModelResult serial = mc::check_repl_model(config);
  ModelCounts counts{serial.states_explored, serial.transitions,
                     serial.diameter};
  config.threads = 2;
  expect(check_model(mc::check_repl_model(config), counts, "t2").empty(),
         "model: threads=2 matches threads=1");
  ModelCounts off = counts;
  ++off.transitions;
  expect(!check_model(serial, off, "off").empty(),
         "model: a transition count off by one is reported");

  mc::ReplModelConfig buggy;
  buggy.max_appends = 0;
  buggy.max_kills = 0;
  buggy.max_eventual_submits = 1;
  buggy.bug_eventual_over_deliver = true;
  mc::ReplModelResult bad = mc::check_repl_model(buggy);
  expect(!check_model(bad, {bad.states_explored, bad.transitions,
                            bad.diameter},
                      "over-deliver")
              .empty(),
         "model: bug_eventual_over_deliver is reported");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::tables_and_applies();
  perfbench::wire();
  perfbench::chaos_checks();
  perfbench::model();
  std::printf("%s: %d failure(s)\n",
              perfbench::failures == 0 ? "PASS" : "FAIL",
              perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
