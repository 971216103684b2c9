// NADIR conformance (§5): the generated runtime must match the verified
// specification. We drive the same scenario through (a) the interpreted
// core spec (mc/core_spec) and (b) the hand-written simulator controller,
// and compare the externally observable outcome: which OPs end up
// installed, and which DAGs are certified.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "apps/drain_app.h"
#include "apps/drain_spec.h"
#include "golden_scenarios.h"
#include "harness/experiment.h"
#include "mc/core_spec.h"
#include "mc_golden_cells.h"
#include "nadir/interpreter.h"
#include "topo/generators.h"

namespace zenith {
namespace {

TEST(Conformance, DrainSpecComposedWithCoreMatchesSimulatedController) {
  // (a) Spec side: drain app + interpreted core pipeline to quiescence.
  apps::DrainSpecScenario scenario;  // diamond, drain sw1, flow 0-1-3
  nadir::Spec composed = mc::compose_app_with_core(
      apps::build_drain_spec(scenario), mc::CoreSpecScenario{});
  auto env = composed.make_initial_env();
  ASSERT_TRUE(env.ok());
  nadir::Interpreter::run_to_quiescence(composed, env.value());
  ASSERT_TRUE(composed.check_types(env.value()).ok());

  // Spec outcome: set of (sw, nh) pairs installed after the drain.
  std::set<std::pair<int, int>> spec_rules;
  for (const nadir::Value& op :
       env.value().globals.at("SwTable").as_set()) {
    spec_rules.emplace(static_cast<int>(op.field("sw").as_int()),
                       static_cast<int>(op.field("nh").as_int()));
  }
  EXPECT_EQ(env.value().globals.at("InstalledDags").size(), 1u);

  // (b) Runtime side: the same drain through the simulated controller.
  ExperimentConfig config;
  config.seed = 5;
  config.kind = ControllerKind::kZenithNR;
  Experiment exp(gen::figure2_diamond(), config);
  exp.start();
  CompiledPath initial_path = compile_single_path(
      {SwitchId(0), SwitchId(1), SwitchId(3)}, FlowId(1), 1, exp.op_ids());
  Dag initial(DagId(1));
  for (const Op& op : initial_path.ops) ASSERT_TRUE(initial.add_op(op).ok());
  for (auto [a, b] : initial_path.edges) {
    ASSERT_TRUE(initial.add_edge(a, b).ok());
  }
  ASSERT_TRUE(exp.install_and_wait(std::move(initial), seconds(10)).has_value());

  apps::DrainRequest request;
  request.topology = gen::figure2_diamond();
  request.paths = {{SwitchId(0), SwitchId(1), SwitchId(3)}};
  request.flows = {FlowId(1)};
  request.ops = initial_path.ops;
  request.node_to_drain = SwitchId(1);
  auto result = apps::compute_drain_dag(request, DagId(2), exp.op_ids());
  ASSERT_TRUE(result.ok());
  Dag drain_dag = result.value().dag;
  ASSERT_TRUE(
      exp.install_and_wait(std::move(drain_dag), seconds(10)).has_value());

  std::set<std::pair<int, int>> runtime_rules;
  for (SwitchId sw : exp.nib().switches()) {
    for (const auto& entry : exp.fabric().at(sw).table()) {
      runtime_rules.emplace(static_cast<int>(sw.value()),
                            static_cast<int>(entry.rule.next_hop.value()));
    }
  }

  // Conformance: identical final forwarding state (A->C, C->D).
  EXPECT_EQ(spec_rules, runtime_rules);
  EXPECT_EQ(spec_rules,
            (std::set<std::pair<int, int>>{{0, 2}, {2, 3}}));
}

TEST(Conformance, CoreSpecCertifiesExactlyWhatItInstalled) {
  // Property over the interpreted core: at quiescence, certified DAG ids
  // equal consumed DAG ids, and every non-deletion OP of a certified DAG is
  // in SwTable (matching the simulator's Sequencer certification rule).
  apps::DrainSpecScenario scenario;
  nadir::Spec composed = mc::compose_app_with_core(
      apps::build_drain_spec(scenario), mc::CoreSpecScenario{});
  auto env = composed.make_initial_env();
  ASSERT_TRUE(env.ok());
  nadir::Interpreter::run_to_quiescence(composed, env.value());
  const nadir::Value& certified = env.value().globals.at("InstalledDags");
  ASSERT_EQ(certified.size(), 1u);
  const nadir::Value& table = env.value().globals.at("SwTable");
  const nadir::Value& installed_ids = env.value().globals.at("InstalledIds");
  for (const nadir::Value& op : table.as_set()) {
    EXPECT_TRUE(installed_ids.set_contains(op.field("op")))
        << "installed entry not acknowledged in the NIB view";
  }
}

// Parses the flat {"name": "0x<hex>", ...} format FINGERPRINTS.json uses.
std::map<std::string, std::uint64_t> load_golden_fingerprints(
    const std::string& path) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t k0 = line.find('"');
    if (k0 == std::string::npos) continue;
    std::size_t k1 = line.find('"', k0 + 1);
    std::size_t v0 = line.find("\"0x", k1 + 1);
    if (k1 == std::string::npos || v0 == std::string::npos) continue;
    std::size_t v1 = line.find('"', v0 + 1);
    if (v1 == std::string::npos) continue;
    std::string key = line.substr(k0 + 1, k1 - k0 - 1);
    std::string hex = line.substr(v0 + 3, v1 - v0 - 3);
    out[key] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  return out;
}

TEST(Conformance, GoldenFingerprintCorpusMatchesLiveRuns) {
  // The regression corpus: every curated deterministic run (failure-free
  // soak cells at bs=1 and bs=16, the 12-cell chaos grid at bs=1) must
  // reproduce the committed fingerprints bit for bit. A diff here means a
  // semantic or determinism change in the pipeline: if it is intended,
  // regenerate with scripts/update_golden.sh and review the delta like any
  // other behaviour change; if not, it is a regression.
  std::string path = std::string(ZENITH_SOURCE_DIR) +
                     "/tests/golden/FINGERPRINTS.json";
  std::map<std::string, std::uint64_t> golden = load_golden_fingerprints(path);
  ASSERT_FALSE(golden.empty()) << "missing or unparseable " << path;

  std::map<std::string, std::uint64_t> live = golden::compute_fingerprints();
  for (const auto& [name, value] : live) {
    auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "scenario '" << name
                    << "' has no committed golden entry; run "
                       "scripts/update_golden.sh";
      continue;
    }
    EXPECT_EQ(it->second, value)
        << "fingerprint drift in '" << name
        << "' (committed vs live); intended changes need "
           "scripts/update_golden.sh";
  }
  for (const auto& [name, value] : golden) {
    (void)value;
    EXPECT_TRUE(live.count(name))
        << "stale golden entry '" << name
        << "' no longer produced; run scripts/update_golden.sh";
  }
  // Cross-cell pins: the all-strong consistency cell adds nothing to the
  // default chaos cell, and the NIB shard count never changes the final
  // state of a chaos-free soak.
  EXPECT_EQ(live["consistency_fattree4_s1_strong.verdict"],
            live["chaos_fattree4_s1.verdict"]);
  EXPECT_EQ(live["soak_fattree4_bs16_shards4.nib"],
            live["soak_fattree4_bs16.nib"]);
}

// Parses the flat {"name": "text", ...} format MC_CELLS.json uses (string
// values, unlike the hex fingerprints above).
std::map<std::string, std::string> load_golden_strings(
    const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t k0 = line.find('"');
    if (k0 == std::string::npos) continue;
    std::size_t k1 = line.find('"', k0 + 1);
    if (k1 == std::string::npos) continue;
    std::size_t v0 = line.find('"', k1 + 1);
    if (v0 == std::string::npos) continue;
    std::size_t v1 = line.find('"', v0 + 1);
    if (v1 == std::string::npos) continue;
    out[line.substr(k0 + 1, k1 - k0 - 1)] =
        line.substr(v0 + 1, v1 - v0 - 1);
  }
  return out;
}

TEST(Conformance, GoldenMcCellsMatchLiveRunsAtEveryThreadCount) {
  // The model-checking regression corpus (PR 9): exact state counts,
  // transition counts and diameters for the small golden instances. Run
  // twice — serial and with a work-stealing worker pool — because the
  // engine's determinism contract says clean runs are thread-count
  // invariant; a diff at threads=1 is state-space semantic drift, a diff
  // only at threads=3 is a parallel-engine bug.
  std::string path =
      std::string(ZENITH_SOURCE_DIR) + "/tests/golden/MC_CELLS.json";
  std::map<std::string, std::string> golden = load_golden_strings(path);
  ASSERT_FALSE(golden.empty()) << "missing or unparseable " << path;

  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    std::map<std::string, std::string> live =
        golden::compute_mc_cells(threads);
    for (const auto& [name, value] : live) {
      auto it = golden.find(name);
      if (it == golden.end()) {
        ADD_FAILURE() << "cell '" << name
                      << "' has no committed golden entry; run "
                         "scripts/update_golden.sh";
        continue;
      }
      EXPECT_EQ(it->second, value)
          << "MC statistics drift in '" << name << "' at threads=" << threads
          << " (committed vs live); intended model changes need "
             "scripts/update_golden.sh";
    }
    for (const auto& [name, value] : golden) {
      (void)value;
      EXPECT_TRUE(live.count(name))
          << "stale golden entry '" << name
          << "' no longer produced; run scripts/update_golden.sh";
    }
  }
}

}  // namespace
}  // namespace zenith
