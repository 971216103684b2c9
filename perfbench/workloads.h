// The four benchmark workloads. Each runs in its own process: it builds its
// inputs from the seed (timed as set-up), runs whole rounds until the timed
// window ends, checks its outputs, and reports its metrics. In traced mode
// rounds alternate untraced/traced so that the traced run also measures its
// own overhead; per-layer figures come from the traced rounds.
#pragma once

#include <vector>

#include "bench.h"
#include "chaos/campaign.h"
#include "checks.h"
#include "dag/dag.h"
#include "mc/repl_model.h"
#include "netd/wire_scenario.h"

namespace perfbench {

Report run_soak(const Options& options, Tracer& tracer);
Report run_wire(const Options& options, Tracer& tracer);
Report run_chaos(const Options& options, Tracer& tracer);
Report run_mc(const Options& options, Tracer& tracer);

// ---- pieces check_test and the reference mode reuse -------------------------

/// The wire scenario's DAG sequence, generated up front exactly as
/// netd::run_wire_scenario generates it while it runs. `drain_s` (may be
/// null) receives the time spent in apps::compute_drain_dag.
std::vector<zenith::Dag> wire_dag_sequence(
    const zenith::netd::WireScenarioConfig& config, double* drain_s);

/// NIB fingerprint of `dags` submitted one by one (each after the previous
/// is certified) on the in-process sim bus.
std::uint64_t sim_bus_fingerprint(const zenith::netd::WireScenarioConfig& config,
                                  const std::vector<zenith::Dag>& dags);

/// One chaos-repl campaign configuration.
zenith::chaos::CampaignConfig chaos_campaign(std::uint64_t seed,
                                             std::size_t index);

/// The mc-repl instance and its recorded threads=1 figures.
zenith::mc::ReplModelConfig mc_instance(std::size_t threads);
ModelCounts mc_reference();

}  // namespace perfbench
