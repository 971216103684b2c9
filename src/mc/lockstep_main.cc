// zenith_lockstep: the conformance gate's command-line face.
//
// Runs the lockstep checker over the scenario grid — {kdl, b4, fat-tree} x
// batch_size {1, 4, 16} x nib_shards {1, 4} x two fault schedules — and
// exits non-zero on the first divergence, printing the divergence messages
// and the shrunk reproducer trace. `--quick` trims the grid to one seed and
// batch sizes {1, 16} for the CI stage.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "mc/lockstep.h"

namespace {

using zenith::chaos::CampaignConfig;
using zenith::chaos::TopologyKind;
using zenith::mc::LockstepChecker;
using zenith::mc::LockstepConfig;
using zenith::mc::LockstepReport;

struct Cell {
  TopologyKind topology;
  std::size_t topology_size;
  std::size_t batch_size;
  std::size_t nib_shards;
  std::uint64_t seed;
  bool crash_heavy;  // component/OFC-crash-weighted fault schedule
};

LockstepConfig cell_config(const Cell& cell) {
  LockstepConfig config;
  config.campaign.seed = cell.seed;
  config.campaign.topology = cell.topology;
  config.campaign.topology_size = cell.topology_size;
  config.campaign.core.batch_size = cell.batch_size;
  config.campaign.core.nib_shards = cell.nib_shards;
  config.campaign.schedule.horizon = zenith::seconds(3);
  config.campaign.schedule.fault_count = 8;
  config.campaign.initial_flows = 4;
  config.phases = 3;
  if (cell.crash_heavy) {
    zenith::chaos::FaultWeights& w = config.campaign.schedule.weights;
    w.switch_complete_transient = 0.20;
    w.switch_partial_transient = 0.10;
    w.link_flap = 0.10;
    w.component_crash = 0.35;
    w.ofc_crash = 0.15;
    w.de_crash = 0.05;
    w.reply_burst_loss = 0.05;
  }
  // The model verdict is grid-wide identical per (batch_size, fault mix);
  // checking it once per cell would dominate runtime.
  config.check_model = false;
  return config;
}

const char* schedule_name(bool crash_heavy) {
  return crash_heavy ? "crash-heavy" : "default";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  struct Topo {
    TopologyKind kind;
    std::size_t size;
  };
  const std::vector<Topo> topologies = {
      {TopologyKind::kKdlLike, 16},
      {TopologyKind::kB4, 0},
      {TopologyKind::kFatTree, 4},
  };
  const std::vector<std::size_t> batch_sizes =
      quick ? std::vector<std::size_t>{1, 16}
            : std::vector<std::size_t>{1, 4, 16};
  const std::vector<std::uint64_t> seeds =
      quick ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2};

  std::vector<Cell> grid;
  for (const Topo& topo : topologies) {
    for (std::size_t batch_size : batch_sizes) {
      for (std::size_t nib_shards : {1, 4}) {
        for (std::uint64_t seed : seeds) {
          for (bool crash_heavy : {false, true}) {
            grid.push_back({topo.kind, topo.size, batch_size, nib_shards,
                            seed, crash_heavy});
          }
        }
      }
    }
  }

  int divergences = 0;
  int cells = 0;
  for (const Cell& cell : grid) {
    LockstepChecker checker(cell_config(cell));
    LockstepReport report = checker.run();
    ++cells;
    std::size_t injected = 0;
    for (const auto& phase : report.phases) injected += phase.events_injected;
    std::printf(
        "[%s bs=%zu shards=%zu seed=%llu %s] %s faults=%zu digest=%016llx\n",
        zenith::chaos::to_string(cell.topology), cell.batch_size,
        cell.nib_shards, static_cast<unsigned long long>(cell.seed),
        schedule_name(cell.crash_heavy), report.summary().c_str(), injected,
        static_cast<unsigned long long>(report.report_digest()));
    if (!report.diverged) continue;
    ++divergences;
    for (const std::string& d : report.divergences) {
      std::printf("  divergence: %s\n", d.c_str());
    }
    LockstepChecker::DivergenceShrink shrunk =
        checker.shrink(checker.schedule());
    std::printf("  shrunk to %zu events (%zu oracle runs)\n%s\n",
                shrunk.minimal.size(), shrunk.oracle_runs,
                shrunk.trace.to_string().c_str());
    if (!shrunk.minimal_report.flight_recorder_dump.empty()) {
      std::printf("--- flight recorder ---\n%s\n",
                  shrunk.minimal_report.flight_recorder_dump.c_str());
    }
  }

  std::printf("lockstep: %d/%d cells diverged\n", divergences, cells);
  return divergences == 0 ? 0 : 1;
}
