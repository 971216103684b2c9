// The correctness checks each workload runs on its outputs. They take plain
// extracted data (or the program's own result structs) so that check_test
// can feed each one a corrupted output and require that it reports it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "mc/repl_model.h"

namespace zenith {
class Fabric;
class Nib;
}  // namespace zenith

namespace perfbench {

using Findings = std::vector<std::string>;

/// Per-switch data-plane table contents and NIB installed view, as sorted
/// OP ids.
struct TableSnapshot {
  std::vector<std::vector<std::uint32_t>> table;
  std::vector<std::vector<std::uint32_t>> view;
};

TableSnapshot snapshot_tables(const zenith::Fabric& fabric,
                              const zenith::Nib& nib);

/// Every switch's table equals the NIB's installed view for that switch,
/// and the union of the tables is exactly `expected` (sorted OP ids the
/// benchmark derived from its own inputs).
Findings check_tables(const TableSnapshot& snapshot,
                      const std::vector<std::uint32_t>& expected);

/// The data plane applied at least one OP per converged OP.
Findings check_applies(std::uint64_t applies, std::uint64_t converged_ops);

/// The wire run ended on the NIB state of the in-process sim-bus run.
Findings check_fingerprint(std::uint64_t wire, std::uint64_t sim_bus);

/// The bridge received every frame the controller sent except the Hello.
Findings check_frames(std::uint64_t bridge_requests,
                      std::uint64_t frames_sent);

/// One chaos campaign passed its oracle (P1-P8, R1-R4, E1/E2, lockstep).
Findings check_campaign(const zenith::chaos::CampaignResult& result,
                        const std::string& label);

/// A re-run of a seed reproduced its verdict digest.
Findings check_digest(std::uint64_t first, std::uint64_t rerun,
                      const std::string& label);

/// At least one campaign of a set run with a defect knob was flagged.
Findings check_defect_flagged(
    const std::vector<zenith::chaos::CampaignResult>& results,
    const std::string& knob);

/// Exact exploration figures of a model instance.
struct ModelCounts {
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::size_t diameter = 0;
};

/// The check found no violation, was not capped, and explored exactly the
/// reference state space.
Findings check_model(const zenith::mc::ReplModelResult& result,
                     const ModelCounts& expected, const std::string& label);

}  // namespace perfbench
