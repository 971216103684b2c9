#include "checks.h"

#include <algorithm>

#include "dataplane/fabric.h"
#include "nib/nib.h"

namespace perfbench {

namespace {

std::string num(std::uint64_t v) { return std::to_string(v); }

std::vector<std::uint32_t> sorted_ids(const std::vector<zenith::OpId>& ids) {
  std::vector<std::uint32_t> out;
  out.reserve(ids.size());
  for (zenith::OpId id : ids) out.push_back(id.value());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

TableSnapshot snapshot_tables(const zenith::Fabric& fabric,
                              const zenith::Nib& nib) {
  TableSnapshot snapshot;
  for (std::size_t i = 0; i < fabric.switch_count(); ++i) {
    zenith::SwitchId sw(static_cast<std::uint32_t>(i));
    snapshot.table.push_back(sorted_ids(fabric.at(sw).installed_ops()));
    const auto& view = nib.view_installed(sw);
    snapshot.view.push_back(
        sorted_ids(std::vector<zenith::OpId>(view.begin(), view.end())));
  }
  return snapshot;
}

Findings check_tables(const TableSnapshot& snapshot,
                      const std::vector<std::uint32_t>& expected) {
  Findings out;
  if (snapshot.table.size() != snapshot.view.size()) {
    out.push_back("table snapshot covers " + num(snapshot.table.size()) +
                  " switches but the NIB view " + num(snapshot.view.size()));
    return out;
  }
  std::vector<std::uint32_t> all;
  for (std::size_t sw = 0; sw < snapshot.table.size(); ++sw) {
    if (snapshot.table[sw] != snapshot.view[sw]) {
      out.push_back("switch " + num(sw) + ": table holds " +
                    num(snapshot.table[sw].size()) +
                    " entries, NIB installed view " +
                    num(snapshot.view[sw].size()) + ", contents differ");
    }
    all.insert(all.end(), snapshot.table[sw].begin(),
               snapshot.table[sw].end());
  }
  std::sort(all.begin(), all.end());
  if (all != expected) {
    out.push_back("data plane holds " + num(all.size()) +
                  " entries, the inputs' final installs are " +
                  num(expected.size()) + (all.size() == expected.size()
                                              ? " (different OPs)"
                                              : ""));
  }
  return out;
}

Findings check_applies(std::uint64_t applies, std::uint64_t converged_ops) {
  if (applies >= converged_ops) return {};
  return {"data plane applied " + num(applies) + " OPs for " +
          num(converged_ops) + " converged OPs"};
}

Findings check_fingerprint(std::uint64_t wire, std::uint64_t sim_bus) {
  if (wire == sim_bus) return {};
  return {"wire NIB fingerprint " + num(wire) + " != sim-bus " +
          num(sim_bus)};
}

Findings check_frames(std::uint64_t bridge_requests,
                      std::uint64_t frames_sent) {
  if (frames_sent >= 1 && bridge_requests == frames_sent - 1) return {};
  return {"bridge received " + num(bridge_requests) + " requests for " +
          num(frames_sent) + " frames sent (Hello included)"};
}

Findings check_campaign(const zenith::chaos::CampaignResult& result,
                        const std::string& label) {
  Findings out;
  if (!result.ok || !result.violations.empty()) {
    out.push_back(label + ": " +
                  (result.violations.empty() ? std::string("not ok")
                                             : result.violations.front()));
  }
  return out;
}

Findings check_digest(std::uint64_t first, std::uint64_t rerun,
                      const std::string& label) {
  if (first == rerun) return {};
  return {label + ": verdict digest " + num(rerun) + " on re-run, " +
          num(first) + " first"};
}

Findings check_defect_flagged(
    const std::vector<zenith::chaos::CampaignResult>& results,
    const std::string& knob) {
  for (const auto& result : results) {
    if (!result.ok) return {};
  }
  return {"no campaign of " + num(results.size()) + " flagged " + knob};
}

Findings check_model(const zenith::mc::ReplModelResult& result,
                     const ModelCounts& expected, const std::string& label) {
  Findings out;
  if (result.violation_found) {
    out.push_back(label + ": violation " + result.violation + " via " +
                  result.counterexample);
  }
  if (result.capped) out.push_back(label + ": exploration capped");
  if (result.states_explored != expected.states ||
      result.transitions != expected.transitions ||
      result.diameter != expected.diameter) {
    out.push_back(label + ": explored " + num(result.states_explored) +
                  " states / " + num(result.transitions) +
                  " transitions / diameter " + num(result.diameter) +
                  ", reference " + num(expected.states) + " / " +
                  num(expected.transitions) + " / " +
                  num(expected.diameter));
  }
  return out;
}

}  // namespace perfbench
