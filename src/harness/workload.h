// Workload generation for the evaluation scenarios:
//  * routed flows with replacement DAGs (the "repeatedly install a new DAG"
//    loop of Figure 11),
//  * repair DAGs after switch failures (Figures 12/13),
//  * background table preloading (the Figure 4 reconciliation-cost scaling
//    and Figure 11's per-switch transit state),
//  * random failure schedules.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "dag/compiler.h"
#include "harness/experiment.h"
#include "traffic/traffic.h"

namespace zenith {

class Workload {
 public:
  Workload(Experiment* experiment, std::uint64_t seed);

  /// Experiment-free form: everything the generator actually needs is the
  /// topology, an OP-id allocator and a seed. This is what the wire daemons
  /// use — there is no Experiment wrapping a socket-backed controller, but
  /// the DAG/OP sequence must match the sim-backend run bit for bit.
  /// Both `topo` and `ids` must outlive the workload.
  Workload(const Topology* topo, OpIdAllocator* ids, std::uint64_t seed);

  /// Creates `count` flows between random distinct endpoint pairs and
  /// returns the DAG installing all their shortest paths.
  Dag initial_dag(std::size_t count);

  /// Creates flows between the given pairs.
  Dag initial_dag_for_pairs(
      const std::vector<std::pair<SwitchId, SwitchId>>& pairs);

  /// Replacement DAG that reroutes one random flow around a random interior
  /// node of its current path (the paper's "each DAG only updates a portion
  /// of the topology"). Returns nullopt when no flow can be rerouted.
  std::optional<Dag> reroute_dag();

  /// The Figure 11 update stream: replace one random flow with a fresh
  /// nearby pair (path length <= max_hops, so each DAG touches only a
  /// handful of switches). Falls back to a reroute; unlike reroute_dag this
  /// practically always produces an update, even on chain-heavy WAN graphs
  /// with no alternative paths.
  std::optional<Dag> next_update_dag(std::size_t max_hops = 5);

  /// Replacement DAG that moves every flow whose path touches a switch in
  /// `avoid` onto paths avoiding those switches (the app reaction to switch
  /// failure). Returns nullopt when nothing is affected or no path exists.
  std::optional<Dag> repair_dag(const std::unordered_set<SwitchId>& avoid);

  /// Demands for the traffic model.
  std::vector<Demand> demands() const;

  /// Intent-level ops currently associated with each flow.
  std::vector<Op> all_flow_ops() const;

  /// Current paths / flow ids in ascending FlowId order (the drain app's
  /// request payload).
  std::vector<Path> paths() const;
  std::vector<FlowId> flow_ids() const;

  std::size_t flow_count() const { return flows_.size(); }

  DagId next_dag_id() { return DagId(next_dag_id_++); }

 private:
  struct FlowState {
    Demand demand;
    Path path;
    std::vector<Op> ops;
  };

  Dag build_replacement(const std::vector<FlowId>& flows,
                        const std::vector<Path>& new_paths,
                        const std::unordered_set<SwitchId>& skip_deletes_on = {});

  const Topology* topo_;
  OpIdAllocator* ids_;
  Rng rng_;
  std::unordered_map<FlowId, FlowState> flows_;
  /// Highest install priority among the flows' current OPs.
  int max_priority_ = 0;
  std::uint32_t next_flow_id_ = 1;
  std::uint32_t next_dag_id_ = 1;
};

/// Preloads `entries_per_switch` background rules on every switch, recorded
/// as DONE/in-view in the NIB: consistent long-lived state whose only effect
/// is to make reconciliation scans expensive (Figures 3, 4, 11).
void preload_background_entries(Experiment& experiment,
                                std::size_t entries_per_switch);

/// Random transient switch-failure schedule: failures occur with
/// exponential inter-arrival `mean_gap`, last `down_time`, and at most
/// `max_concurrent` switches are down at once.
struct FailurePlanConfig {
  SimTime mean_gap = seconds(5);
  SimTime down_time = seconds(1);
  std::size_t max_concurrent = 1;
  FailureMode mode = FailureMode::kCompleteTransient;
  SimTime horizon = seconds(60);
};

/// Installs the schedule on the simulator; returns the list of (time,
/// switch) failures planned (for logging / trace alignment).
std::vector<std::pair<SimTime, SwitchId>> schedule_switch_failures(
    Experiment& experiment, FailurePlanConfig config, std::uint64_t seed);

/// Random component-crash schedule over the controller's components (the
/// Watchdog restarts them).
std::vector<std::pair<SimTime, std::string>> schedule_component_failures(
    Experiment& experiment, SimTime mean_gap, SimTime horizon,
    std::uint64_t seed, std::size_t max_concurrent = 1);

}  // namespace zenith
