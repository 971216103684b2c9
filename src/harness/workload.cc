#include "harness/workload.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace zenith {

Workload::Workload(Experiment* experiment, std::uint64_t seed)
    : Workload(&experiment->topology(), &experiment->op_ids(), seed) {}

Workload::Workload(const Topology* topo, OpIdAllocator* ids,
                   std::uint64_t seed)
    : topo_(topo), ids_(ids), rng_(seed) {}

Dag Workload::initial_dag(std::size_t count) {
  const Topology& topo = *topo_;
  std::vector<std::pair<SwitchId, SwitchId>> pairs;
  std::size_t n = topo.switch_count();
  assert(n >= 2);
  std::size_t attempts = 0;
  while (pairs.size() < count && attempts < count * 50 + 100) {
    ++attempts;
    auto a = SwitchId(static_cast<std::uint32_t>(rng_.next_below(n)));
    auto b = SwitchId(static_cast<std::uint32_t>(rng_.next_below(n)));
    if (a == b) continue;
    pairs.emplace_back(a, b);
  }
  return initial_dag_for_pairs(pairs);
}

Dag Workload::initial_dag_for_pairs(
    const std::vector<std::pair<SwitchId, SwitchId>>& pairs) {
  const Topology& topo = *topo_;
  std::vector<Path> paths;
  std::vector<FlowId> flow_ids;
  for (auto [src, dst] : pairs) {
    auto path = shortest_path(topo, src, dst);
    if (!path || path->size() < 2) continue;
    FlowId flow(next_flow_id_++);
    FlowState state;
    state.demand = Demand{flow, src, dst, 1.0};
    state.path = *path;
    flows_[flow] = std::move(state);
    paths.push_back(*path);
    flow_ids.push_back(flow);
  }
  return build_replacement(flow_ids, paths);
}

Dag Workload::build_replacement(
    const std::vector<FlowId>& flow_ids, const std::vector<Path>& new_paths,
    const std::unordered_set<SwitchId>& skip_deletes_on) {
  assert(flow_ids.size() == new_paths.size());
  // Previous ops of exactly the rerouted flows get deleted by the DAG —
  // except ops on switches known dead: a deletion there can never be ACKed
  // and would wedge the DAG (the §F Remark: "the applications must change
  // the DAG" rather than wait on a dead switch).
  std::vector<Op> previous_ops;
  for (FlowId flow : flow_ids) {
    for (const Op& op : flows_.at(flow).ops) {
      if (skip_deletes_on.count(op.sw)) continue;
      previous_ops.push_back(op);
    }
  }
  // Priorities must exceed everything currently believed installed, across
  // all flows (Listing 6's HighestPriorityInOPSet over previous OPs). Every
  // flow OP is assigned here at max + 1 and flows are never erased, so the
  // running maximum equals a scan of all_flow_ops().
  const int priority = max_priority_ + 1;

  Dag dag(next_dag_id());
  OpIdAllocator& ids = *ids_;
  for (std::size_t i = 0; i < new_paths.size(); ++i) {
    CompiledPath compiled =
        compile_single_path(new_paths[i], flow_ids[i], priority, ids);
    for (const Op& op : compiled.ops) {
      auto st = dag.add_op(op);
      assert(st.ok());
      (void)st;
    }
    for (auto [before, after] : compiled.edges) {
      auto st = dag.add_edge(before, after);
      assert(st.ok());
      (void)st;
    }
    // Update intent bookkeeping.
    FlowState& state = flows_.at(flow_ids[i]);
    state.path = new_paths[i];
    state.ops = compiled.ops;
  }
  if (!new_paths.empty()) max_priority_ = priority;
  std::vector<Op> deletions = deletion_ops(previous_ops, ids);
  if (!deletions.empty()) {
    auto st = dag.expand_with(deletions);
    assert(st.ok());
    (void)st;
  }
  return dag;
}

std::optional<Dag> Workload::reroute_dag() {
  if (flows_.empty()) return std::nullopt;
  // Candidate flows with an interior node to route around.
  std::vector<FlowId> candidates;
  for (const auto& [flow, state] : flows_) {
    if (state.path.size() >= 3) candidates.push_back(flow);
  }
  if (candidates.empty()) return std::nullopt;
  std::sort(candidates.begin(), candidates.end());
  FlowId flow = candidates[rng_.next_below(candidates.size())];
  const FlowState& state = flows_.at(flow);
  // Route around one random interior hop.
  SwitchId excluded =
      state.path[1 + rng_.next_below(state.path.size() - 2)];
  auto new_path = shortest_path(*topo_, state.demand.src,
                                state.demand.dst, {excluded});
  if (!new_path || *new_path == state.path) return std::nullopt;
  return build_replacement({flow}, {*new_path});
}

std::optional<Dag> Workload::next_update_dag(std::size_t max_hops) {
  if (flows_.empty()) return std::nullopt;
  const Topology& topo = *topo_;
  std::size_t n = topo.switch_count();
  // Pick the flow to replace (deterministic order for a given draw).
  std::vector<FlowId> ordered;
  for (const auto& [flow, _] : flows_) ordered.push_back(flow);
  std::sort(ordered.begin(), ordered.end());
  FlowId flow = ordered[rng_.next_below(ordered.size())];
  // Fresh nearby endpoint pair: random src, dst found by a short random
  // walk (guaranteed nearby even on sparse chain-heavy graphs).
  for (int attempt = 0; attempt < 20; ++attempt) {
    auto src = SwitchId(static_cast<std::uint32_t>(rng_.next_below(n)));
    SwitchId cur = src;
    std::size_t steps = 2 + rng_.next_below(max_hops - 2);
    for (std::size_t i = 0; i < steps; ++i) {
      const auto& neighbors = topo.neighbors(cur);
      if (neighbors.empty()) break;
      cur = neighbors[rng_.next_below(neighbors.size())];
    }
    if (cur == src) continue;
    auto path = shortest_path(topo, src, cur);
    if (!path || path->size() < 2 || path->size() > max_hops) continue;
    FlowState& state = flows_.at(flow);
    state.demand.src = src;
    state.demand.dst = cur;
    return build_replacement({flow}, {*path});
  }
  return reroute_dag();
}

std::optional<Dag> Workload::repair_dag(
    const std::unordered_set<SwitchId>& avoid) {
  std::vector<FlowId> affected;
  std::vector<Path> new_paths;
  std::vector<FlowId> ordered;
  for (const auto& [flow, _] : flows_) ordered.push_back(flow);
  std::sort(ordered.begin(), ordered.end());
  for (FlowId flow : ordered) {
    const FlowState& state = flows_.at(flow);
    bool touched = std::any_of(
        state.path.begin(), state.path.end(),
        [&](SwitchId sw) { return avoid.count(sw) > 0; });
    if (!touched) continue;
    if (avoid.count(state.demand.src) || avoid.count(state.demand.dst)) {
      continue;  // endpoint dead: nothing an app can do
    }
    auto new_path = shortest_path(*topo_, state.demand.src,
                                  state.demand.dst, avoid);
    if (!new_path) continue;
    affected.push_back(flow);
    new_paths.push_back(*new_path);
  }
  if (affected.empty()) return std::nullopt;
  return build_replacement(affected, new_paths, avoid);
}

std::vector<Demand> Workload::demands() const {
  std::vector<Demand> out;
  out.reserve(flows_.size());
  std::vector<FlowId> ordered;
  for (const auto& [flow, _] : flows_) ordered.push_back(flow);
  std::sort(ordered.begin(), ordered.end());
  for (FlowId flow : ordered) out.push_back(flows_.at(flow).demand);
  return out;
}

std::vector<Path> Workload::paths() const {
  std::vector<FlowId> ordered = flow_ids();
  std::vector<Path> out;
  out.reserve(ordered.size());
  for (FlowId flow : ordered) out.push_back(flows_.at(flow).path);
  return out;
}

std::vector<FlowId> Workload::flow_ids() const {
  std::vector<FlowId> ordered;
  ordered.reserve(flows_.size());
  for (const auto& [flow, _] : flows_) ordered.push_back(flow);
  std::sort(ordered.begin(), ordered.end());
  return ordered;
}

std::vector<Op> Workload::all_flow_ops() const {
  std::vector<Op> out;
  for (const auto& [_, state] : flows_) {
    out.insert(out.end(), state.ops.begin(), state.ops.end());
  }
  return out;
}

void preload_background_entries(Experiment& experiment,
                                std::size_t entries_per_switch) {
  // Long-lived consistent state: installed on the switch, DONE in the NIB,
  // present in the view. Uses a reserved high OP-id range so it never
  // collides with the experiment's allocator.
  Nib& nib = experiment.nib();
  std::uint32_t next_id = 0x20000000u;
  for (SwitchId sw : nib.switches()) {
    for (std::size_t i = 0; i < entries_per_switch; ++i) {
      Op op;
      op.id = OpId(next_id++);
      op.type = OpType::kInstallRule;
      op.sw = sw;
      // Self-referential placeholder rule at priority 0: never matches
      // experiment traffic (dst == sw itself) but occupies TCAM space.
      op.rule = FlowRule{FlowId(0xffffffu), sw, sw, sw, 0};
      nib.preload_op(op, OpStatus::kDone, /*in_view=*/true);
      // Pre-existing data-plane state: placed directly, no install round
      // trip (it pre-dates the experiment).
      experiment.fabric().at(sw).preload_entry(op);
    }
  }
}

std::vector<std::pair<SimTime, SwitchId>> schedule_switch_failures(
    Experiment& experiment, FailurePlanConfig config, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<SimTime, SwitchId>> plan;
  std::size_t n = experiment.topology().switch_count();
  SimTime t = experiment.sim().now();
  while (true) {
    t += static_cast<SimTime>(rng.exponential(
        static_cast<double>(config.mean_gap)));
    if (t > experiment.sim().now() + config.horizon) break;
    auto sw = SwitchId(static_cast<std::uint32_t>(rng.next_below(n)));
    plan.emplace_back(t, sw);
  }
  // Enforce the concurrency cap at schedule time assuming nominal
  // down_time: drop events that would exceed it.
  std::vector<std::pair<SimTime, SwitchId>> admitted;
  for (auto [when, sw] : plan) {
    std::size_t overlapping = 0;
    for (auto [w2, s2] : admitted) {
      if (w2 <= when && when < w2 + config.down_time) ++overlapping;
    }
    if (overlapping < config.max_concurrent) admitted.emplace_back(when, sw);
  }
  for (auto [when, sw] : admitted) {
    Fabric* fabric = &experiment.fabric();
    FailureMode mode = config.mode;
    SimTime down = config.down_time;
    Simulator& sim = experiment.sim();
    sim.schedule_at(when, [fabric, sw = sw, mode, down, &sim] {
      if (!fabric->alive(sw)) return;
      fabric->inject_failure(sw, mode);
      if (mode != FailureMode::kCompletePermanent) {
        sim.schedule(down, [fabric, sw] { fabric->inject_recovery(sw); });
      }
    });
  }
  return admitted;
}

std::vector<std::pair<SimTime, std::string>> schedule_component_failures(
    Experiment& experiment, SimTime mean_gap, SimTime horizon,
    std::uint64_t seed, std::size_t max_concurrent) {
  Rng rng(seed);
  std::vector<Component*> components = experiment.controller().components();
  std::vector<std::pair<SimTime, std::string>> plan;
  SimTime t = experiment.sim().now();
  SimTime end = t + horizon;
  SimTime last = 0;
  (void)max_concurrent;
  while (true) {
    t += static_cast<SimTime>(rng.exponential(static_cast<double>(mean_gap)));
    if (t > end) break;
    Component* victim = components[rng.next_below(components.size())];
    plan.emplace_back(t, victim->name());
    experiment.sim().schedule_at(t, [victim] { victim->crash(); });
    last = t;
  }
  (void)last;
  return plan;
}

}  // namespace zenith
