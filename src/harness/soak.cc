#include "harness/soak.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace zenith {

namespace {

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffull;
    h *= 1099511628211ull;
  }
}

}  // namespace

SoakWorkload::SoakWorkload(Experiment* experiment, SoakConfig config)
    : experiment_(experiment),
      config_(config),
      rng_(config.seed),
      chaos_rng_(config.seed ^ 0x5eed5eedull) {}

bool SoakWorkload::pick_groups() {
  const Topology& topo = experiment_->topology();
  std::vector<SwitchId> candidates = config_.endpoints;
  if (candidates.empty()) {
    for (std::size_t i = 0; i < topo.switch_count(); ++i) {
      candidates.push_back(SwitchId(static_cast<std::uint32_t>(i)));
    }
  }
  if (candidates.size() < 2) return false;

  std::unordered_set<SwitchId> path_switches;
  std::unordered_set<std::uint64_t> used_pairs;
  std::size_t attempts = 0;
  while (groups_.size() < config_.groups &&
         attempts < config_.groups * 50 + 100) {
    ++attempts;
    SwitchId src = rng_.pick(candidates);
    SwitchId dst = rng_.pick(candidates);
    if (src == dst) continue;
    std::uint64_t key =
        (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
    if (!used_pairs.insert(key).second) continue;
    std::optional<Path> path;
    if (config_.path_spread > 1) {
      // ECMP-style spread: pick (seeded) among the alternative paths so
      // group load fans across the equal-cost agg/core layer instead of
      // piling onto the deterministic BFS winner (see SoakConfig).
      std::vector<Path> alternatives =
          k_alternative_paths(topo, src, dst, config_.path_spread);
      std::erase_if(alternatives,
                    [](const Path& p) { return p.size() < 3; });
      if (!alternatives.empty()) path = rng_.pick(alternatives);
    } else {
      path = shortest_path(topo, src, dst);
    }
    if (!path || path->size() < 3) continue;  // want a multi-hop elephant
    Group group;
    group.path = *path;
    for (std::size_t f = 0; f < config_.flows_per_group; ++f) {
      group.flows.push_back(FlowId(next_flow_id_++));
    }
    for (SwitchId sw : *path) path_switches.insert(sw);
    groups_.push_back(std::move(group));
  }
  if (groups_.empty()) return false;

  for (std::size_t i = 0; i < topo.switch_count(); ++i) {
    auto sw = SwitchId(static_cast<std::uint32_t>(i));
    if (!path_switches.count(sw)) off_path_switches_.push_back(sw);
  }
  // Single-component crash targets (the Watchdog restarts each): the
  // pipeline stages of the wiring. Whole-microservice failovers (and with
  // them the failover manager) are the chaos campaigns' job, not the soak's.
  for (const std::string& name :
       ZenithController::component_names(experiment_->config().core)) {
    if (name != "failover_manager") crashable_components_.push_back(name);
  }
  return true;
}

Dag SoakWorkload::build_round_dag(int priority) {
  Dag dag(DagId(next_dag_id_++));
  OpIdAllocator& ids = experiment_->op_ids();
  for (Group& group : groups_) {
    group.flow_ops.resize(group.flows.size());
    for (std::size_t f = 0; f < group.flows.size(); ++f) {
      CompiledPath compiled =
          compile_single_path(group.path, group.flows[f], priority, ids);
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
      // Make-before-break per hop: the delete of last round's rule at
      // path[i] waits only for this flow's replacement install at path[i].
      // compile_single_path emits ops in path order every round, so the
      // previous ops zip hop-for-hop with the new ones.
      std::vector<Op>& previous = group.flow_ops[f];
      if (!previous.empty()) {
        assert(previous.size() == compiled.ops.size());
        std::vector<Op> deletions = deletion_ops(previous, ids);
        for (std::size_t i = 0; i < deletions.size(); ++i) {
          auto st = dag.add_op(deletions[i]);
          assert(st.ok());
          st = dag.add_edge(compiled.ops[i].id, deletions[i].id);
          assert(st.ok());
          (void)st;
        }
      }
      previous = std::move(compiled.ops);
    }
  }
  return dag;
}

void SoakWorkload::schedule_switch_chaos(SoakResult* result) {
  if (off_path_switches_.empty()) return;
  SimTime gap = static_cast<SimTime>(chaos_rng_.exponential(
      static_cast<double>(config_.chaos_switch_mean_gap)));
  experiment_->sim().schedule(gap, [this, result] {
    if (stop_chaos_) return;
    SwitchId sw = chaos_rng_.pick(off_path_switches_);
    // Partial blips dominate (keepalive hiccups); the occasional complete
    // one exercises the CLEAR_TCAM recovery pipeline in the background.
    FailureMode mode = chaos_rng_.bernoulli(0.25)
                           ? FailureMode::kCompleteTransient
                           : FailureMode::kPartialTransient;
    experiment_->fabric().inject_failure(sw, mode);
    ++result->switch_blips;
    experiment_->sim().schedule(config_.chaos_switch_down_time, [this, sw] {
      experiment_->fabric().inject_recovery(sw);
    });
    schedule_switch_chaos(result);
  });
}

void SoakWorkload::schedule_component_chaos(SoakResult* result) {
  if (crashable_components_.empty()) return;
  SimTime gap = static_cast<SimTime>(chaos_rng_.exponential(
      static_cast<double>(config_.chaos_component_mean_gap)));
  experiment_->sim().schedule(gap, [this, result] {
    if (stop_chaos_) return;
    const std::string& name = chaos_rng_.pick(crashable_components_);
    experiment_->controller().crash_component(name);
    ++result->component_crashes;
    schedule_component_chaos(result);
  });
}

SoakResult SoakWorkload::run() {
  SoakResult result;
  if (!pick_groups()) {
    ++result.invariant_violations;  // misconfigured: nothing to soak
    return result;
  }

  int priority = 1;
  bool chaos_started = false;
  SimTime loop_start = experiment_->sim().now();
  while (result.ops_completed < config_.target_ops) {
    Dag dag = build_round_dag(priority++);
    DagId id = dag.id();
    std::size_t dag_ops = dag.op_ids().size();
    experiment_->order_checker().register_dag(dag);
    auto latency = experiment_->install_and_wait(std::move(dag),
                                                 config_.dag_timeout);
    if (!latency.has_value()) {
      // The chaos schedule never touches path switches, so a round that
      // fails to converge is a real pipeline defect, not scheduled noise.
      ++result.timeouts;
      ++result.invariant_violations;
      ZLOG_INFO("soak round %zu (dag%u) failed to converge", result.rounds,
                id.value());
      break;
    }
    result.ops_completed += dag_ops;
    ++result.dags_completed;
    ++result.rounds;
    if (!chaos_started && config_.chaos) {
      // Chaos starts after the initial install: the steady-state rounds run
      // under fire, the setup does not.
      chaos_started = true;
      schedule_switch_chaos(&result);
      schedule_component_chaos(&result);
    }
    if (config_.deep_check_every != 0 &&
        result.rounds % config_.deep_check_every == 0 &&
        experiment_->checker().hidden_entry_signature()) {
      ++result.invariant_violations;
    }
  }
  stop_chaos_ = true;
  result.sim_elapsed = experiment_->sim().now() - loop_start;

  // Quiesce: let in-flight chaos cleanups settle, then final deep checks.
  // (Outside the throughput window — a fixed 2s tail would swamp short runs.)
  experiment_->run_for(seconds(2));
  if (experiment_->checker().hidden_entry_signature()) {
    ++result.invariant_violations;
  }
  result.order_ok = experiment_->order_checker().ok();
  if (!result.order_ok) {
    result.invariant_violations +=
        experiment_->order_checker().violations().size();
  }
  result.nib_fingerprint = experiment_->nib().state_fingerprint();
  return result;
}

void DeliveryOrderRecorder::attach(Fabric& fabric) {
  fabric.set_apply_observer([this](SwitchId sw, const Op& op) {
    auto [it, inserted] =
        per_switch_.emplace(sw.value(), 14695981039346656037ull);
    fnv_mix(it->second, op.id.value());
    fnv_mix(it->second, static_cast<std::uint64_t>(op.type));
    ++applied_;
  });
}

std::uint64_t DeliveryOrderRecorder::fingerprint() const {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> chains(
      per_switch_.begin(), per_switch_.end());
  std::sort(chains.begin(), chains.end());
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& [sw, chain] : chains) {
    fnv_mix(h, sw);
    fnv_mix(h, chain);
  }
  return h;
}

}  // namespace zenith
