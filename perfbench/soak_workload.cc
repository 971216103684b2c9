// soak-sharded: bench_soak's hot tier (fat_tree(16), fast fabric, 4 NIB
// shards, batch 16, 16 workers, ECMP path spread, off-path chaos) as a
// closed loop of full-coverage replacement DAGs of ~75k OPs each.
//
// The round inputs are SoakWorkload's shape — 256 elephant groups of 32
// flows, each round reinstalling every flow at a higher priority with a
// make-before-break delete of its previous rule per hop — but generated
// here, from the seed, before the timed window: SoakWorkload builds each
// DAG inside its loop and exposes neither the DAG boundary (needed for
// per-DAG latency) nor the inputs (needed to derive the expected tables).
// One round is a fresh deployment running the initial DAG plus
// kReplacements replacement DAGs, so a round's memory and work do not
// depend on how many rounds the window fits, and every round repeats the
// same two DAGs on the same simulated run (see Rounds).
#include <chrono>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "dag/compiler.h"
#include "harness/experiment.h"
#include "topo/generators.h"
#include "topo/paths.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace zenith;

constexpr std::size_t kFatTreeK = 16;
constexpr std::size_t kGroups = 256;
constexpr std::size_t kFlowsPerGroup = 32;
constexpr std::size_t kPathSpread = 16;
constexpr std::size_t kNibShards = 4;
constexpr std::size_t kWorkers = 16;
constexpr std::size_t kReplacements = 1;
constexpr SimTime kDagTimeout = seconds(120);
// Upper bound on settling after chaos stops: a blip lasts 150 ms, then
// recovery detection (30 ms) and CLEAR_TCAM.
constexpr SimTime kQuiesce = millis(500);

ExperimentConfig hot_tier_config(std::uint64_t seed) {
  ExperimentConfig config;
  config.seed = seed;
  config.kind = ControllerKind::kZenithNR;
  config.core.batch_size = 16;
  config.core.nib_shards = kNibShards;
  config.core.num_workers = kWorkers;
  config.poll_interval = millis(2);
  config.scoped_convergence = true;
  config.fabric.ctrl_to_sw = {SimTime(millis(0.5) * 0.1),
                              SimTime(millis(0.5) * 0.1)};
  config.fabric.sw_to_ctrl = {SimTime(millis(0.5) * 0.1),
                              SimTime(millis(0.5) * 0.1)};
  config.fabric.timings.op_service = SimTime(micros(50) * 0.05);
  return config;
}

struct SoakInputs {
  Topology topo;
  std::vector<Dag> dags;
  /// Install OPs of the last DAG: after a round, exactly these are in the
  /// data plane (every earlier rule was deleted make-before-break).
  std::vector<std::uint32_t> final_installs;
  std::vector<SwitchId> off_path;
  std::vector<std::string> crashable;
  std::size_t ops = 0;
  std::size_t edges = 0;
};

SoakInputs make_inputs(std::uint64_t seed) {
  SoakInputs in{gen::fat_tree(kFatTreeK), {}, {}, {}, {}, 0, 0};
  Rng rng(seed);
  struct Group {
    std::vector<FlowId> flows;
    Path path;
    std::vector<std::vector<Op>> flow_ops;
  };
  std::vector<Group> groups;
  std::unordered_set<SwitchId> path_switches;
  std::unordered_set<std::uint64_t> used_pairs;
  std::vector<SwitchId> candidates;
  for (std::size_t i = 0; i < in.topo.switch_count(); ++i) {
    candidates.push_back(SwitchId(static_cast<std::uint32_t>(i)));
  }
  std::uint32_t next_flow = 1;
  for (std::size_t attempts = 0;
       groups.size() < kGroups && attempts < kGroups * 50 + 100; ++attempts) {
    SwitchId src = rng.pick(candidates);
    SwitchId dst = rng.pick(candidates);
    if (src == dst) continue;
    std::uint64_t key =
        (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
    if (!used_pairs.insert(key).second) continue;
    std::vector<Path> alternatives =
        k_alternative_paths(in.topo, src, dst, kPathSpread);
    std::erase_if(alternatives, [](const Path& p) { return p.size() < 3; });
    if (alternatives.empty()) continue;
    Group group;
    group.path = rng.pick(alternatives);
    for (std::size_t f = 0; f < kFlowsPerGroup; ++f) {
      group.flows.push_back(FlowId(next_flow++));
    }
    group.flow_ops.resize(kFlowsPerGroup);
    for (SwitchId sw : group.path) path_switches.insert(sw);
    groups.push_back(std::move(group));
  }
  for (SwitchId sw : candidates) {
    if (!path_switches.count(sw)) in.off_path.push_back(sw);
  }

  OpIdAllocator ids;
  for (std::size_t round = 0; round <= kReplacements; ++round) {
    Dag dag(DagId(static_cast<std::uint32_t>(round + 1)));
    int priority = static_cast<int>(round) + 1;
    for (Group& group : groups) {
      for (std::size_t f = 0; f < group.flows.size(); ++f) {
        CompiledPath compiled =
            compile_single_path(group.path, group.flows[f], priority, ids);
        for (const Op& op : compiled.ops) (void)dag.add_op(op);
        for (auto [before, after] : compiled.edges) {
          (void)dag.add_edge(before, after);
        }
        std::vector<Op>& previous = group.flow_ops[f];
        if (!previous.empty()) {
          std::vector<Op> deletions = deletion_ops(previous, ids);
          for (std::size_t i = 0; i < deletions.size(); ++i) {
            (void)dag.add_op(deletions[i]);
            (void)dag.add_edge(compiled.ops[i].id, deletions[i].id);
          }
        }
        previous = std::move(compiled.ops);
      }
    }
    in.ops += dag.size();
    in.edges += dag.edge_count();
    in.dags.push_back(std::move(dag));
  }
  for (const Group& group : groups) {
    for (const auto& ops : group.flow_ops) {
      for (const Op& op : ops) in.final_installs.push_back(op.id.value());
    }
  }
  std::sort(in.final_installs.begin(), in.final_installs.end());

  // Single-component crash targets of the sharded pipeline (the Watchdog
  // restarts each), as SoakWorkload picks them.
  in.crashable.push_back("dag_scheduler");
  CoreConfig core = hot_tier_config(seed).core;
  for (std::size_t i = 0; i < core.num_sequencers; ++i) {
    in.crashable.push_back("sequencer" + std::to_string(i));
  }
  for (std::size_t s = 0; s < kNibShards; ++s) {
    in.crashable.push_back("nib_event_handler" + std::to_string(s));
    in.crashable.push_back("monitoring" + std::to_string(s));
  }
  for (std::size_t i = 0; i < kWorkers; ++i) {
    in.crashable.push_back("worker" + std::to_string(i));
  }
  in.crashable.push_back("reply_router");
  in.crashable.push_back("commit_pump");
  in.crashable.push_back("topo_handler");
  return in;
}

/// SoakWorkload's light chaos: transient blips on switches no flow uses
/// and single-component crashes, both on the simulated clock.
class OffPathChaos {
 public:
  OffPathChaos(Experiment* exp, const SoakInputs* in, std::uint64_t seed)
      : exp_(exp), in_(in), rng_(seed ^ 0x5eed5eedull) {}

  void start() {
    schedule_blip();
    schedule_crash();
  }
  void stop() { stopped_ = true; }

 private:
  void schedule_blip() {
    if (in_->off_path.empty()) return;
    auto gap = static_cast<SimTime>(
        rng_.exponential(static_cast<double>(millis(400))));
    exp_->sim().schedule(gap, [this] {
      if (stopped_) return;
      SwitchId sw = rng_.pick(in_->off_path);
      FailureMode mode = rng_.bernoulli(0.25)
                             ? FailureMode::kCompleteTransient
                             : FailureMode::kPartialTransient;
      exp_->fabric().inject_failure(sw, mode);
      exp_->sim().schedule(millis(150),
                           [this, sw] { exp_->fabric().inject_recovery(sw); });
      schedule_blip();
    });
  }
  void schedule_crash() {
    auto gap = static_cast<SimTime>(
        rng_.exponential(static_cast<double>(seconds(2))));
    exp_->sim().schedule(gap, [this] {
      if (stopped_) return;
      exp_->controller().crash_component(rng_.pick(in_->crashable));
      schedule_crash();
    });
  }

  Experiment* exp_;
  const SoakInputs* in_;
  Rng rng_;
  bool stopped_ = false;
};

}  // namespace

Report run_soak(const Options& options, Tracer& tracer) {
  Report report;
  double gen_start = elapsed_s();
  const SoakInputs in = make_inputs(options.seed);
  double gen_s = elapsed_s() - gen_start;
  double setup_s = elapsed_s();
  std::fprintf(stderr,
               "soak-sharded: %zu DAGs/round, %zu OPs/round, %zu final "
               "entries, set-up %.3fs\n",
               in.dags.size(), in.ops, in.final_installs.size(), setup_s);

  const Tracer::Layer deploy = tracer.layer("harness.deploy");
  const Tracer::Layer copy = tracer.layer("harness.copy");
  const Tracer::Layer submit = tracer.layer("dag.submit");
  const Tracer::Layer probe = tracer.layer("harness.probe");
  const Tracer::Layer run_until = tracer.layer("sim.run_until");
  const Tracer::Layer check = tracer.layer("harness.check");

  Rounds untraced;
  Rounds traced;
  double traced_wall_s = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t applies_traced = 0;
  std::uint64_t nib_writes = 0;
  SimTime sim_busy = 0;
  std::uint64_t sim_ops = 0;

  Window window(options);
  while (window.next()) {
    const bool trace_round = window.traced();
    tracer.set_on(trace_round);
    double round_start = elapsed_s();

    std::unique_ptr<Experiment> exp;
    {
      Span span(tracer, deploy);
      exp = std::make_unique<Experiment>(in.topo, hot_tier_config(options.seed));
      reserve_op_ids(exp->op_ids(), in.dags);
      exp->start();
    }
    if (trace_round) trace_components(exp->controller(), tracer);
    std::uint64_t applies = 0;
    exp->fabric().set_apply_observer(
        [&applies](SwitchId, const Op&) { ++applies; });
    OffPathChaos chaos(exp.get(), &in, options.seed);
    Simulator& sim = exp->sim();
    std::uint64_t events_before = sim.executed_events();

    bool round_ok = true;
    std::uint64_t round_ops = 0;
    // Each DAG is timed in parts: its submission, then every probe +
    // run_until slice (see Rounds).
    std::vector<std::vector<double>> dag_parts;
    for (std::size_t i = 0; i < in.dags.size(); ++i) {
      Dag dag;
      {
        Span span(tracer, copy);
        dag = in.dags[i];
      }
      DagId id = dag.id();
      std::size_t dag_ops = dag.size();
      tracer.set_request(id.value());
      ++report.attempted;
      SimTime sim_start = sim.now();
      std::vector<double> parts;
      auto t0 = std::chrono::steady_clock::now();
      auto lap = [&parts, &t0] {
        auto now = std::chrono::steady_clock::now();
        parts.push_back(
            std::chrono::duration<double, std::milli>(now - t0).count());
        t0 = now;
      };
      {
        Span span(tracer, submit);
        exp->order_checker().register_dag(dag);
        exp->controller().submit_dag(std::move(dag));
      }
      lap();
      SimTime deadline = sim.now() + kDagTimeout;
      bool done = false;
      while (true) {
        {
          Span span(tracer, probe);
          done = exp->checker().converged_scoped(id);
        }
        if (done || sim.now() >= deadline) break;
        {
          Span span(tracer, run_until);
          sim.run_until(
              std::min(deadline, sim.now() + exp->config().poll_interval));
        }
        lap();
      }
      lap();
      if (!done) {
        ++report.failed;
        std::fprintf(stderr, "soak-sharded: dag %u did not converge\n",
                     id.value());
        round_ok = false;
        break;
      }
      dag_parts.push_back(std::move(parts));
      round_ops += dag_ops;
      sim_busy += sim.now() - sim_start;
      sim_ops += dag_ops;
      // Chaos starts after the initial install, as in SoakWorkload.
      if (i == 0) chaos.start();
    }
    chaos.stop();

    {
      Span span(tracer, check);
      // Settle: until every switch is up in the data plane and in the NIB
      // (a blip's recovery and CLEAR_TCAM done), at most kQuiesce.
      exp->run_until(
          [&] {
            for (SwitchId sw : in.off_path) {
              if (!exp->fabric().alive(sw) || !exp->nib().switch_up(sw)) {
                return false;
              }
            }
            return true;
          },
          kQuiesce);
      if (round_ok) {
        report.merge(check_tables(
            snapshot_tables(exp->fabric(), exp->nib()), in.final_installs));
        report.merge(check_applies(applies, round_ops));
      }
      report.expect(exp->order_checker().ok(),
                    "DAG order checker reported violations");
      report.expect(!exp->checker().hidden_entry_signature(),
                    "hidden entries after the round");
    }
    if (round_ok) {
      report.expect((trace_round ? traced : untraced)
                        .add_parts(static_cast<double>(round_ops), dag_parts),
                    "round " + std::to_string(window.rounds()) +
                        " did not repeat the first round's simulated run");
    }
    if (trace_round) {
      sim_events += sim.executed_events() - events_before;
      applies_traced += applies;
      nib_writes += exp->nib().write_count();
    }
    exp.reset();
    if (trace_round) traced_wall_s += elapsed_s() - round_start;
  }
  tracer.set_on(false);
  std::fprintf(stderr, "soak-sharded: %zu rounds, %llu DAGs in %.3fs\n",
               window.rounds(),
               static_cast<unsigned long long>(report.attempted),
               window.elapsed_s());

  if (!options.trace) {
    add_end_to_end(report, setup_s, untraced);
    return report;
  }
  const double ops = traced.work();
  report.add("harness.gen_s", gen_s, "s");
  report.add("harness.deploy_s", tracer.totals("harness.deploy").self_s, "s");
  report.add("harness.probe_s", tracer.totals("harness.probe").self_s, "s");
  report.add("harness.check_s", tracer.totals("harness.check").self_s, "s");
  report.add("dag.submit_s", tracer.totals("dag.submit").self_s, "s");
  report.add("dag.ops_per_dag",
             ratio(static_cast<double>(in.ops),
                   static_cast<double>(in.dags.size())),
             "ops/dag");
  report.add("dag.edges_per_dag",
             ratio(static_cast<double>(in.edges),
                   static_cast<double>(in.dags.size())),
             "edges/dag");
  report.add("sim.events", static_cast<double>(sim_events), "count");
  report.add("sim.events_per_op", ratio(static_cast<double>(sim_events), ops),
             "events/op");
  report.add("sim.run_s", tracer.totals("sim.run_until").self_s, "s");
  report.add("sim.ops_per_sim_s",
             ratio(static_cast<double>(sim_ops), to_seconds(sim_busy)),
             "ops/sim-s");
  report.add("dataplane.applies", static_cast<double>(applies_traced),
             "count");
  report.add("dataplane.applies_per_op",
             ratio(static_cast<double>(applies_traced), ops), "applies/op");
  report.add("nib.writes", static_cast<double>(nib_writes), "count");
  report.add("nib.writes_per_op", ratio(static_cast<double>(nib_writes), ops),
             "writes/op");
  add_core_metrics(report, tracer);
  add_trace_summary(report, tracer, traced_wall_s, untraced, traced);
  return report;
}

}  // namespace perfbench
