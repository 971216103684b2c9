// wire-uds: the wire scenario (B4; initial flows, single-flow churn,
// drain/undrain, then install-only volume waves of ~53-OP DAGs) between a
// ZenithController on a SocketTransport and a SwitchBridge, over an AF_UNIX
// socketpair, on the default unsharded pipeline. One thread drives both ends: poll the socketpair, pump the
// bridge, advance the controller's simulator 200 us — so the work done is
// the same on every run, unlike a two-thread arrangement whose controller
// keeps stepping its simulator while it waits for the peer thread.
//
// The scenarios' DAG sequences are generated before the timed window (the
// wire daemons generate theirs while they run), together with the reference
// NIB fingerprint of each sequence on the in-process sim bus. One round is
// kScenarios scenarios of 25k OPs (100k OPs, ~1.9k DAGs), each on a fresh
// socketpair, bridge and controller.
#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <memory>

#include "apps/drain_app.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/socket_transport.h"
#include "net/switch_bridge.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace zenith;

/// Same bound netd::run_wire_scenario uses for one DAG.
constexpr std::size_t kMaxWaitPumps = 600000;

/// Scenarios per round. Each has its own seed, so a run's figures average
/// over kScenarios flow sets instead of resting on one.
constexpr std::size_t kScenarios = 4;

netd::WireScenarioConfig wire_config(std::uint64_t seed, std::size_t index) {
  netd::WireScenarioConfig config;  // B4, 24 flows
  config.seed = seed * kScenarios + index;
  config.target_ops = 25000;
  config.churn_updates = 50;
  config.drain_rounds = 2;
  return config;
}

/// Times Transport::send for the controller it is given; everything else
/// forwards.
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::Transport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer), send_(tracer->layer("net.send")) {}

  void send(SwitchId sw, SwitchRequest request) override {
    Span span(*tracer_, send_);
    inner_->send(sw, std::move(request));
  }
  NadirFifo<SwitchReply>& replies() override { return inner_->replies(); }
  NadirFifo<SwitchHealthEvent>& health_events() override {
    return inner_->health_events();
  }
  NadirFifo<LinkHealthEvent>& link_events() override {
    return inner_->link_events();
  }
  std::size_t switch_count() const override { return inner_->switch_count(); }
  bool switch_alive(SwitchId sw) const override {
    return inner_->switch_alive(sw);
  }
  void drop_all_in_flight_replies() override {
    inner_->drop_all_in_flight_replies();
  }
  bool writable() const override { return inner_->writable(); }
  void set_resume_callback(std::function<void()> resume) override {
    inner_->set_resume_callback(std::move(resume));
  }

 private:
  net::Transport* inner_;
  Tracer* tracer_;
  Tracer::Layer send_;
};

struct Scenario {
  netd::WireScenarioConfig config;
  std::vector<Dag> dags;
  std::uint64_t reference = 0;  // sim-bus NIB fingerprint of `dags`
  std::size_t ops = 0;
};

struct LayerCounts {
  std::uint64_t sim_events = 0;
  std::uint64_t applies = 0;
  std::uint64_t nib_writes = 0;
  std::uint64_t pumps = 0;
  net::ConnectionStats stats;
  SimTime sim_busy = 0;
  std::uint64_t sim_ops = 0;
};

struct Layers {
  Tracer::Layer deploy, copy, submit, poll, bridge_pump, run_until, check;
};

/// Runs one scenario on a fresh socketpair, bridge and controller; appends
/// each DAG's wall latency to `dag_ms`. False when a DAG was not certified.
bool run_scenario(const Scenario& sc, const Topology& topo, bool traced,
                  Tracer& tracer, const Layers& L, Report& report,
                  LayerCounts& layers, std::vector<double>& dag_ms) {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0 ||
      !net::set_nonblocking(fds[0]).ok() ||
      !net::set_nonblocking(fds[1]).ok()) {
    report.problems.push_back("socketpair failed");
    return false;
  }
  net::EventLoop loop;
  std::unique_ptr<net::SwitchBridge> bridge;
  std::unique_ptr<net::SocketTransport> transport;
  std::unique_ptr<TimedTransport> timed;
  Simulator sim;
  std::unique_ptr<ZenithController> controller;
  {
    Span span(tracer, L.deploy);
    bridge = std::make_unique<net::SwitchBridge>(topo, sc.config.seed);
    bridge->attach(&loop, fds[1]);
    transport = std::make_unique<net::SocketTransport>(&loop, fds[0]);
    if (auto st = transport->handshake(sc.config.seed, /*timeout_ms=*/5000);
        !st.ok()) {
      report.problems.push_back("handshake: " + st.error().message);
      return false;
    }
    net::Transport* given = transport.get();
    if (traced) {
      timed = std::make_unique<TimedTransport>(transport.get(), &tracer);
      given = timed.get();
    }
    controller = std::make_unique<ZenithController>(&sim, given);
    reserve_op_ids(controller->op_ids(), sc.dags);
    controller->start();
  }
  if (traced) trace_components(*controller, tracer);
  std::uint64_t applies = 0;
  bridge->fabric().set_apply_observer(
      [&applies](SwitchId, const Op&) { ++applies; });

  std::uint64_t pumps = 0;
  for (const Dag& input : sc.dags) {
    Dag dag;
    {
      Span span(tracer, L.copy);
      dag = input;
    }
    DagId id = dag.id();
    tracer.set_request(id.value());
    ++report.attempted;
    SimTime sim_start = sim.now();
    auto t0 = std::chrono::steady_clock::now();
    {
      Span span(tracer, L.submit);
      controller->submit_dag(std::move(dag));
    }
    std::size_t waited = 0;
    while (!controller->nib().dag_is_done(id) && waited < kMaxWaitPumps &&
           transport->peer_connected()) {
      ++waited;
      {
        Span span(tracer, L.poll);
        if (!loop.poll(0).ok()) waited = kMaxWaitPumps;
      }
      {
        Span span(tracer, L.bridge_pump);
        bridge->pump();
      }
      Span span(tracer, L.run_until);
      sim.run_until(sim.now() + micros(200));
    }
    std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - t0;
    pumps += waited;
    if (!controller->nib().dag_is_done(id)) {
      ++report.failed;
      std::fprintf(stderr, "wire-uds: dag %u was not certified\n",
                   id.value());
      return false;
    }
    dag_ms.push_back(took.count());
    if (traced) {
      layers.sim_busy += sim.now() - sim_start;
      layers.sim_ops += input.size();
    }
  }
  {
    Span span(tracer, L.check);
    report.merge(check_fingerprint(controller->nib().state_fingerprint(),
                                   sc.reference));
    report.merge(check_frames(bridge->requests_received(),
                              transport->stats().frames_sent));
    report.merge(check_applies(applies, sc.ops));
  }
  if (traced) {
    layers.sim_events += sim.executed_events() + bridge->sim().executed_events();
    layers.applies += applies;
    layers.nib_writes += controller->nib().write_count();
    layers.pumps += pumps;
    const net::ConnectionStats& st = transport->stats();
    layers.stats.frames_sent += st.frames_sent;
    layers.stats.bytes_sent += st.bytes_sent;
    layers.stats.short_writes += st.short_writes;
    layers.stats.stall_events += st.stall_events;
  }
  return true;
}

}  // namespace

std::vector<Dag> wire_dag_sequence(const netd::WireScenarioConfig& config,
                                   double* drain_s) {
  double drain_s_total = 0.0;
  Topology topo = netd::wire_topology(config);
  OpIdAllocator ids;
  Workload workload(&topo, &ids, config.seed);
  std::vector<Dag> dags;
  std::uint64_t ops = 0;
  auto add = [&](Dag dag) {
    ops += dag.op_ids().size();
    dags.push_back(std::move(dag));
  };

  add(workload.initial_dag(config.flows));
  for (std::size_t i = 0; i < config.churn_updates; ++i) {
    auto dag = workload.next_update_dag();
    if (!dag.has_value()) break;
    add(std::move(*dag));
  }
  std::vector<Path> paths = workload.paths();
  std::vector<FlowId> flows = workload.flow_ids();
  std::vector<Op> current = workload.all_flow_ops();
  std::uint32_t next_drain_dag = 1000000;
  for (std::size_t round = 0; round < config.drain_rounds; ++round) {
    auto node = SwitchId(static_cast<std::uint32_t>(
        (config.seed + round) % topo.switch_count()));
    auto started = std::chrono::steady_clock::now();
    auto result = apps::compute_drain_dag(
        apps::DrainRequest{topo, paths, flows, current, node, false},
        DagId(next_drain_dag), ids);
    drain_s_total += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started)
                         .count();
    if (!result.ok()) continue;
    ++next_drain_dag;
    paths = result.value().new_paths;
    flows = result.value().flows;
    current = result.value().new_ops;
    add(std::move(result.value().dag));

    started = std::chrono::steady_clock::now();
    auto back = apps::compute_drain_dag(
        apps::DrainRequest{topo, paths, flows, current, node, true},
        DagId(next_drain_dag), ids);
    drain_s_total += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started)
                         .count();
    if (!back.ok()) continue;
    ++next_drain_dag;
    paths = back.value().new_paths;
    flows = back.value().flows;
    current = back.value().new_ops;
    add(std::move(back.value().dag));
  }
  while (ops < config.target_ops) add(workload.initial_dag(config.flows));
  if (drain_s != nullptr) *drain_s = drain_s_total;
  return dags;
}

std::uint64_t sim_bus_fingerprint(const netd::WireScenarioConfig& config,
                                  const std::vector<Dag>& dags) {
  ExperimentConfig exp_config;
  exp_config.seed = config.seed;
  exp_config.kind = ControllerKind::kZenithNR;
  Experiment experiment(netd::wire_topology(config), exp_config);
  reserve_op_ids(experiment.op_ids(), dags);
  experiment.start();
  for (const Dag& dag : dags) {
    DagId id = dag.id();
    experiment.controller().submit_dag(dag);
    std::size_t pumps = 0;
    while (!experiment.nib().dag_is_done(id)) {
      if (++pumps > kMaxWaitPumps) return 0;
      experiment.run_for(millis(1));
    }
  }
  return experiment.nib().state_fingerprint();
}

Report run_wire(const Options& options, Tracer& tracer) {
  Report report;
  const Topology topo = netd::wire_topology(wire_config(options.seed, 0));
  std::vector<Scenario> scenarios;
  double gen_s = 0.0;
  double drain_s = 0.0;
  std::size_t round_ops = 0, round_dags = 0, round_edges = 0;
  for (std::size_t k = 0; k < kScenarios; ++k) {
    Scenario sc;
    sc.config = wire_config(options.seed, k);
    double gen_start = elapsed_s();
    double scenario_drain_s = 0.0;
    sc.dags = wire_dag_sequence(sc.config, &scenario_drain_s);
    gen_s += elapsed_s() - gen_start;
    drain_s += scenario_drain_s;
    for (const Dag& dag : sc.dags) {
      sc.ops += dag.size();
      round_edges += dag.edge_count();
    }
    sc.reference = sim_bus_fingerprint(sc.config, sc.dags);
    report.expect(sc.reference != 0, "sim-bus reference run did not converge");
    round_ops += sc.ops;
    round_dags += sc.dags.size();
    scenarios.push_back(std::move(sc));
  }
  double setup_s = elapsed_s();
  std::fprintf(stderr,
               "wire-uds: %zu scenarios, %zu DAGs/round, %zu OPs/round, "
               "generation %.3fs, set-up %.3fs\n",
               kScenarios, round_dags, round_ops, gen_s, setup_s);

  const Layers L{tracer.layer("harness.deploy"), tracer.layer("harness.copy"),
                 tracer.layer("dag.submit"),     tracer.layer("net.poll"),
                 tracer.layer("netd.bridge_pump"),
                 tracer.layer("sim.run_until"),  tracer.layer("harness.check")};
  Rounds untraced;
  Rounds traced;
  LayerCounts layers;
  double traced_wall_s = 0.0;

  Window window(options);
  bool ok = true;
  while (ok && window.next()) {
    const bool trace_round = window.traced();
    tracer.set_on(trace_round);
    double round_start = elapsed_s();
    std::vector<double> dag_ms;
    for (const Scenario& sc : scenarios) {
      ok = ok && run_scenario(sc, topo, trace_round, tracer, L, report, layers,
                              dag_ms);
    }
    if (ok) {
      (trace_round ? traced : untraced)
          .add(static_cast<double>(round_ops), dag_ms);
    }
    if (trace_round) traced_wall_s += elapsed_s() - round_start;
  }
  tracer.set_on(false);
  std::fprintf(stderr, "wire-uds: %zu rounds, %llu DAGs in %.3fs\n",
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
  report.add("harness.check_s", tracer.totals("harness.check").self_s, "s");
  report.add("dag.submit_s", tracer.totals("dag.submit").self_s, "s");
  report.add("dag.ops_per_dag",
             ratio(static_cast<double>(round_ops),
                   static_cast<double>(round_dags)),
             "ops/dag");
  report.add("dag.edges_per_dag",
             ratio(static_cast<double>(round_edges),
                   static_cast<double>(round_dags)),
             "edges/dag");
  // p99 with >= 10 samples past it, from the untraced rounds.
  if (std::vector<double> dag_ms = untraced.item_ms(); dag_ms.size() >= 1000) {
    report.add("dag.wall_ms_p99", quantile(dag_ms, 0.99), "ms");
  }
  report.add("apps.drain_s", drain_s, "s");
  report.add("sim.events", static_cast<double>(layers.sim_events), "count");
  report.add("sim.events_per_op",
             ratio(static_cast<double>(layers.sim_events), ops), "events/op");
  report.add("sim.run_s", tracer.totals("sim.run_until").self_s, "s");
  report.add("sim.ops_per_sim_s",
             ratio(static_cast<double>(layers.sim_ops),
                   to_seconds(layers.sim_busy)),
             "ops/sim-s");
  report.add("dataplane.applies", static_cast<double>(layers.applies),
             "count");
  report.add("dataplane.applies_per_op",
             ratio(static_cast<double>(layers.applies), ops), "applies/op");
  report.add("nib.writes", static_cast<double>(layers.nib_writes), "count");
  report.add("nib.writes_per_op",
             ratio(static_cast<double>(layers.nib_writes), ops), "writes/op");
  report.add("net.send_s", tracer.totals("net.send").self_s, "s");
  report.add("net.poll_s", tracer.totals("net.poll").self_s, "s");
  report.add("net.frames_per_op",
             ratio(static_cast<double>(layers.stats.frames_sent), ops),
             "frames/op");
  report.add("net.bytes_per_op",
             ratio(static_cast<double>(layers.stats.bytes_sent), ops), "B/op");
  report.add("net.short_writes", static_cast<double>(layers.stats.short_writes),
             "count");
  report.add("net.stall_events", static_cast<double>(layers.stats.stall_events),
             "count");
  report.add("netd.bridge_pump_s", tracer.totals("netd.bridge_pump").self_s,
             "s");
  report.add("netd.pumps", static_cast<double>(layers.pumps), "count");
  report.add("netd.pumps_per_dag",
             ratio(static_cast<double>(layers.pumps),
                   static_cast<double>(traced.items())),
             "pumps/dag");
  add_core_metrics(report, tracer);
  add_trace_summary(report, tracer, traced_wall_s, untraced, traced);
  return report;
}

}  // namespace perfbench
