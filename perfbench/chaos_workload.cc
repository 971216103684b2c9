// chaos-repl: serial chaos campaigns over the adaptive-consistency grid's
// topologies, each with 2 replicated control-plane shards (leader kill,
// leader partition, lease stall) beside the generic switch, link and
// component faults, eventual install commits on, and the lockstep
// conformance oracle at quiescence — the failure and recovery path.
//
// A round is the seed's list of kCampaigns campaigns. Rounds repeat the
// same list, and every repeat must reproduce the first pass's verdict
// digests (the determinism contract). Set-up installs the lockstep oracle
// and proves the oracle live: the same list run with each defect knob on
// must be flagged.
#include <chrono>
#include <cstdio>

#include "mc/lockstep.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace zenith;

constexpr std::size_t kCampaigns = 128;

struct Topo {
  chaos::TopologyKind kind;
  std::size_t size;
};
constexpr Topo kTopologies[] = {
    {chaos::TopologyKind::kFatTree, 4},
    {chaos::TopologyKind::kKdlLike, 14},
    {chaos::TopologyKind::kRandomConnected, 12},
    {chaos::TopologyKind::kRing, 8},
};

bool is_repl_fault(const std::string& kind) {
  return kind.rfind("repl-", 0) == 0;
}

/// The round's campaigns with a defect knob on.
std::vector<chaos::CampaignResult> run_set(
    std::uint64_t seed, const std::function<void(chaos::CampaignConfig&)>& knob) {
  std::vector<chaos::CampaignResult> results;
  for (std::size_t i = 0; i < kCampaigns; ++i) {
    chaos::CampaignConfig config = chaos_campaign(seed, i);
    knob(config);
    results.push_back(chaos::ChaosCampaign(config).run());
  }
  return results;
}

}  // namespace

chaos::CampaignConfig chaos_campaign(std::uint64_t seed, std::size_t index) {
  const Topo& topo = kTopologies[index % std::size(kTopologies)];
  chaos::CampaignConfig config;
  config.topology = topo.kind;
  config.topology_size = topo.size;
  config.seed = seed * 1000 + index;
  config.schedule.horizon = seconds(3);
  config.schedule.fault_count = 10;
  config.core.repl.num_shards = 2;
  config.schedule.weights.repl_kill_leader = 0.25;
  config.schedule.weights.repl_partition_leader = 0.15;
  config.schedule.weights.repl_lease_stall = 0.10;
  config.initial_flows = 4;
  config.update_period = millis(100);
  config.core.consistency.eventual_installs = true;
  // A slow apply pump lets the eventual log accumulate, so its lag probes
  // the E1 bound (as in bench_consistency's eventual cells).
  config.core.eventual_apply_service = millis(1);
  config.lockstep = true;
  return config;
}

Report run_chaos(const Options& options, Tracer& tracer) {
  Report report;
  mc::enable_campaign_lockstep_oracle();
  double check_start = elapsed_s();
  report.merge(check_defect_flagged(
      run_set(options.seed,
              [](chaos::CampaignConfig& c) {
                c.core.repl.bug_commit_before_quorum = true;
              }),
      "repl.bug_commit_before_quorum"));
  report.merge(check_defect_flagged(
      run_set(options.seed,
              [](chaos::CampaignConfig& c) {
                c.core.consistency.bug_skip_barrier = true;
              }),
      "consistency.bug_skip_barrier"));
  double check_s = elapsed_s() - check_start;
  double setup_s = elapsed_s();
  std::fprintf(stderr, "chaos-repl: %zu campaigns/round, set-up %.3fs\n",
               kCampaigns, setup_s);

  const Tracer::Layer campaign = tracer.layer("chaos.campaign");
  std::vector<std::uint64_t> digests;
  Rounds untraced;
  Rounds traced;
  double traced_wall_s = 0.0;
  std::uint64_t sim_events = 0, faults = 0, repl_faults = 0;
  std::uint64_t submitted = 0, certified = 0;
  std::uint64_t eventual_commits = 0, strong_barriers = 0, max_lag = 0;

  Window window(options);
  while (window.next()) {
    const bool trace_round = window.traced();
    tracer.set_on(trace_round);
    double round_start = elapsed_s();
    std::vector<double> campaign_ms;
    for (std::size_t i = 0; i < kCampaigns; ++i) {
      chaos::CampaignConfig config = chaos_campaign(options.seed, i);
      tracer.set_request(config.seed);
      ++report.attempted;
      auto t0 = std::chrono::steady_clock::now();
      chaos::CampaignResult result;
      {
        Span span(tracer, campaign);
        result = chaos::ChaosCampaign(config).run();
      }
      std::chrono::duration<double, std::milli> took =
          std::chrono::steady_clock::now() - t0;
      campaign_ms.push_back(took.count());
      std::string label = "campaign seed " + std::to_string(config.seed);
      report.merge(check_campaign(result, label));
      if (digests.size() < kCampaigns) {
        digests.push_back(result.verdict_digest());
      } else {
        report.merge(check_digest(digests[i], result.verdict_digest(), label));
      }
      if (trace_round) {
        const chaos::CampaignStats& st = result.stats;
        sim_events += st.sim_events_executed;
        faults += st.faults_injected;
        for (const auto& [kind, count] : st.faults_by_kind) {
          if (is_repl_fault(kind)) repl_faults += count;
        }
        submitted += st.dags_submitted;
        certified += st.dags_certified;
        eventual_commits += st.eventual_commits;
        strong_barriers += st.strong_barriers;
        max_lag = std::max<std::uint64_t>(max_lag, st.eventual_max_lag);
      }
    }
    (trace_round ? traced : untraced)
        .add(static_cast<double>(kCampaigns), campaign_ms);
    if (trace_round) traced_wall_s += elapsed_s() - round_start;
  }
  tracer.set_on(false);
  std::fprintf(stderr, "chaos-repl: %zu rounds, %llu campaigns in %.3fs\n",
               window.rounds(), static_cast<unsigned long long>(report.attempted),
               window.elapsed_s());

  if (!options.trace) {
    add_end_to_end(report, setup_s, untraced);
    return report;
  }
  report.add("harness.check_s", check_s, "s");
  report.add("nib.eventual_commits", static_cast<double>(eventual_commits),
             "count");
  report.add("nib.strong_barriers", static_cast<double>(strong_barriers),
             "count");
  report.add("nib.eventual_max_lag", static_cast<double>(max_lag), "entries");
  report.add("chaos.campaign_ms_p50", traced.latency_ms(), "ms");
  report.add("chaos.sim_events", static_cast<double>(sim_events), "count");
  report.add("chaos.faults", static_cast<double>(faults), "count");
  report.add("chaos.repl_faults", static_cast<double>(repl_faults), "count");
  report.add("chaos.certified_ratio",
             ratio(static_cast<double>(certified),
                   static_cast<double>(submitted)),
             "share");
  add_trace_summary(report, tracer, traced_wall_s, untraced, traced);
  return report;
}

}  // namespace perfbench
