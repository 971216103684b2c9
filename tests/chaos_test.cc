// Chaos campaign engine tests: schedule determinism, the ≥50-campaign
// seeded sweep over the evaluation topologies, the invariant oracle
// catching a deliberately injected consistency bug, the shrinker reducing
// the violating schedule to a minimal reproducer trace, and the curated
// regression traces staying green on a clean build.
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/campaign.h"
#include "chaos/parallel.h"
#include "chaos/shrink.h"
#include "to/library.h"

namespace zenith::chaos {
namespace {

CampaignConfig sweep_config(TopologyKind topology, std::size_t size,
                            std::uint64_t seed, std::size_t nib_shards = 1) {
  CampaignConfig config;
  config.topology = topology;
  config.topology_size = size;
  config.seed = seed;
  config.core.nib_shards = nib_shards;
  config.schedule.horizon = seconds(4);
  config.schedule.fault_count = 10;
  config.initial_flows = 4;
  return config;
}

/// The deliberately buggy build the acceptance criterion demands: §G's
/// mark-UP-before-reset knob plus a fast update cadence so installs race
/// the post-recovery OP reset window.
CampaignConfig buggy_config(std::uint64_t seed) {
  CampaignConfig config;
  config.topology = TopologyKind::kDiamond;
  config.seed = seed;
  config.schedule.horizon = seconds(6);
  config.schedule.fault_count = 14;
  config.initial_flows = 2;
  config.update_period = millis(30);
  config.core.bugs.mark_up_before_reset = true;
  return config;
}

TEST(ChaosSchedule, SameSeedSameSchedule) {
  CampaignConfig config = sweep_config(TopologyKind::kKdlLike, 16, 7);
  Topology topo = make_topology(config);
  ChaosSchedule a =
      generate_schedule(topo, config.core, config.schedule, config.seed);
  ChaosSchedule b =
      generate_schedule(topo, config.core, config.schedule, config.seed);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  ChaosSchedule c =
      generate_schedule(topo, config.core, config.schedule, config.seed + 1);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(ChaosSchedule, EventsSortedAndRecoveriesPaired) {
  CampaignConfig config = sweep_config(TopologyKind::kB4, 0, 3);
  Topology topo = make_topology(config);
  ChaosSchedule schedule =
      generate_schedule(topo, config.core, config.schedule, config.seed);
  ASSERT_FALSE(schedule.events.empty());
  for (std::size_t i = 1; i < schedule.events.size(); ++i) {
    EXPECT_LE(schedule.events[i - 1].at, schedule.events[i].at);
  }
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    const ChaosEvent& event = schedule.events[i];
    EXPECT_GT(event.at, 0);
    if (event.kind == FaultKind::kSwitchFail &&
        event.mode != FailureMode::kCompletePermanent) {
      bool paired = false;
      for (std::size_t j = i + 1; j < schedule.events.size(); ++j) {
        if (schedule.events[j].kind == FaultKind::kSwitchRecover &&
            schedule.events[j].sw == event.sw) {
          paired = true;
          break;
        }
      }
      EXPECT_TRUE(paired) << "unpaired transient fault: "
                          << event.to_string();
    }
  }
}

// Component-crash faults are drawn from the wiring's own roster: every
// name must resolve to a live component at every shard count, and the
// roster must be exactly the components the Watchdog watches.
TEST(ChaosSchedule, RosterNamesResolveAtEveryShardCount) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (bool eventual : {false, true}) {
      CampaignConfig config = sweep_config(TopologyKind::kB4, 0, 1, shards);
      config.core.consistency.eventual_installs = eventual;
      ExperimentConfig exp_config;
      exp_config.core = config.core;
      Experiment exp(make_topology(config), exp_config);
      std::vector<std::string> live;
      for (Component* c : exp.controller().components()) {
        live.push_back(c->name());
      }
      const std::vector<std::string> roster =
          ZenithController::component_names(config.core);
      for (const std::string& name : roster) {
        EXPECT_NE(exp.controller().component(name), nullptr)
            << name << " missing at nib_shards=" << shards;
      }
      EXPECT_EQ(roster, live) << "nib_shards=" << shards;
    }
  }
}

TEST(ChaosCampaign, SweepFiftyCampaignsAcrossTopologiesDeterministically) {
  struct Entry {
    TopologyKind kind;
    std::size_t size;
    std::size_t nib_shards;
  };
  // Every topology at one NIB shard (the default) and at four.
  const Entry topologies[] = {
      {TopologyKind::kKdlLike, 16, 1}, {TopologyKind::kB4, 0, 1},
      {TopologyKind::kFatTree, 4, 1},  {TopologyKind::kKdlLike, 16, 4},
      {TopologyKind::kB4, 0, 4},       {TopologyKind::kFatTree, 4, 4},
  };
  constexpr std::uint64_t kSeeds = 18;  // 18 x 6 cells = 108 campaigns

  // The sweep runs on the ParallelRunner pool; every campaign is an
  // independent deterministic simulation, so parallel execution must not
  // perturb a single fingerprint (witness seeds are re-run serially below).
  std::vector<CampaignConfig> configs;
  for (const Entry& entry : topologies) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      configs.push_back(
          sweep_config(entry.kind, entry.size, seed, entry.nib_shards));
    }
  }
  ParallelRunner runner;
  std::vector<CampaignResult> results = runner.run_campaigns(configs);
  ASSERT_EQ(results.size(), configs.size());

  std::size_t campaigns = 0;
  // (nib_shards, schedule fingerprint): a seed draws the same schedule at
  // both shard counts unless a component crash picks a per-shard stage.
  std::set<std::pair<std::size_t, std::uint64_t>> fingerprints;
  struct Witness {
    Entry entry;
    std::uint64_t fingerprint;
    std::uint64_t digest;
  };
  std::vector<Witness> witnesses;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CampaignResult& result = results[i];
    const CampaignConfig& config = configs[i];
    ++campaigns;
    EXPECT_TRUE(result.ok)
        << to_string(config.topology) << " nib_shards "
        << config.core.nib_shards << " seed " << config.seed << ": "
        << result.summary();
    EXPECT_GT(result.stats.faults_injected, 0u);
    fingerprints.insert({config.core.nib_shards, result.schedule_fingerprint});
    if (config.seed == 1) {
      witnesses.push_back({{config.topology, config.topology_size,
                            config.core.nib_shards},
                           result.schedule_fingerprint,
                           result.verdict_digest()});
    }
  }
  EXPECT_GE(campaigns, 100u);
  // Seeds decorrelate: near-every schedule is distinct.
  EXPECT_GT(fingerprints.size(), campaigns - 3);
  // Re-running a witness seed *serially* reproduces schedule and verdict
  // exactly — the serial-vs-parallel determinism contract.
  for (const Witness& witness : witnesses) {
    ChaosCampaign campaign(sweep_config(witness.entry.kind, witness.entry.size,
                                        1, witness.entry.nib_shards));
    CampaignResult result = campaign.run();
    EXPECT_EQ(result.schedule_fingerprint, witness.fingerprint);
    EXPECT_EQ(result.verdict_digest(), witness.digest);
  }
}

TEST(ChaosCampaign, InjectedBugCaughtAndShrunkToShortTrace) {
  // Find a violating seed on the buggy build (seed 1 suffices today; scan a
  // few in case knob tuning shifts the racing window).
  std::uint64_t violating_seed = 0;
  ChaosSchedule failing;
  CampaignConfig config;
  for (std::uint64_t seed = 1; seed <= 8 && violating_seed == 0; ++seed) {
    config = buggy_config(seed);
    ChaosCampaign campaign(config);
    CampaignResult result = campaign.run();
    if (!result.ok) {
      violating_seed = seed;
      failing = campaign.schedule();
    }
  }
  ASSERT_NE(violating_seed, 0u)
      << "oracle missed the deliberately injected bug on 8 seeds";

  ShrinkResult shrunk = shrink_schedule(config, failing);
  EXPECT_FALSE(shrunk.minimal_result.ok);
  EXPECT_LT(shrunk.minimal.size(), failing.size());
  EXPECT_LE(shrunk.trace.length(), 10u)
      << "minimal reproducer not minimal enough:\n"
      << shrunk.trace.to_string();
  EXPECT_FALSE(shrunk.trace.violation.empty());

  // The emitted trace is a faithful reproducer: replaying it under the
  // same campaign harness trips the oracle again...
  ChaosCampaign replayer(config);
  EXPECT_FALSE(replayer.replay(shrunk.trace).ok);
  // ...and a clean build replays it without violation.
  CampaignConfig clean = config;
  clean.core.bugs = SpecBugs{};
  ChaosCampaign clean_replayer(clean);
  CampaignResult clean_result = clean_replayer.replay(shrunk.trace);
  EXPECT_TRUE(clean_result.ok) << clean_result.summary();
}

TEST(ChaosCampaign, CuratedRegressionTraces) {
  std::vector<to::Trace> traces = to::chaos_regression_traces();
  ASSERT_FALSE(traces.empty());
  for (const to::Trace& trace : traces) {
    SCOPED_TRACE(trace.name);
    EXPECT_LE(trace.length(), 10u);

    // The workload stream is seed-derived; curated traces name the campaign
    // seed they reproduce under as a trailing /seedN component.
    std::size_t marker = trace.name.rfind("/seed");
    ASSERT_NE(marker, std::string::npos);
    std::uint64_t seed = std::stoull(trace.name.substr(marker + 5));
    CampaignConfig config = buggy_config(seed);
    ChaosCampaign buggy(config);
    EXPECT_FALSE(buggy.replay(trace).ok)
        << "curated reproducer no longer trips the oracle";

    CampaignConfig clean = config;
    clean.core.bugs = SpecBugs{};
    ChaosCampaign fixed(clean);
    CampaignResult result = fixed.replay(trace);
    EXPECT_TRUE(result.ok) << result.summary();
  }
}

TEST(ChaosCampaign, CommitBeforeQuorumCaughtAndShrunkToShortTrace) {
  // The replication acceptance defect: a leader that applies entries to the
  // NIB before any follower holds them loses committed state when it dies.
  // The schedule is curated — one kill-leader plus its revive, no other
  // faults — because the oracle needs the kill to land inside the one-hop
  // replication window behind an append; scanning kill offsets across the
  // initial-install burst finds it deterministically. (Generated multi-kill
  // schedules are avoided here: ddmin subsets of stacked kills can starve a
  // shard's quorum on the clean build and turn the green replay flaky.)
  CampaignConfig config;
  config.topology = TopologyKind::kKdlLike;
  config.topology_size = 12;
  config.seed = 6;
  config.schedule.horizon = seconds(3);
  config.initial_flows = 4;
  config.update_period = millis(40);
  config.core.repl.num_shards = 1;
  config.core.repl.bug_commit_before_quorum = true;

  ChaosSchedule failing;
  bool caught = false;
  for (SimTime kill_at = millis(4); kill_at <= millis(60) && !caught;
       kill_at += millis(4)) {
    ChaosSchedule schedule;
    schedule.seed = config.seed;
    ChaosEvent kill;
    kill.kind = FaultKind::kReplKillLeader;
    kill.at = kill_at;
    kill.shard = 0;
    schedule.events.push_back(kill);
    ChaosEvent revive;
    revive.kind = FaultKind::kReplRevive;
    revive.at = kill_at + millis(400);
    revive.shard = 0;
    schedule.events.push_back(revive);
    ChaosCampaign campaign(config);
    CampaignResult result = campaign.run(schedule);
    if (result.ok) continue;
    caught = true;
    failing = schedule;
    bool r2 = false;
    for (const std::string& violation : result.violations) {
      if (violation.find("R2") != std::string::npos) r2 = true;
    }
    EXPECT_TRUE(r2) << result.summary();
  }
  ASSERT_TRUE(caught)
      << "commit-before-quorum never violated R2 across the kill-offset scan";

  // ddmin cuts the reproducer to its essence (the revive is deletable: the
  // surviving pair is still a quorum and the violation is already durable).
  ShrinkResult shrunk = shrink_schedule(config, failing);
  EXPECT_FALSE(shrunk.minimal_result.ok);
  EXPECT_LE(shrunk.minimal.size(), 2u);
  EXPECT_LE(shrunk.trace.length(), 4u)
      << "minimal reproducer not minimal enough:\n"
      << shrunk.trace.to_string();
  EXPECT_FALSE(shrunk.trace.violation.empty());

  // Faithful reproducer: the buggy build trips again on replay, the fixed
  // build replays the same trace green.
  ChaosCampaign replayer(config);
  EXPECT_FALSE(replayer.replay(shrunk.trace).ok);
  CampaignConfig clean = config;
  clean.core.repl.bug_commit_before_quorum = false;
  ChaosCampaign clean_replayer(clean);
  CampaignResult clean_result = clean_replayer.replay(shrunk.trace);
  EXPECT_TRUE(clean_result.ok) << clean_result.summary();
}

TEST(ChaosSchedule, ReplFaultsRespectShardAdmissionAndPairing) {
  // Generated replicated schedules: every repl disruption carries its paired
  // recovery, and at most one disruption window is outstanding per shard at
  // a time (stacked kills would starve the quorum past the settle horizon
  // and test scheduler liveness instead of the protocol).
  CampaignConfig config = sweep_config(TopologyKind::kFatTree, 4, 9);
  config.core.repl.num_shards = 2;
  config.schedule.fault_count = 14;
  config.schedule.weights.repl_kill_leader = 0.3;
  config.schedule.weights.repl_partition_leader = 0.2;
  config.schedule.weights.repl_lease_stall = 0.1;
  Topology topo = make_topology(config);
  ChaosSchedule schedule =
      generate_schedule(topo, config.core, config.schedule, config.seed);

  auto is_disruption = [](FaultKind kind) {
    return kind == FaultKind::kReplKillLeader ||
           kind == FaultKind::kReplPartitionLeader ||
           kind == FaultKind::kReplLeaseStall;
  };
  auto is_recovery = [](FaultKind kind) {
    return kind == FaultKind::kReplRevive || kind == FaultKind::kReplHeal ||
           kind == FaultKind::kReplLeaseResume;
  };
  std::size_t repl_faults = 0;
  std::map<std::size_t, int> open_windows;
  for (const ChaosEvent& event : schedule.events) {
    if (is_disruption(event.kind)) {
      ++repl_faults;
      EXPECT_LT(event.shard, config.core.repl.num_shards);
      EXPECT_EQ(open_windows[event.shard], 0)
          << "overlapping repl disruptions on shard " << event.shard;
      ++open_windows[event.shard];
    } else if (is_recovery(event.kind)) {
      --open_windows[event.shard];
      EXPECT_GE(open_windows[event.shard], 0);
    }
  }
  EXPECT_GT(repl_faults, 0u) << "weights drew no repl faults at all";
  for (const auto& [shard, open] : open_windows) {
    EXPECT_EQ(open, 0) << "unpaired repl disruption on shard " << shard;
  }

  // An unreplicated core never draws them, and adding the (zero-weight)
  // repl table entries leaves the rng stream untouched: the schedule is
  // byte-identical to one generated with replication disabled.
  CampaignConfig plain = sweep_config(TopologyKind::kFatTree, 4, 9);
  plain.schedule.fault_count = 14;
  Topology plain_topo = make_topology(plain);
  ChaosSchedule unreplicated = generate_schedule(
      plain_topo, plain.core, plain.schedule, plain.seed);
  for (const ChaosEvent& event : unreplicated.events) {
    EXPECT_FALSE(is_disruption(event.kind) || is_recovery(event.kind));
  }
  CampaignConfig weightless = plain;
  weightless.schedule.weights.repl_kill_leader = 0.3;  // forced to 0: no shards
  ChaosSchedule gated = generate_schedule(
      plain_topo, weightless.core, weightless.schedule, weightless.seed);
  EXPECT_EQ(unreplicated.fingerprint(), gated.fingerprint());
}

TEST(ChaosCampaign, PermanentAmputationFallsBackToViewConsistency) {
  CampaignConfig config = sweep_config(TopologyKind::kKdlLike, 16, 11);
  ChaosSchedule schedule;
  schedule.seed = config.seed;
  ChaosEvent event;
  event.kind = FaultKind::kSwitchFail;
  event.at = millis(500);
  event.sw = SwitchId(2);
  event.mode = FailureMode::kCompletePermanent;
  schedule.events.push_back(event);
  ChaosCampaign campaign(config);
  CampaignResult result = campaign.run(schedule);
  EXPECT_TRUE(result.ok) << result.summary();
}

TEST(ChaosCampaign, ReplyBurstLossRecoversViaStandbyReissue) {
  CampaignConfig config = sweep_config(TopologyKind::kB4, 0, 5);
  ChaosSchedule schedule;
  schedule.seed = config.seed;
  ChaosEvent event;
  event.kind = FaultKind::kReplyBurstLoss;
  event.at = millis(300);
  schedule.events.push_back(event);
  ChaosCampaign campaign(config);
  CampaignResult result = campaign.run(schedule);
  EXPECT_TRUE(result.ok) << result.summary();
}

}  // namespace
}  // namespace zenith::chaos
