#include "chaos/schedule.h"

#include <algorithm>
#include <sstream>

#include "common/rng.h"
#include "core/controller.h"

namespace zenith::chaos {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSwitchFail: return "switch-fail";
    case FaultKind::kSwitchRecover: return "switch-recover";
    case FaultKind::kLinkFail: return "link-fail";
    case FaultKind::kLinkRecover: return "link-recover";
    case FaultKind::kComponentCrash: return "component-crash";
    case FaultKind::kOfcCrash: return "ofc-crash";
    case FaultKind::kDeCrash: return "de-crash";
    case FaultKind::kReplyBurstLoss: return "reply-burst-loss";
    case FaultKind::kReplKillLeader: return "repl-kill-leader";
    case FaultKind::kReplRevive: return "repl-revive";
    case FaultKind::kReplPartitionLeader: return "repl-partition-leader";
    case FaultKind::kReplHeal: return "repl-heal";
    case FaultKind::kReplLeaseStall: return "repl-lease-stall";
    case FaultKind::kReplLeaseResume: return "repl-lease-resume";
  }
  return "?";
}

std::string ChaosEvent::to_string() const {
  std::ostringstream out;
  out << "t=" << to_seconds(at) << "s " << chaos::to_string(kind);
  switch (kind) {
    case FaultKind::kSwitchFail:
      out << " sw" << sw.value()
          << (mode == FailureMode::kCompletePermanent
                  ? " (permanent)"
                  : mode == FailureMode::kPartialTransient ? " (partial)"
                                                           : " (complete)");
      break;
    case FaultKind::kSwitchRecover:
      out << " sw" << sw.value();
      break;
    case FaultKind::kLinkFail:
    case FaultKind::kLinkRecover:
      out << " link" << link.value();
      break;
    case FaultKind::kComponentCrash:
      out << " " << component;
      break;
    case FaultKind::kReplKillLeader:
    case FaultKind::kReplRevive:
    case FaultKind::kReplPartitionLeader:
    case FaultKind::kReplHeal:
    case FaultKind::kReplLeaseStall:
    case FaultKind::kReplLeaseResume:
      out << " shard" << shard;
      break;
    default:
      break;
  }
  return out.str();
}

std::string ChaosSchedule::to_string() const {
  std::ostringstream out;
  out << "schedule seed=" << seed << " (" << events.size() << " events)\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    out << "  " << i << ": " << events[i].to_string() << "\n";
  }
  return out.str();
}

std::uint64_t ChaosSchedule::fingerprint() const {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : to_string()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

ChaosSchedule generate_schedule(const Topology& topo, const CoreConfig& core,
                                const ChaosScheduleConfig& config,
                                std::uint64_t seed) {
  Rng rng(seed ^ 0xC4A05A11C4A05A11ull);
  ChaosSchedule schedule;
  schedule.seed = seed;

  // Crash targets: every component of the wiring `core` builds.
  const std::vector<std::string> components =
      ZenithController::component_names(core);
  const FaultWeights& w = config.weights;
  struct WeightedKind {
    double weight;
    FaultKind kind;
    FailureMode mode;
  };
  const WeightedKind table[] = {
      {w.switch_complete_transient, FaultKind::kSwitchFail,
       FailureMode::kCompleteTransient},
      {w.switch_partial_transient, FaultKind::kSwitchFail,
       FailureMode::kPartialTransient},
      {w.switch_complete_permanent, FaultKind::kSwitchFail,
       FailureMode::kCompletePermanent},
      {w.link_flap, FaultKind::kLinkFail, FailureMode::kCompleteTransient},
      {w.component_crash, FaultKind::kComponentCrash,
       FailureMode::kCompleteTransient},
      {w.ofc_crash, FaultKind::kOfcCrash, FailureMode::kCompleteTransient},
      {w.de_crash, FaultKind::kDeCrash, FailureMode::kCompleteTransient},
      {w.reply_burst_loss, FaultKind::kReplyBurstLoss,
       FailureMode::kCompleteTransient},
      // Gated: on an unreplicated config these weigh zero, are never chosen,
      // and (being at the table's tail) leave every cumulative-weight
      // threshold above untouched — pre-replication schedules stay
      // byte-identical for any seed.
      {core.repl.num_shards > 0 ? w.repl_kill_leader : 0.0,
       FaultKind::kReplKillLeader, FailureMode::kCompleteTransient},
      {core.repl.num_shards > 0 ? w.repl_partition_leader : 0.0,
       FaultKind::kReplPartitionLeader, FailureMode::kCompleteTransient},
      {core.repl.num_shards > 0 ? w.repl_lease_stall : 0.0,
       FaultKind::kReplLeaseStall, FailureMode::kCompleteTransient},
  };
  double total = 0;
  for (const WeightedKind& entry : table) total += entry.weight;

  struct Primary {
    ChaosEvent event;
    SimTime down = 0;  // paired recovery delay; 0 = none
  };
  std::vector<Primary> primaries;
  for (std::size_t i = 0; i < config.fault_count && total > 0; ++i) {
    Primary primary;
    primary.event.at = static_cast<SimTime>(
        rng.uniform(1.0, static_cast<double>(config.horizon)));
    double roll = rng.uniform(0.0, total);
    const WeightedKind* chosen = &table[0];
    for (const WeightedKind& entry : table) {
      chosen = &entry;
      if (roll < entry.weight) break;
      roll -= entry.weight;
    }
    primary.event.kind = chosen->kind;
    primary.event.mode = chosen->mode;
    switch (chosen->kind) {
      case FaultKind::kSwitchFail:
        primary.event.sw = SwitchId(static_cast<std::uint32_t>(
            rng.next_below(topo.switch_count())));
        if (chosen->mode != FailureMode::kCompletePermanent) {
          primary.down = static_cast<SimTime>(
              rng.uniform(static_cast<double>(config.min_down),
                          static_cast<double>(config.max_down)));
        }
        break;
      case FaultKind::kLinkFail:
        primary.event.link = LinkId(
            static_cast<std::uint32_t>(rng.next_below(topo.link_count())));
        primary.down = static_cast<SimTime>(
            rng.uniform(static_cast<double>(config.min_down),
                        static_cast<double>(config.max_down)));
        break;
      case FaultKind::kComponentCrash:
        primary.event.component = rng.pick(components);
        break;
      case FaultKind::kReplKillLeader:
      case FaultKind::kReplPartitionLeader:
      case FaultKind::kReplLeaseStall:
        primary.event.shard = rng.next_below(core.repl.num_shards);
        primary.down = static_cast<SimTime>(
            rng.uniform(static_cast<double>(config.min_down),
                        static_cast<double>(config.max_down)));
        break;
      default:
        break;
    }
    primaries.push_back(std::move(primary));
  }
  std::stable_sort(primaries.begin(), primaries.end(),
                   [](const Primary& a, const Primary& b) {
                     return a.event.at < b.event.at;
                   });

  // Admit switch faults under the concurrency cap (nominal down-times);
  // replication faults under an at-most-one-disruption-per-shard rule
  // (stacked kills/partitions on one shard can starve its quorum past the
  // settle horizon, which tests liveness of the scheduler, not the
  // protocol); everything else passes through.
  auto repl_recovery_kind = [](FaultKind kind) {
    switch (kind) {
      case FaultKind::kReplKillLeader: return FaultKind::kReplRevive;
      case FaultKind::kReplPartitionLeader: return FaultKind::kReplHeal;
      case FaultKind::kReplLeaseStall: return FaultKind::kReplLeaseResume;
      case FaultKind::kLinkFail: return FaultKind::kLinkRecover;
      default: return FaultKind::kSwitchRecover;
    }
  };
  auto is_repl = [](FaultKind kind) {
    return kind == FaultKind::kReplKillLeader ||
           kind == FaultKind::kReplPartitionLeader ||
           kind == FaultKind::kReplLeaseStall;
  };
  std::vector<std::pair<SimTime, SimTime>> down_windows;  // [fail, recover)
  // shard -> disruption window end
  std::vector<std::pair<std::size_t, SimTime>> shard_windows;
  for (const Primary& primary : primaries) {
    if (primary.event.kind == FaultKind::kSwitchFail) {
      SimTime until = primary.down > 0 ? primary.event.at + primary.down
                                       : kSimTimeNever;
      std::size_t overlapping = 0;
      for (auto [begin, end] : down_windows) {
        if (begin <= primary.event.at && primary.event.at < end) ++overlapping;
      }
      if (overlapping >= config.max_concurrent_switch_down) continue;
      down_windows.emplace_back(primary.event.at, until);
    }
    if (is_repl(primary.event.kind)) {
      bool busy = false;
      for (auto [shard, end] : shard_windows) {
        if (shard == primary.event.shard && primary.event.at < end) busy = true;
      }
      if (busy) continue;
      shard_windows.emplace_back(primary.event.shard,
                                 primary.event.at + primary.down);
    }
    schedule.events.push_back(primary.event);
    if (primary.down > 0) {
      ChaosEvent recovery;
      recovery.at = primary.event.at + primary.down;
      recovery.sw = primary.event.sw;
      recovery.link = primary.event.link;
      recovery.shard = primary.event.shard;
      recovery.kind = repl_recovery_kind(primary.event.kind);
      schedule.events.push_back(std::move(recovery));
    }
  }
  std::stable_sort(
      schedule.events.begin(), schedule.events.end(),
      [](const ChaosEvent& a, const ChaosEvent& b) { return a.at < b.at; });
  return schedule;
}

}  // namespace zenith::chaos
