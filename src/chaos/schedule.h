// Randomized multi-fault schedules for chaos campaigns.
//
// A ChaosSchedule is a deterministic function of (topology, controller
// config, knobs, seed): a time-sorted list of fault injections spanning
// every failure axis the paper's Table 3 exercises — switch failures in all
// three FailureModes, link flaps, component crashes (Watchdog-recovered),
// complete OFC/DE microservice failures, and burst reply loss via an abrupt
// OFC switchover. Transient faults carry their paired recovery as a
// separate event so the shrinker can delete either independently (the
// fabric guards make orphaned recoveries no-ops).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/context.h"
#include "dataplane/abstract_switch.h"
#include "topo/topology.h"

namespace zenith::chaos {

enum class FaultKind : std::uint8_t {
  kSwitchFail,      // per `mode`, paired with kSwitchRecover unless permanent
  kSwitchRecover,
  kLinkFail,        // paired with kLinkRecover
  kLinkRecover,
  kComponentCrash,  // one controller component; the Watchdog revives it
  kOfcCrash,        // complete OFC microservice failure, standby takeover
  kDeCrash,         // complete DE microservice failure, standby takeover
  kReplyBurstLoss,  // drop_all_in_flight_replies + abrupt OFC switchover
  // Replicated-control-plane faults (src/repl). Only drawn when the core
  // config enables replication (repl.num_shards > 0); all are no-ops on an
  // unreplicated controller so shrunk schedules stay replayable anywhere.
  kReplKillLeader,      // kill shard leader mid-flight, paired kReplRevive
  kReplRevive,          // revive every dead replica of the shard
  kReplPartitionLeader, // isolate the leader from its peers, paired kReplHeal
  kReplHeal,            // heal all replica-to-replica partitions of the shard
  kReplLeaseStall,      // wedge the leader's heartbeats (lease-expiry race),
                        // paired kReplLeaseResume
  kReplLeaseResume,
};

const char* to_string(FaultKind kind);

struct ChaosEvent {
  FaultKind kind = FaultKind::kSwitchFail;
  SimTime at = 0;
  SwitchId sw;                                        // switch faults
  FailureMode mode = FailureMode::kCompleteTransient; // kSwitchFail
  LinkId link;                                        // link faults
  std::string component;                              // kComponentCrash
  std::size_t shard = 0;                              // kRepl* faults

  std::string to_string() const;
};

/// Relative likelihood of each primary fault class. Recoveries are not
/// drawn; they ride along with their transient fault. Permanent switch
/// failures default to zero weight because they permanently amputate part
/// of the data plane, which weakens the eventual-consistency oracle (the
/// checker can only skip dead switches); enable them deliberately.
struct FaultWeights {
  double switch_complete_transient = 0.32;
  double switch_partial_transient = 0.20;
  double switch_complete_permanent = 0.0;
  double link_flap = 0.16;
  double component_crash = 0.16;
  double ofc_crash = 0.06;
  double de_crash = 0.05;
  double reply_burst_loss = 0.05;
  /// Replication faults default to zero weight and are additionally forced
  /// to zero when `core.repl.num_shards == 0`: a zero-weight entry is never
  /// chosen and draws nothing from the rng stream, so schedules generated
  /// before replication existed are byte-identical (golden fingerprints).
  double repl_kill_leader = 0.0;
  double repl_partition_leader = 0.0;
  double repl_lease_stall = 0.0;
};

struct ChaosScheduleConfig {
  /// Faults are drawn uniformly over (0, horizon].
  SimTime horizon = seconds(8);
  /// Number of primary faults (recoveries excluded).
  std::size_t fault_count = 12;
  /// Transient down-time range (switch and link faults).
  SimTime min_down = millis(50);
  SimTime max_down = millis(1200);
  /// At most this many switches scheduled down simultaneously; excess
  /// switch faults are dropped at generation time.
  std::size_t max_concurrent_switch_down = 2;
  FaultWeights weights;
};

struct ChaosSchedule {
  std::uint64_t seed = 0;
  std::vector<ChaosEvent> events;  // sorted by `at`

  std::size_t size() const { return events.size(); }
  std::string to_string() const;
  /// FNV-1a over the rendered schedule: equal fingerprints ⇔ identical
  /// schedules, the determinism witness chaos_test asserts on.
  std::uint64_t fingerprint() const;
};

/// Deterministically generates a schedule. kComponentCrash targets are
/// drawn from ZenithController::component_names(core), so each names a
/// component of the wiring `core` builds.
ChaosSchedule generate_schedule(const Topology& topo, const CoreConfig& core,
                                const ChaosScheduleConfig& config,
                                std::uint64_t seed);

}  // namespace zenith::chaos
