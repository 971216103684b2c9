// The Network Information Base.
//
// "A logically centralized in-memory database that stores the network state,
// shares the state with different components, and is a central point for
// communication between microservices" (Table 1). Per assumption A2 the NIB
// is atomic, consistent and never fails; a production deployment would back
// it with a replicated database (the paper cites MongoDB). In the simulator
// every NIB call is a synchronous method on this object, which models
// exactly that assumption.
//
// All durable controller state lives here: OP payloads and lifecycle status,
// per-switch health, DAG bookkeeping, worker in-progress markers (the
// Listing 3 crash-recovery slots), and the controller's view of each
// switch's routing state (R_c in Table 2). Components keep *no* durable
// state of their own — that is what makes component crash + Watchdog restart
// recoverable (§3.9 "state recording and crash recovery").
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/spsc_ring.h"
#include "dag/dag.h"
#include "nib/consistency.h"
#include "nib/events.h"
#include "sim/fifo.h"

namespace zenith {

enum class SwitchHealth : std::uint8_t {
  kUp,
  kDown,
  kRecovering,  // recovery observed; cleanup (CLEAR_TCAM) still in progress
};

const char* to_string(SwitchHealth h);

class Nib {
 public:
  using EventSink = NadirFifo<NibEvent>*;

  /// Registers a subscriber queue that receives every published event.
  void subscribe(EventSink sink) { sinks_.push_back(sink); }

  // ---- sharding (PR 8) -----------------------------------------------------
  //
  // The NIB partitions its hot mutable state by switch: each shard owns the
  // network-wide status index of its switches and a lock-free SPSC event
  // ring into that shard's NIB Event Handler. A NIB with no ring attached
  // (the default; model checkers and unit tests) publishes to its
  // subscribe() sinks only.

  /// The canonical switch -> shard map: the same stable splitmix64 mix the
  /// worker pool uses (CoreContext::shard_of), so ownership is a pure
  /// function of (switch id, shard count) — identical across runs. A mixing hash, not a plain modulo: topology generators hand
  /// out ids with structured strides (fat-tree pod blocks), and the
  /// deterministic routing concentrates load on stride-aligned switches (a
  /// pod's first agg), so `id % shards` can land every hot switch on one
  /// shard. With shards <= 1 everything maps to shard 0.
  static std::size_t shard_slot(SwitchId sw, std::size_t shards) {
    if (shards <= 1) return 0;
    std::uint64_t x =
        static_cast<std::uint64_t>(sw.value()) + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % shards);
  }

  /// Splits the status index into `shards` partitions. Must be called
  /// before any state is registered (fresh NIB only).
  void configure_sharding(std::size_t shards);
  std::size_t shard_count() const { return shards_; }
  std::size_t shard_of(SwitchId sw) const { return shard_slot(sw, shards_); }

  /// Attaches shard `shard`'s event ring and wake hook. Once any ring is
  /// attached, publish() routes switch-keyed events (kOpStatusChanged,
  /// kSwitchHealthChanged) to the owning shard's ring and everything else
  /// to shard 0's — while still fanning every event out to the
  /// subscribe() sinks (the chaos oracle's hidden-probe tap). `wake` fires
  /// on every empty -> non-empty ring transition, on the simulator thread.
  void set_shard_ring(std::size_t shard, SpscRing<NibEvent>* ring,
                      std::function<void()> wake);

  // ---- OP table ------------------------------------------------------------

  /// Registers the OP payload (idempotent for identical payloads).
  void put_op(const Op& op);
  bool has_op(OpId id) const { return ops_.count(id) > 0; }
  const Op& op(OpId id) const { return ops_.at(id); }

  OpStatus op_status(OpId id) const;
  /// Writes the status and publishes kOpStatusChanged if it changed.
  void set_op_status(OpId id, OpStatus status);

  /// All OPs targeting `sw` whose status is in `filter`, sorted by id.
  /// Served from the per-switch x per-status index: O(result), not O(|ops|).
  std::vector<OpId> ops_on_switch(SwitchId sw, StatusMask filter) const;

  /// All OPs (any switch) currently in `status`, sorted by id. Served from
  /// the per-status index: O(result), not O(|ops|).
  std::vector<OpId> ops_with_status(OpStatus status) const;

  /// Bulk-load pre-existing state without publishing events (used to set up
  /// experiments with populated tables; a real deployment would inherit
  /// this state from the database, not generate events for it).
  void preload_op(const Op& op, OpStatus status, bool in_view);

  /// Commits one batch-ACK as a single NIB transaction (A2 atomicity at
  /// batch granularity): every OP in `ops` flips to DONE and the controller
  /// view of `sw` is edited per OP type. Publishes ONE coalesced
  /// kOpStatusChanged event whose `batch` lists every committed OP — the
  /// event-routing pipeline pays per batch, not per OP; consumers tracking
  /// per-OP state expand the list. OPs this NIB never registered (orphans
  /// of a previous master incarnation) are skipped; returns the number
  /// committed.
  std::size_t commit_ack_batch(SwitchId sw, const std::vector<Op>& ops);

  // ---- adaptive consistency (PR 10; see nib/consistency.h) ------------------
  //
  // With eventual_installs enabled, install-only ACK batches commit into a
  // bounded eventual apply log instead of applying synchronously: the batch
  // is durable immediately (it survives OFC instance failures, like the
  // event queue), but statuses/views/events publish only when the apply
  // cursor reaches it. All-strong (the default) never touches any of this —
  // the log stays empty and every code path below is dead.

  void configure_consistency(const ConsistencyConfig& config) {
    consistency_ = config;
  }
  const ConsistencyConfig& consistency() const { return consistency_; }

  /// Eventual-class commit: appends one install-only ACK batch to the
  /// eventual apply log. If the append would push the pending count past
  /// the staleness bound, the oldest entries are applied inline first (E1
  /// holds structurally at every instant). Returns the number of ops
  /// recorded.
  std::size_t eventual_commit_batch(SwitchId sw, std::vector<Op> ops);

  /// Advances the apply cursor by up to `limit` entries (0 = drain all).
  /// Each applied entry runs the normal commit_ack_batch transaction —
  /// status flips, view edits, one coalesced event — filtered to ops still
  /// SENT (a takeover or recovery reset may have re-armed them since the
  /// commit was recorded). Returns entries applied.
  std::size_t apply_eventual(std::size_t limit = 0);

  /// Strong-class barrier: drains the entire eventual log so a strong
  /// transaction observes no pending eventual state (E2). Every strong
  /// path calls this first — sequencer delete release, recovery resets,
  /// CLEAR_TCAM commits, takeover requeues. Returns entries applied.
  std::size_t strong_barrier();

  /// Hook fired on every empty -> non-empty transition of the eventual log
  /// (the EventualApplyPump's wake).
  void set_eventual_wake(std::function<void()> wake) {
    eventual_wake_ = std::move(wake);
  }

  // E1/E2 accounting, read by the campaign oracle and bench_consistency.
  std::uint64_t eventual_committed() const { return eventual_committed_; }
  std::uint64_t eventual_applied() const { return eventual_applied_; }
  std::size_t eventual_pending() const { return eventual_log_.size(); }
  /// High-water pending count over the run; E1 demands <= staleness_bound.
  std::uint64_t eventual_max_lag() const { return eventual_max_lag_; }
  std::uint64_t eventual_barrier_count() const { return eventual_barriers_; }
  /// E2 violation counter: strong-class commit transactions (delete-bearing
  /// batches) that executed while eventual entries were pending. A correct
  /// build keeps this at zero — every strong path barriers first.
  std::uint64_t strong_commits_with_pending() const {
    return strong_commits_with_pending_;
  }

  // ---- switch health -------------------------------------------------------

  void register_switch(SwitchId sw);
  SwitchHealth switch_health(SwitchId sw) const;
  bool switch_up(SwitchId sw) const {
    return switch_health(sw) == SwitchHealth::kUp;
  }
  /// Writes health and publishes kSwitchHealthChanged on transitions into or
  /// out of kUp (components care about usability, not the recovering
  /// sub-state).
  void set_switch_health(SwitchId sw, SwitchHealth health);
  /// All registered switches, sorted by id. The sorted vector is cached and
  /// only rebuilt after register_switch — convergence probes call this in
  /// loops, so re-sorting per call was a measurable hot path.
  const std::vector<SwitchId>& switches() const;

  // ---- link/port health (topology state T_c, Table 2) -----------------------

  /// Records a link transition and publishes kTopologyChanged.
  void set_link_up(LinkId link, bool up);
  bool link_up(LinkId link) const { return !down_links_.count(link); }
  const std::unordered_set<LinkId>& down_links() const { return down_links_; }

  // ---- controller's routing view (R_c) --------------------------------------

  /// Marks `op` as installed on its switch in the controller view.
  void view_add_installed(SwitchId sw, OpId op);
  void view_remove_installed(SwitchId sw, OpId op);
  void view_clear_switch(SwitchId sw);
  const std::unordered_set<OpId>& view_installed(SwitchId sw) const;

  // ---- DAG table ------------------------------------------------------------

  void put_dag(Dag dag);
  bool has_dag(DagId id) const { return dags_.count(id) > 0; }
  const Dag& dag(DagId id) const { return dags_.at(id); }
  void remove_dag(DagId id);
  /// The most recently accepted DAG (the controller's current target).
  std::optional<DagId> current_dag() const { return current_dag_; }
  void set_current_dag(std::optional<DagId> id) { current_dag_ = id; }

  /// Publishes kDagDone (used by apps and the harness's convergence probe).
  void publish_dag_done(DagId id);
  void publish_dag_accepted(DagId id);

  /// Durable "controller certified this DAG as converged" flag.
  void mark_dag_done(DagId id);
  void clear_dag_done(DagId id);
  bool dag_is_done(DagId id) const { return done_dags_.count(id) > 0; }

  // ---- worker crash-recovery slots (Listing 3) ------------------------------

  void set_worker_state(WorkerId worker, std::optional<OpId> op);
  std::optional<OpId> worker_state(WorkerId worker) const;

  // ---- write accounting ------------------------------------------------------

  /// Number of NIB writes performed; reconciliation's NIB-update bottleneck
  /// (Figure 4b) is modeled by charging simulated time per write in the PR
  /// reconciler, and tests use the counter to verify write volumes.
  std::uint64_t write_count() const { return write_count_; }

  // ---- state fingerprint -----------------------------------------------------

  /// Canonical 64-bit digest (FNV-1a over a sorted serialization) of the
  /// durable controller state: OP statuses, the controller view R_c, switch
  /// and link health, DAG bookkeeping and the worker in-progress slots.
  /// write_count_ is deliberately excluded — it is accounting, and batching
  /// legitimately reaches the same state through a different number of
  /// writes. The batch-size determinism contract (CoreConfig::batch_size)
  /// and the golden-fingerprint corpus are asserted over this digest.
  std::uint64_t state_fingerprint() const;

  /// Digest of the slice of durable state owned by shard `shard` under a
  /// `shards`-way shard_slot partition (shard 0 additionally owns the
  /// non-switch-keyed state: links, DAG bookkeeping, worker slots). Pure
  /// read-side function of the partition parameters — computable on ANY
  /// Nib, whatever its own shard count — so the equivalence sweep can fold
  /// the shards of one run and compare against the same fold of another.
  std::uint64_t shard_fingerprint(std::size_t shard, std::size_t shards) const;

  /// shard_fingerprint(0..shards-1, shards) folded in ascending shard
  /// order. shards == 0 means "this NIB's own shard count".
  std::uint64_t folded_shard_fingerprint(std::size_t shards = 0) const;

 private:
  /// Ordered OpId sets per status — one network-wide, one per switch. Kept
  /// incrementally consistent with op_status_ by every status write, so the
  /// hot-path queries (topo handler resets, controller audit, failover,
  /// PR deadlock scans) are O(result) lookups instead of full-table scans.
  using StatusIndex = std::array<std::set<OpId>, kNumOpStatuses>;

  /// Per-shard event plumbing (empty vector until set_shard_ring is called).
  struct ShardIo {
    SpscRing<NibEvent>* ring = nullptr;
    std::function<void()> wake;
  };

  void publish(const NibEvent& event);
  void publish_to_shard(std::size_t shard, const NibEvent& event);
  void index_insert(OpId id, SwitchId sw, OpStatus status);
  void index_erase(OpId id, SwitchId sw, OpStatus status);

  std::unordered_map<OpId, Op> ops_;
  std::unordered_map<OpId, OpStatus> op_status_;
  /// One network-wide status index per shard; slot = shard_of(op.sw).
  std::vector<StatusIndex> by_status_ = std::vector<StatusIndex>(1);
  std::unordered_map<SwitchId, StatusIndex> by_switch_status_;
  std::unordered_map<SwitchId, SwitchHealth> switch_health_;
  mutable std::vector<SwitchId> switches_cache_;
  mutable bool switches_cache_stale_ = false;
  std::unordered_set<LinkId> down_links_;
  std::unordered_map<SwitchId, std::unordered_set<OpId>> view_;
  std::unordered_map<DagId, Dag> dags_;
  std::unordered_set<DagId> done_dags_;
  std::optional<DagId> current_dag_;
  std::unordered_map<WorkerId, OpId> worker_state_;
  std::vector<EventSink> sinks_;
  /// One committed-but-unapplied eventual-class ACK batch.
  struct EventualEntry {
    SwitchId sw;
    std::vector<Op> ops;
  };
  ConsistencyConfig consistency_;
  std::deque<EventualEntry> eventual_log_;
  std::function<void()> eventual_wake_;
  std::uint64_t eventual_committed_ = 0;
  std::uint64_t eventual_applied_ = 0;
  std::uint64_t eventual_max_lag_ = 0;
  std::uint64_t eventual_barriers_ = 0;
  std::uint64_t strong_commits_with_pending_ = 0;
  std::size_t shards_ = 1;
  std::vector<ShardIo> shard_io_;
  std::uint64_t write_count_ = 0;

  static const std::unordered_set<OpId> kEmptyView;
};

}  // namespace zenith
