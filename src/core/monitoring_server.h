// The OFC Monitoring Server (Table 1): terminates switch channels, collects
// ACKs and health events, and updates the NIB.
//
// One instance per NIB shard ("monitoring<shard>") consumes the per-shard
// queues the Reply Router demuxes from the transport streams. An
// install/delete ACK becomes a CommitJob on the shard's MPSC queue; the
// CommitPump performs the NIB transaction and the op-closed observability.
//
// Verified-spec behaviours preserved:
//  * P3: every ACK of a live OP updates the NIB — an install ACK marks the
//    OP DONE and adds it to the controller's routing view (R_c). The
//    CommitPump (like the replicated log's apply path) commits only OPs
//    still SENT: an ACK that outlived that state (takeover requeue, recovery
//    reset) is dropped and the level-triggered pipeline re-drives the OP;
//  * P4(2): ACKs from one switch are processed in arrival order (the fabric
//    guarantees per-switch FIFO delivery, the router keeps a switch on one
//    shard, this component and the CommitPump process FIFO);
//  * routing: CLEAR_TCAM ACKs and directed-reconciliation dumps are
//    forwarded to the Topo Event Handler, role ACKs to the failover
//    manager, and raw health events to the Topo Event Handler.
#pragma once

#include <cstddef>
#include <vector>

#include "core/component.h"
#include "core/context.h"

namespace zenith {

class MonitoringServer : public Component {
 public:
  /// Instance on ctx->shard_{replies,health,links}[shard].
  MonitoringServer(CoreContext* ctx, std::size_t shard);

 protected:
  bool try_step() override;
  void on_restart() override;

 private:
  bool process_reply();
  bool process_health_event();
  /// Commits `ops` (install-only: eventual log; otherwise the replicated
  /// log or the shard's CommitPump queue).
  void commit(SwitchId sw, std::vector<Op> ops);

  CoreContext* ctx_;
  std::size_t shard_;
};

}  // namespace zenith
