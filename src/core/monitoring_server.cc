#include "core/monitoring_server.h"

#include <string>

#include "obs/obs.h"

namespace zenith {

MonitoringServer::MonitoringServer(CoreContext* ctx, std::size_t shard)
    // Validation/forward half only: the NIB commit is charged by the
    // CommitPump per batched transaction (CoreConfig::monitoring_service).
    : Component(ctx->sim, "monitoring" + std::to_string(shard),
                ctx->config.monitoring_forward_service),
      ctx_(ctx),
      shard_(shard) {
  // The Reply Router owns the transport wake callbacks; this instance wakes
  // on its demuxed per-shard queues.
  ctx_->shard_replies[shard]->set_wake_callback([this] { kick(); });
  ctx_->shard_health[shard]->set_wake_callback([this] { kick(); });
  ctx_->shard_links[shard]->set_wake_callback([this] { kick(); });
}

bool MonitoringServer::try_step() {
  // Health events first: a failure notification should not queue behind a
  // burst of ACKs (the spec models them as separate processes).
  if (process_health_event()) return true;
  // Link/port transitions update the NIB's topology state directly (the
  // Topo Event Handler owns only switch-level health, whose transitions
  // gate OP scheduling).
  NadirFifo<LinkHealthEvent>& links = *ctx_->shard_links[shard_];
  if (!links.empty()) {
    LinkHealthEvent event = links.peek();
    ctx_->nib->set_link_up(event.link, event.up);
    links.ack_pop();
    return true;
  }
  return process_reply();
}

bool MonitoringServer::process_health_event() {
  NadirFifo<SwitchHealthEvent>& events = *ctx_->shard_health[shard_];
  if (events.empty()) return false;
  SwitchHealthEvent event = events.peek();
  // Forward to the Topo Event Handler's queue; it owns all health-state
  // transitions in the NIB (P8: a single writer for switch health).
  ctx_->topo_event_queue.push(event);
  events.ack_pop();
  return true;
}

void MonitoringServer::commit(SwitchId sw, std::vector<Op> ops) {
  if (ops.empty()) return;
  obs::Observability* o = ctx_->observability;
  bool eventual = true;
  for (const Op& op : ops) {
    if (ctx_->config.consistency.classify(op.type) != OpClass::kEventual) {
      eventual = false;
      break;
    }
  }
  if (eventual) {
    // Eventual-class commit (PR 10): durably recorded now, visible when the
    // apply cursor reaches it. Takes precedence over the replicated and the
    // CommitPump routes — the eventual log is local and leader-independent,
    // which is exactly the availability win: an install ACK commits even
    // while the owning repl shard has no live leader (the strong path would
    // drop it and wait for the takeover requeue). Mixed batches (any
    // delete) stay on the strong routes below.
    const std::size_t n = ops.size();
    if (o != nullptr) {
      for (const Op& op : ops) {
        o->op_stage(op.id, name(), "op-ack-eventual",
                    "sw=" + std::to_string(sw.value()));
        o->op_closed(op.id, name(), "done-eventual");
      }
      o->count("eventual_commits");
      o->batch_committed(sw, n);
    }
    ctx_->nib->eventual_commit_batch(sw, std::move(ops));
    if (ctx_->repl != nullptr) ctx_->repl->note_eventual(sw, n);
    return;
  }
  if (ctx_->repl != nullptr) {
    // Replicated commit path: the ACK becomes one shard-log entry; the NIB
    // transaction (and the op-closed span) happens when the shard leader
    // applies the committed entry.
    ctx_->repl->submit_ack(sw, ops);
    if (o != nullptr) o->count("repl_log_submits");
    return;
  }
  // The NIB transaction (and the op-closed observability) happens when the
  // CommitPump applies the job.
  ctx_->commit_queues[shard_]->push(CommitJob{sw, std::move(ops)});
  ctx_->kick_commit_pump();
}

bool MonitoringServer::process_reply() {
  NadirFifo<SwitchReply>& replies = *ctx_->shard_replies[shard_];
  if (replies.empty()) return false;
  SwitchReply reply = replies.peek();
  Nib& nib = *ctx_->nib;
  obs::Observability* o = ctx_->observability;

  switch (reply.type) {
    case SwitchReply::Type::kAck: {
      const Op& op = reply.op;
      if (!nib.has_op(op.id)) {
        // ACK for an OP this controller incarnation never registered (e.g.
        // state installed by a previous master). Reconciliation owns such
        // entries; recording a status for them would fabricate intent.
        if (o != nullptr) o->count("orphan_acks");
        break;
      }
      if (op.type == OpType::kInstallRule || op.type == OpType::kDeleteRule) {
        commit(reply.sw, {op});
        break;
      }
      if (op.type != OpType::kClearTcam) break;  // dumps arrive as kDumpReply
      // CLEAR_TCAM commits inline: it drives the recovery state machine, is
      // rare, and is strong-class — it must not observe a half-applied
      // eventual prefix (E2).
      if (ctx_->config.consistency.any_eventual()) nib.strong_barrier();
      nib.set_op_status(op.id, OpStatus::kDone);
      nib.view_clear_switch(reply.sw);
      // The Topo Event Handler finalizes the recovery (reset OPs, mark UP)
      // — Figure A.5 steps 6-8.
      ctx_->cleanup_reply_queue.push(reply);
      if (o != nullptr) {
        // ACK observed and NIB commit recorded: this closes the OP's causal
        // lifecycle span opened at scheduling time.
        o->op_stage(op.id, name(), "op-ack",
                    "sw=" + std::to_string(reply.sw.value()));
        o->op_closed(op.id, name(), "done");
        o->batch_committed(reply.sw, 1);
      }
      break;
    }
    case SwitchReply::Type::kBatchAck: {
      // One reply closes a whole dispatch batch: the per-reply service step
      // is amortized over batch.size() OPs, and the NIB commits them as a
      // single transaction. This amortization is the batching throughput
      // win bench_soak measures.
      std::vector<Op> known;
      known.reserve(reply.batch.size());
      for (const Op& op : reply.batch) {
        if (nib.has_op(op.id)) {
          known.push_back(op);
        } else if (o != nullptr) {
          // Same orphan rule as kAck: reconciliation owns entries a previous
          // master installed.
          o->count("orphan_acks");
        }
      }
      commit(reply.sw, std::move(known));
      break;
    }
    case SwitchReply::Type::kDumpReply:
      if (reply.xid & kReconciliationXidFlag) {
        // Periodic-reconciliation dump (PR baseline).
        ctx_->reconciler_reply_queue.push(reply);
      } else {
        // Directed-reconciliation read — the Topo Event Handler diffs it.
        ctx_->cleanup_reply_queue.push(reply);
      }
      break;
    case SwitchReply::Type::kRoleAck:
      ctx_->role_reply_queue.push(reply);
      break;
  }
  replies.ack_pop();
  return true;
}

void MonitoringServer::on_restart() {
  // Keepalive re-establishment: after an OFC outage the monitoring server
  // re-learns the liveness of the switches its shard owns and synthesizes
  // the events the dead instance missed. Without this, a failure event lost
  // with the old instance would leave the NIB permanently stale. The
  // instances of the other shards cover their switches, so the union is one
  // resync per switch without duplicate synthesized events.
  Nib& nib = *ctx_->nib;
  for (SwitchId sw : nib.switches()) {
    if (ctx_->nib_shard_of(sw) != shard_) continue;
    bool actually_up = ctx_->transport->switch_alive(sw);
    SwitchHealth recorded = nib.switch_health(sw);
    if (!actually_up && recorded != SwitchHealth::kDown) {
      SwitchHealthEvent event;
      event.type = SwitchHealthEvent::Type::kFailure;
      event.sw = sw;
      ctx_->topo_event_queue.push(event);
    } else if (actually_up && recorded == SwitchHealth::kDown) {
      SwitchHealthEvent event;
      event.type = SwitchHealthEvent::Type::kRecovery;
      event.sw = sw;
      ctx_->topo_event_queue.push(event);
    }
  }
}

}  // namespace zenith
