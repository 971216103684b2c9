#include "core/commit_pump.h"

#include <string>

#include "obs/obs.h"

namespace zenith {

CommitPump::CommitPump(CoreContext* ctx)
    : Component(ctx->sim, "commit_pump", ctx->config.monitoring_service),
      ctx_(ctx) {}

bool CommitPump::try_step() {
  // Drain the whole backlog queued at step time, shard by shard: the step
  // applies it as one batched NIB transaction per shard (see header). Jobs
  // pushed by later simulator events belong to the next service step.
  jobs_.clear();
  for (auto& queue : ctx_->commit_queues) {
    while (auto job = queue->try_pop()) jobs_.push_back(std::move(*job));
  }
  if (jobs_.empty()) return false;
  // Eventual mode (PR 10): install-only batches never reach the commit
  // queues (they route to the eventual log at the monitor), so every job
  // here carries a delete — strong-class. Drain the eventual log first (E2).
  if (ctx_->config.consistency.any_eventual()) ctx_->nib->strong_barrier();
  for (const CommitJob& job : jobs_) apply(job);
  jobs_.clear();
  return true;
}

void CommitPump::apply(const CommitJob& job) {
  Nib& nib = *ctx_->nib;
  obs::Observability* o = ctx_->observability;
  fresh_.clear();
  for (const Op& op : job.ops) {
    // Same freshness rule as the replicated log's apply path: an ACK can
    // outlive its OP's SENT state (takeover requeue, recovery reset); only
    // OPs still SENT commit, the level-triggered pipeline re-drives the rest.
    if (nib.has_op(op.id) && nib.op_status(op.id) == OpStatus::kSent) {
      fresh_.push_back(op);
    } else if (o != nullptr) {
      o->count("commit_stale_ops");
    }
  }
  const std::size_t committed = nib.commit_ack_batch(job.sw, fresh_);
  if (o == nullptr) return;
  for (const Op& op : fresh_) {
    o->op_stage(op.id, name(), "op-ack", "sw=" + std::to_string(job.sw.value()));
    o->op_closed(op.id, name(), "done");
  }
  if (committed > 0) o->batch_committed(job.sw, committed);
}

}  // namespace zenith
