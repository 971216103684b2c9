#include "core/reply_router.h"

namespace zenith {

ReplyRouter::ReplyRouter(CoreContext* ctx)
    : Component(ctx->sim, "reply_router", ctx->config.reply_route_service),
      ctx_(ctx) {
  ctx_->transport->replies().set_wake_callback([this] { kick(); });
  ctx_->transport->health_events().set_wake_callback([this] { kick(); });
  ctx_->transport->link_events().set_wake_callback([this] { kick(); });
}

bool ReplyRouter::try_step() {
  bool did_work = false;
  for (std::size_t i = 0; i < kBatch; ++i) {
    // Same priority order as a Monitoring Server step: health first, then
    // links, then replies.
    NadirFifo<SwitchHealthEvent>& health = ctx_->transport->health_events();
    if (!health.empty()) {
      SwitchHealthEvent event = health.peek();
      ctx_->shard_health[ctx_->nib_shard_of(event.sw)]->push(event);
      health.ack_pop();
      did_work = true;
      continue;
    }
    NadirFifo<LinkHealthEvent>& links = ctx_->transport->link_events();
    if (!links.empty()) {
      LinkHealthEvent event = links.peek();
      ctx_->shard_links[0]->push(event);  // links are not switch-keyed
      links.ack_pop();
      did_work = true;
      continue;
    }
    NadirFifo<SwitchReply>& replies = ctx_->transport->replies();
    if (!replies.empty()) {
      SwitchReply reply = replies.peek();
      ctx_->shard_replies[ctx_->nib_shard_of(reply.sw)]->push(std::move(reply));
      replies.ack_pop();
      did_work = true;
      continue;
    }
    break;
  }
  return did_work;
}

}  // namespace zenith
