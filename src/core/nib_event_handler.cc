#include "core/nib_event_handler.h"

#include <optional>
#include <string>

#include "obs/obs.h"

namespace zenith {

namespace {

const char* nib_event_name(NibEvent::Type type) {
  switch (type) {
    case NibEvent::Type::kOpStatusChanged: return "op-status";
    case NibEvent::Type::kSwitchHealthChanged: return "switch-health";
    case NibEvent::Type::kDagAccepted: return "dag-accepted";
    case NibEvent::Type::kDagDone: return "dag-done";
    case NibEvent::Type::kTopologyChanged: return "topology";
  }
  return "unknown";
}

}  // namespace

NibEventHandler::NibEventHandler(CoreContext* ctx, std::size_t shard)
    : Component(ctx->sim, "nib_event_handler" + std::to_string(shard),
                ctx->config.nib_event_service),
      ctx_(ctx),
      shard_(shard) {}

void NibEventHandler::register_app_sink(NadirFifo<NibEvent>* sink) {
  app_sinks_.push_back(sink);
}

bool NibEventHandler::try_step() {
  SpscRing<NibEvent>& ring = *ctx_->shard_event_rings[shard_];
  bool did_work = false;
  for (std::size_t i = 0; i < kBatch; ++i) {
    std::optional<NibEvent> event = ring.try_pop();
    if (!event.has_value()) break;
    did_work = true;
    if (ctx_->observability != nullptr) {
      ctx_->observability->count("nib_events_routed",
                                 {{"type", nib_event_name(event->type)}});
    }
    route(*event);
  }
  return did_work;
}

void NibEventHandler::route(const NibEvent& event) {
  // Applications: health + DAG lifecycle (OP-level chatter stays internal).
  // Each event is drained from exactly one ring, so sinks registered with
  // every instance still see each event once.
  bool app_relevant = event.type == NibEvent::Type::kSwitchHealthChanged ||
                      event.type == NibEvent::Type::kDagDone ||
                      event.type == NibEvent::Type::kTopologyChanged;
  if (app_relevant) {
    for (NadirFifo<NibEvent>* sink : app_sinks_) sink->push(event);
  }

  // Sequencer wake filtering. Sequencers re-derive truth from the NIB on
  // every wake, so a wake is only useful when NIB state changed in a way
  // that can make new OPs schedulable or a DAG certifiable:
  //  - kDone (a commit unblocks successors / completes the DAG) and kNone
  //    (a reset/requeue re-arms an OP) — kScheduled/kSent are echoes of the
  //    scheduling pipeline's own writes, pure wake noise;
  //  - switch health transitions (P7 send-gates lift or engage);
  //  - kDagAccepted (a new DAG needs its first scheduling pass).
  // kDagDone and kTopologyChanged carry no scheduling consequence.
  bool broadcast = false;
  std::optional<std::size_t> target;
  switch (event.type) {
    case NibEvent::Type::kDagAccepted:
      target = ctx_->sequencer_of(event.dag);
      break;
    case NibEvent::Type::kOpStatusChanged:
      if (event.op_status != OpStatus::kDone &&
          event.op_status != OpStatus::kNone) {
        return;
      }
      [[fallthrough]];
    case NibEvent::Type::kSwitchHealthChanged: {
      // Only the owner of the current DAG can schedule; wake it. With no
      // current DAG there is no single owner — broadcast the hint.
      std::optional<DagId> current = ctx_->nib->current_dag();
      if (current.has_value()) {
        target = ctx_->sequencer_of(*current);
      } else {
        broadcast = true;
      }
      break;
    }
    case NibEvent::Type::kDagDone:
    case NibEvent::Type::kTopologyChanged:
      return;  // app-facing only
  }
  if (broadcast) {
    for (auto& wakeup : ctx_->sequencer_wakeups) wakeup->push(event);
  } else if (target.has_value()) {
    ctx_->sequencer_wakeups[*target]->push(event);
  }
}

}  // namespace zenith
