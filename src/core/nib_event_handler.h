// The DE NIB Event Handler (Table 1): "produces/consumes events for/from
// the NIB and is familiar with NIB semantics".
//
// One instance per NIB shard ("nib_event_handler<shard>") drains that
// shard's lock-free SPSC ring, up to kBatch events per service step, and
// routes selectively — scheduling-relevant events (commits, resets, health,
// DAG admission) wake the sequencer that owns the affected DAG instead of
// broadcasting every status blip to every sequencer. A handler that took
// one 15µs step per event saturated, and sequencers burned 40µs wake-drain
// steps on kScheduled/kSent echoes of their own writes; the batch drain and
// the wake filter remove both. Sequencers treat the events purely as wake
// hints and re-derive truth from the NIB, so losing the volatile wake
// queues on a DE failure is harmless — the restart rescan covers it.
#pragma once

#include <cstddef>
#include <vector>

#include "core/component.h"
#include "core/context.h"

namespace zenith {

class NibEventHandler : public Component {
 public:
  /// NIB events one instance routes per service step (the batch amortizes
  /// the per-step service charge).
  static constexpr std::size_t kBatch = 16;

  /// Instance draining ctx->shard_event_rings[shard]. The NIB's ring wake
  /// hook must be wired to kick() by the controller.
  NibEventHandler(CoreContext* ctx, std::size_t shard);

  /// Registers an application's event sink; the app sees switch-health and
  /// DAG lifecycle events (§3.6: "the controller correctly notifies
  /// applications of data plane events"). The controller registers the sink
  /// with every instance; each event still reaches the sink exactly once
  /// because each event lives in exactly one ring.
  void register_app_sink(NadirFifo<NibEvent>* sink);

 protected:
  bool try_step() override;

 private:
  void route(const NibEvent& event);

  CoreContext* ctx_;
  std::size_t shard_;
  std::vector<NadirFifo<NibEvent>*> app_sinks_;
};

}  // namespace zenith
