// The Reply Router: demuxes the transport's three inbound streams onto the
// per-shard Monitoring Server queues.
//
// With one monitoring instance per NIB shard something must terminate the
// (single) southbound channel and fan messages out by switch ownership;
// this component is that stage — a pure hash-and-push demux with a
// deliberately tiny service time (no NIB access, no decoding). Replies
// and health events route to shard_of(sw); link events are not switch-keyed
// and all route to shard 0.
//
// Crash behaviour: the transport queues use the peek/ack discipline, so a
// router crash mid-burst loses nothing — the watchdog restart re-drains
// from the same queues (level-triggered, like every other component).
#pragma once

#include <cstddef>

#include "core/component.h"
#include "core/context.h"

namespace zenith {

class ReplyRouter : public Component {
 public:
  /// Transport messages demuxed per service step.
  static constexpr std::size_t kBatch = 16;

  explicit ReplyRouter(CoreContext* ctx);

 protected:
  bool try_step() override;

 private:
  CoreContext* ctx_;
};

}  // namespace zenith
