// Shared plumbing for the three remote-memory primitives.
#pragma once

#include "roce/packet.hpp"
#include "switchsim/pipeline.hpp"

namespace xmem::core {

/// The RoCE message in `ctx`, or nullptr for a frame that is not RoCEv2
/// or fails its ICRC. The first call of a pass parses the transport
/// headers over `ctx.headers` and verifies the ICRC; every later stage
/// gets the same message back. Primitives call this at the top of their
/// stage to recognize responses from their memory server.
[[nodiscard]] inline const roce::RoceMessage* roce_view(
    switchsim::PipelineContext& ctx) {
  if (!ctx.roce_parsed) {
    ctx.roce_parsed = true;
    if (ctx.headers) {
      ctx.roce = roce::parse_roce_packet(ctx.packet, *ctx.headers);
    }
  }
  return ctx.roce ? &*ctx.roce : nullptr;
}

}  // namespace xmem::core
