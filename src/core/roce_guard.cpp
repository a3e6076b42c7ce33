#include "core/roce_guard.hpp"

#include "core/primitive.hpp"

namespace xmem::core {

RoceGuard::RoceGuard(switchsim::ProgrammableSwitch& sw) {
  sw.add_ingress_stage("roce-guard",
                       [this](switchsim::PipelineContext& ctx) { stage(ctx); });
}

void RoceGuard::stage(switchsim::PipelineContext& ctx) {
  if (!ctx.headers || !ctx.headers->is_roce_v2()) return;
  ++stats_.checked;
  if (roce_view(ctx) == nullptr) {
    ++stats_.corrupt_dropped;
    ctx.drop();
    return;
  }
  if (int_collector_) int_collector_->collect(ctx.packet, ctx.now);
}

void RoceGuard::register_metrics(telemetry::MetricsRegistry& registry,
                                 const std::string& prefix) {
  registry.register_counter(
      prefix + "/checked",
      [this]() { return static_cast<std::int64_t>(stats_.checked); },
      "frames");
  registry.register_counter(
      prefix + "/corrupt_dropped",
      [this]() { return static_cast<std::int64_t>(stats_.corrupt_dropped); },
      "frames");
}

}  // namespace xmem::core
