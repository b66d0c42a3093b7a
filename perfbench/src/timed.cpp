#include "timed.h"

#include "profile.h"

namespace perfbench {

using namespace turret;

void TimedContext::send(NodeId dst, Bytes message) {
  ScopedSpan span(Layer::kSend);
  span.add_bytes(message.size());
  inner_.send(dst, std::move(message));
}

void TimedContext::count(std::string_view metric, double increment) {
  ScopedSpan span(Layer::kMetric);
  inner_.count(metric, increment);
}

void TimedContext::record(std::string_view metric, double value) {
  ScopedSpan span(Layer::kMetric);
  inner_.record(metric, value);
}

void TimedGuest::start(vm::GuestContext& ctx) {
  ScopedSpan span(Layer::kHandler);
  TimedContext tctx(ctx);
  inner_->start(tctx);
}

void TimedGuest::on_message(vm::GuestContext& ctx, NodeId src,
                            BytesView message) {
  ScopedSpan span(Layer::kHandler);
  TimedContext tctx(ctx);
  inner_->on_message(tctx, src, message);
}

void TimedGuest::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  ScopedSpan span(Layer::kHandler);
  TimedContext tctx(ctx);
  inner_->on_timer(tctx, timer_id);
}

void TimedGuest::save(serial::Writer& w) const {
  ScopedSpan span(Layer::kGuestSave);
  inner_->save(w);
}

void TimedGuest::load(serial::Reader& r) {
  ScopedSpan span(Layer::kGuestLoad);
  inner_->load(r);
}

runtime::GuestFactory timed_factory(runtime::GuestFactory inner) {
  return [inner = std::move(inner)](NodeId id) -> std::unique_ptr<vm::GuestNode> {
    return std::make_unique<TimedGuest>(inner(id));
  };
}

std::vector<netem::IngressInterceptor::Delivery> TimedInterceptor::on_send(
    Time now, NodeId src, NodeId dst, const MessageBuf& message) {
  ScopedSpan span(Layer::kProxy);
  return inner_.on_send(now, src, dst, message);
}

}  // namespace perfbench
