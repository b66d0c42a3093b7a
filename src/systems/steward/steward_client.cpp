#include "systems/steward/steward_client.h"

#include "systems/replication/crypto.h"

namespace turret::systems::steward {

void StewardClient::start(vm::GuestContext& ctx) {
  send_update(ctx, /*broadcast=*/false);
}

void StewardClient::send_update(vm::GuestContext& ctx, bool broadcast) {
  Update up;
  up.client = ctx.self();
  up.timestamp = timestamp_;
  up.payload = Bytes(cfg_.base.payload_size,
                     static_cast<std::uint8_t>(timestamp_));
  const MessageBuf bytes(up.encode());  // shared by every send
  charge_sign(ctx, cfg_.base);
  if (broadcast) {
    for (NodeId r = 0; r < cfg_.site_size; ++r) ctx.send_shared(r, bytes);
  } else {
    ctx.send_shared(0, bytes);  // leader site's initial representative
    sent_at_ = ctx.now();
  }
  ctx.set_timer(kRetryTimer, kRetryTimeout);
}

void StewardClient::on_message(vm::GuestContext& ctx, NodeId /*src*/,
                               BytesView msg) {
  wire::MessageReader r(msg);
  if (r.tag() != kReply) return;
  const Reply rep = Reply::decode(r);
  charge_verify(ctx, cfg_.base);
  if (rep.timestamp != timestamp_ || rep.client != ctx.self()) return;
  reply_replicas_.insert(rep.replica);
  if (reply_replicas_.size() < cfg_.base.f + 1) return;

  ctx.count("updates");
  ctx.record("latency_ms",
             static_cast<double>(ctx.now() - sent_at_) / kMillisecond);
  reply_replicas_.clear();
  ++timestamp_;
  send_update(ctx, /*broadcast=*/false);
}

void StewardClient::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  if (timer_id != kRetryTimer) return;
  send_update(ctx, /*broadcast=*/true);
}

void StewardClient::save(serial::Writer& w) const {
  w.u64(timestamp_);
  w.i64(sent_at_);
  w.u32(static_cast<std::uint32_t>(reply_replicas_.size()));
  for (std::uint32_t x : reply_replicas_) w.u32(x);
}

void StewardClient::load(serial::Reader& r) {
  timestamp_ = r.u64();
  sent_at_ = r.i64();
  reply_replicas_.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) reply_replicas_.insert(r.u32());
}

}  // namespace turret::systems::steward
