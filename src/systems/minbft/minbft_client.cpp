#include "systems/minbft/minbft_client.h"

#include "systems/replication/signing.h"

namespace turret::systems::minbft {

void MinbftClient::start(vm::GuestContext& ctx) { send_request(ctx); }

void MinbftClient::send_request(vm::GuestContext& ctx) {
  Request req;
  req.client = ctx.self();
  req.timestamp = timestamp_;
  req.payload = Bytes(cfg_.payload_size, static_cast<std::uint8_t>(timestamp_));
  const MessageBuf sealed(seal_message(adapter_, ctx, cfg_, req.encode()));
  for (NodeId r = 0; r < cfg_.n; ++r) ctx.send_shared(r, sealed);
  sent_at_ = ctx.now();
  ctx.set_timer(kRetryTimer, cfg_.client_timeout);
}

void MinbftClient::on_message(vm::GuestContext& ctx, NodeId /*src*/,
                              BytesView msg) {
  const auto inner = verify_open(adapter_, ctx, cfg_, msg);
  if (!inner) return;
  wire::MessageReader r(*inner);
  if (r.tag() != kReply) return;
  const Reply rep = Reply::decode(r);
  if (rep.timestamp != timestamp_ || rep.client != ctx.self()) return;
  reply_replicas_.insert(rep.replica);
  if (reply_replicas_.size() < cfg_.f + 1) return;

  ctx.count("updates");
  ctx.record("latency_ms",
             static_cast<double>(ctx.now() - sent_at_) / kMillisecond);
  reply_replicas_.clear();
  ++timestamp_;
  send_request(ctx);
}

void MinbftClient::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  if (timer_id != kRetryTimer) return;
  send_request(ctx);  // already a broadcast; just try again
}

void MinbftClient::save(serial::Writer& w) const {
  w.u64(timestamp_);
  w.i64(sent_at_);
  w.u32(static_cast<std::uint32_t>(reply_replicas_.size()));
  for (const std::uint32_t x : reply_replicas_) w.u32(x);
}

void MinbftClient::load(serial::Reader& r) {
  timestamp_ = r.u64();
  sent_at_ = r.i64();
  reply_replicas_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i)
    reply_replicas_.insert(r.u32());
}

}  // namespace turret::systems::minbft
