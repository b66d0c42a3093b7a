#include "systems/pbft/pbft_client.h"

#include "systems/replication/crypto.h"

namespace turret::systems::pbft {

void PbftClient::start(vm::GuestContext& ctx) {
  send_request(ctx, /*broadcast=*/false);
}

void PbftClient::send_request(vm::GuestContext& ctx, bool broadcast) {
  Request req;
  req.client = ctx.self();
  req.timestamp = timestamp_;
  req.payload = Bytes(cfg_.payload_size, static_cast<std::uint8_t>(timestamp_));
  const MessageBuf bytes(req.encode());  // shared by every send
  charge_sign(ctx, cfg_);
  if (broadcast) {
    for (NodeId r = 0; r < cfg_.n; ++r) ctx.send_shared(r, bytes);
  } else {
    ctx.send_shared(primary_, bytes);
    sent_at_ = ctx.now();
  }
  ctx.set_timer(kRetryTimer, cfg_.client_timeout);
}

void PbftClient::on_message(vm::GuestContext& ctx, NodeId /*src*/,
                            BytesView msg) {
  wire::MessageReader r(msg);
  if (r.tag() != kReply) return;
  const Reply rep = Reply::decode(r);
  charge_verify(ctx, cfg_);
  if (rep.timestamp != timestamp_ || rep.client != ctx.self()) return;
  primary_ = rep.view % cfg_.n;  // track the current primary from replies
  reply_replicas_.insert(rep.replica);
  if (reply_replicas_.size() < cfg_.f + 1) return;

  // f+1 matching replies: the update is complete.
  ctx.count("updates");
  ctx.record("latency_ms",
             static_cast<double>(ctx.now() - sent_at_) / kMillisecond);
  reply_replicas_.clear();
  ++timestamp_;
  send_request(ctx, /*broadcast=*/false);
}

void PbftClient::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  if (timer_id != kRetryTimer) return;
  // No quorum of replies in time: rebroadcast to all replicas so backups
  // learn the request and can demand a view change from a stalling primary.
  send_request(ctx, /*broadcast=*/true);
}

void PbftClient::save(serial::Writer& w) const {
  w.u64(timestamp_);
  w.u32(primary_);
  w.i64(sent_at_);
  w.u32(static_cast<std::uint32_t>(reply_replicas_.size()));
  for (std::uint32_t x : reply_replicas_) w.u32(x);
}

void PbftClient::load(serial::Reader& r) {
  timestamp_ = r.u64();
  primary_ = r.u32();
  sent_at_ = r.i64();
  reply_replicas_.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) reply_replicas_.insert(r.u32());
}

}  // namespace turret::systems::pbft
