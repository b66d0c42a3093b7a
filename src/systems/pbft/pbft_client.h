// PBFT closed-loop client.
//
// One outstanding request at a time (paper §V-B: one client, no pipelining).
// Sends to the believed primary; if f+1 matching replies do not arrive within
// the client timeout, rebroadcasts the request to all replicas (the standard
// PBFT fallback that lets backups start recovery timers). Reports the
// platform's performance metrics: "updates" (completions, the throughput
// series) and "latency_ms" per completed update.
#pragma once


#include "systems/pbft/pbft_messages.h"
#include "systems/replication/config.h"
#include "systems/replication/node_set.h"
#include "vm/guest.h"

namespace turret::systems::pbft {

class PbftClient final : public vm::GuestNode {
 public:
  explicit PbftClient(BftConfig cfg) : cfg_(cfg) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "pbft-client"; }

  std::uint64_t completed() const { return timestamp_ - 1; }

 private:
  static constexpr std::uint64_t kRetryTimer = 1;

  void send_request(vm::GuestContext& ctx, bool broadcast);

  BftConfig cfg_;
  std::uint64_t timestamp_ = 1;
  std::uint32_t primary_ = 0;
  Time sent_at_ = 0;
  NodeSet reply_replicas_;
};

}  // namespace turret::systems::pbft
