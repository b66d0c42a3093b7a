// Aardvark closed-loop client (signed requests, f+1 matching replies,
// broadcast retry on timeout).
#pragma once


#include "systems/aardvark/aardvark_messages.h"
#include "systems/replication/config.h"
#include "systems/replication/node_set.h"
#include "vm/guest.h"

namespace turret::systems::aardvark {

class AardvarkClient final : public vm::GuestNode {
 public:
  explicit AardvarkClient(BftConfig cfg) : cfg_(cfg) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "aardvark-client"; }

 private:
  static constexpr std::uint64_t kRetryTimer = 1;

  void send_request(vm::GuestContext& ctx, bool broadcast);

  BftConfig cfg_;
  std::uint64_t timestamp_ = 1;
  std::uint32_t primary_ = 0;
  Time sent_at_ = 0;
  NodeSet reply_replicas_;
};

}  // namespace turret::systems::aardvark
