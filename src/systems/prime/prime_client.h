// Prime closed-loop client: submits updates to a fixed origin replica and
// completes on f+1 matching replies.
#pragma once


#include "systems/prime/prime_messages.h"
#include "systems/prime/prime_replica.h"
#include "systems/replication/node_set.h"
#include "vm/guest.h"

namespace turret::systems::prime {

class PrimeClient final : public vm::GuestNode {
 public:
  PrimeClient(PrimeConfig cfg, NodeId origin) : cfg_(cfg), origin_(origin) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "prime-client"; }

 private:
  static constexpr std::uint64_t kRetryTimer = 1;

  void send_update(vm::GuestContext& ctx, bool broadcast);

  PrimeConfig cfg_;
  NodeId origin_;
  std::uint64_t timestamp_ = 1;
  Time sent_at_ = 0;
  NodeSet reply_replicas_;
};

}  // namespace turret::systems::prime
