// Steward closed-loop client: talks to the leader site, waits for f+1
// matching replies from its replicas, retries by broadcasting to the whole
// leader site.
#pragma once


#include "systems/replication/node_set.h"
#include "systems/steward/steward_messages.h"
#include "systems/steward/steward_replica.h"
#include "vm/guest.h"

namespace turret::systems::steward {

class StewardClient final : public vm::GuestNode {
 public:
  explicit StewardClient(StewardConfig cfg) : cfg_(cfg) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "steward-client"; }

 private:
  static constexpr std::uint64_t kRetryTimer = 1;
  static constexpr Duration kRetryTimeout = 2 * kSecond;

  void send_update(vm::GuestContext& ctx, bool broadcast);

  StewardConfig cfg_;
  std::uint64_t timestamp_ = 1;
  Time sent_at_ = 0;
  NodeSet reply_replicas_;
};

}  // namespace turret::systems::steward
