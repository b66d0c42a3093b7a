// MinBFT closed-loop client: one outstanding request, broadcast to every
// replica (the client does not track the current primary; non-primaries
// simply hold the request for a future view), completed on f+1 matching
// replies. Reports "updates" and "latency_ms".
#pragma once


#include "systems/minbft/minbft_messages.h"
#include "systems/replication/config.h"
#include "systems/replication/node_set.h"
#include "vm/guest.h"
#include "wire/signed_adapter.h"

namespace turret::systems::minbft {

class MinbftClient final : public vm::GuestNode {
 public:
  MinbftClient(BftConfig cfg, const wire::SignedAdapter* adapter)
      : cfg_(cfg), adapter_(adapter) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "minbft-client"; }

  std::uint64_t completed() const { return timestamp_ - 1; }

 private:
  static constexpr std::uint64_t kRetryTimer = 1;

  void send_request(vm::GuestContext& ctx);

  BftConfig cfg_;
  const wire::SignedAdapter* adapter_;
  std::uint64_t timestamp_ = 1;
  Time sent_at_ = 0;
  NodeSet reply_replicas_;
};

}  // namespace turret::systems::minbft
