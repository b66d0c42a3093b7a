// Zyzzyva closed-loop client.
//
// Fast path: 3f+1 matching SpecReplies complete the request in three message
// delays. Slow path: if only 2f+1..3f arrive before the commit timer fires,
// the client broadcasts a CommitCert and completes on 2f+1 LocalCommits —
// the extra round trip behind the paper's Drop-Reply latency numbers
// (3.90/3.95/4.02 ms benign → 3.95/5.32/5.40 ms under attack).
#pragma once


#include "systems/replication/config.h"
#include "systems/replication/node_set.h"
#include "systems/zyzzyva/zyzzyva_messages.h"
#include "vm/guest.h"

namespace turret::systems::zyzzyva {

class ZyzzyvaClient final : public vm::GuestNode {
 public:
  explicit ZyzzyvaClient(BftConfig cfg) : cfg_(cfg) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "zyzzyva-client"; }

 private:
  static constexpr std::uint64_t kRetryTimer = 1;
  static constexpr std::uint64_t kCommitTimer = 2;
  /// How long the client waits for the last f speculative replies before
  /// falling back to the commit phase.
  static constexpr Duration kCommitWait = 300 * kMicrosecond;

  void send_request(vm::GuestContext& ctx, bool broadcast);
  void complete(vm::GuestContext& ctx);

  BftConfig cfg_;
  std::uint64_t timestamp_ = 1;
  std::uint32_t primary_ = 0;
  Time sent_at_ = 0;
  std::uint64_t spec_seq_ = 0;
  bool commit_phase_ = false;
  NodeSet spec_replicas_;
  NodeSet commit_replicas_;
};

}  // namespace turret::systems::zyzzyva
