// Chained HotStuff replica (guest implementation), ported from dsnet's
// hotstuff replica to the platform's message-event model.
//
//   * One block per view, proposed by leader(view) = view mod n, extending
//     the replica's highest quorum certificate.
//   * Votes go to the *next* view's leader; 2f+1 matching votes form a QC,
//     and forming one is what lets that leader propose.
//   * Three-chain commit: a block executes once two more blocks have been
//     chained on top of it (height h executes when height h+2 is proposed
//     with certificates linking the chain).
//   * Pacemaker: a progress timer per replica; on expiry the replica enters
//     the next view and sends NewView (carrying its high QC) to that view's
//     leader, which proposes after collecting 2f+1.
//
// All quorum-forming fields (view, height, digest, parent, justify_view) are
// `signed` in the schema: under a signed adapter the proxy can still mutate
// them, but honest replicas detect the broken MAC, drop the message and
// count a TamperDetected observation — the detection-storm attack surface.
#pragma once

#include <map>

#include "systems/hotstuff/hotstuff_messages.h"
#include "systems/replication/config.h"
#include "systems/replication/node_set.h"
#include "vm/guest.h"
#include "wire/signed_adapter.h"

namespace turret::systems::hotstuff {

enum ReplicaTimer : std::uint64_t {
  kProgressTimer = 1,
};

class HotstuffReplica final : public vm::GuestNode {
 public:
  HotstuffReplica(BftConfig cfg, const wire::SignedAdapter* adapter)
      : cfg_(cfg), adapter_(adapter) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "hotstuff-replica"; }

  // Introspection for tests.
  std::uint32_t view() const { return view_; }
  std::uint64_t executed_height() const { return exec_height_; }

 private:
  struct Block {
    std::uint64_t height = 0;
    std::uint32_t view = 0;
    Bytes parent;
    std::uint64_t timestamp = 0;  ///< 0 = no client request in this block
    std::uint32_t client = 0;
    Bytes payload;
  };
  struct QC {
    std::uint32_t view = 0;
    std::uint64_t height = 0;
    Bytes digest;
  };

  std::uint32_t leader_of(std::uint32_t view) const { return view % cfg_.n; }
  Bytes block_digest(const Block& b) const;

  void propose(vm::GuestContext& ctx, std::uint32_t view);
  void process_proposal(vm::GuestContext& ctx, const Proposal& p);
  void process_vote(vm::GuestContext& ctx, const Vote& v);
  void process_newview(vm::GuestContext& ctx, const NewView& nv);
  void process_request(const Request& req);
  void try_execute(vm::GuestContext& ctx, const Bytes& tip);
  void execute_block(vm::GuestContext& ctx, const Block& b);
  void prune_old_state();
  void send_sealed(vm::GuestContext& ctx, NodeId dst, Bytes inner);

  BftConfig cfg_;
  const wire::SignedAdapter* adapter_;

  std::uint32_t view_ = 1;        ///< next view this replica expects
  std::uint64_t voted_height_ = 0;
  QC high_qc_;                    ///< genesis: view 0, height 0, empty digest
  std::uint64_t exec_height_ = 0;
  std::map<Bytes, Block> blocks_;
  std::map<std::pair<std::uint32_t, Bytes>, NodeSet> votes_;
  std::map<std::uint32_t, std::map<std::uint32_t, QC>> newviews_;
  std::map<std::uint32_t, std::pair<std::uint64_t, Bytes>> pending_;
  std::map<std::uint32_t, std::uint64_t> proposed_ts_;
  std::map<std::uint32_t, std::uint64_t> executed_ts_;
};

}  // namespace turret::systems::hotstuff
