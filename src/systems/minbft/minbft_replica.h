// MinBFT replica (guest implementation), ported from dsnet's minbft replica
// to the platform's message-event model.
//
//   * n = 2f+1 replicas; primary(view) = view mod n orders client requests.
//   * Every replica owns a trusted monotonic counter (USIG). The primary's
//     Prepare and each backup's Commit carry a fresh counter value; receivers
//     track the highest value seen per sender and reject regressions, which
//     is why f+1 matching Commits (the Prepare counts as the primary's)
//     suffice to execute — half PBFT's quorum.
//   * Checkpoints every checkpoint_interval executions garbage-collect the
//     log once f+1 replicas agree on a state digest.
//   * View change: on progress-timer expiry a replica broadcasts
//     ReqViewChange(view+1); the nominated primary collects f+1 and installs
//     the view with NewView, resuming sequence numbers past everything it
//     prepared or committed.
//
// The USIG-certified fields (view, seq, ui_counter) are `signed` in the
// schema: under a signed adapter the proxy can still mutate them, but honest
// replicas detect the broken MAC, drop the message and count a
// TamperDetected observation.
#pragma once

#include <map>

#include "systems/minbft/minbft_messages.h"
#include "systems/replication/config.h"
#include "systems/replication/node_set.h"
#include "vm/guest.h"
#include "wire/signed_adapter.h"

namespace turret::systems::minbft {

enum ReplicaTimer : std::uint64_t {
  kProgressTimer = 1,
};

class MinbftReplica final : public vm::GuestNode {
 public:
  MinbftReplica(BftConfig cfg, const wire::SignedAdapter* adapter)
      : cfg_(cfg), adapter_(adapter) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "minbft-replica"; }

  // Introspection for tests.
  std::uint32_t view() const { return view_; }
  std::uint64_t executed_seq() const { return exec_seq_; }

 private:
  struct Entry {
    std::uint32_t view = 0;
    std::uint64_t prepare_ui = 0;
    std::uint64_t timestamp = 0;
    std::uint32_t client = 0;
    Bytes payload;
    NodeSet committers;  ///< includes the primary
    bool executed = false;
  };

  std::uint32_t primary_of(std::uint32_t view) const { return view % cfg_.n; }
  bool is_primary(vm::GuestContext& ctx) const;
  /// Assign the next value of this replica's trusted counter.
  std::uint64_t next_ui() { return ++usig_counter_; }
  /// Monotonicity check against the highest counter seen from `sender`.
  bool accept_ui(std::uint32_t sender, std::uint64_t ui);

  void prepare_pending(vm::GuestContext& ctx);
  void process_request(vm::GuestContext& ctx, const Request& req);
  void process_prepare(vm::GuestContext& ctx, const Prepare& p);
  void process_commit(vm::GuestContext& ctx, const Commit& c);
  void process_checkpoint(const Checkpoint& cp);
  void process_req_view_change(vm::GuestContext& ctx, const ReqViewChange& rv);
  void process_new_view(vm::GuestContext& ctx, const NewView& nv);
  void try_execute(vm::GuestContext& ctx);
  void maybe_checkpoint(vm::GuestContext& ctx);
  void send_sealed(vm::GuestContext& ctx, NodeId dst, Bytes inner);

  BftConfig cfg_;
  const wire::SignedAdapter* adapter_;

  std::uint32_t view_ = 0;
  std::uint64_t usig_counter_ = 0;   ///< this replica's own trusted counter
  std::uint64_t next_seq_ = 0;       ///< last sequence assigned (primary)
  std::uint64_t exec_seq_ = 0;       ///< highest contiguously executed seq
  std::uint64_t stable_seq_ = 0;     ///< highest f+1-agreed checkpoint
  std::map<std::uint32_t, std::uint64_t> last_ui_;  ///< per-sender USIG watermark
  std::map<std::uint64_t, Entry> log_;
  std::map<std::uint64_t, NodeSet> checkpoints_;
  std::map<std::uint32_t, NodeSet> view_change_reqs_;
  std::map<std::uint32_t, std::pair<std::uint64_t, Bytes>> pending_;
  std::map<std::uint32_t, std::uint64_t> prepared_ts_;
  std::map<std::uint32_t, std::uint64_t> executed_ts_;
};

}  // namespace turret::systems::minbft
