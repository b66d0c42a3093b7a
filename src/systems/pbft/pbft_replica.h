// PBFT replica (guest implementation).
//
// Implements the protocols the paper's case study exercises (§V-B):
//   * Normal case: Request → Pre-Prepare → Prepare (2f) → Commit (2f+1) →
//     in-order execution → Reply.
//   * View change: a progress timer armed while requests are pending; on
//     expiry the replica broadcasts View-Change, the new primary collects 2f
//     and broadcasts New-View, unexecuted requests are re-proposed.
//   * Checkpoints: every checkpoint_interval executions; 2f+1 matching
//     checkpoints advance the stable sequence and garbage-collect the log.
//   * Status: periodic anti-entropy. A receiver that sees a peer behind
//     retransmits the missing Pre-Prepares/Commits (paying per-destination
//     authenticator cost), or only the latest stable checkpoint when the gap
//     exceeds retransmit_gap_limit — the behaviours behind the paper's Delay
//     Status attack and its natural cap.
//
// Faithfully-preserved vulnerabilities: the UNCHECKED count fields in
// pbft_messages.h flow into unchecked_length() exactly where the original
// trusted them (Pre-Prepare batch parsing, Status pending list, View-Change
// proof parsing, New-View bundle parsing).
#pragma once

#include <map>
#include <set>

#include "systems/pbft/pbft_messages.h"
#include "systems/replication/config.h"
#include "vm/guest.h"

namespace turret::systems::pbft {

/// Timer ids.
enum ReplicaTimer : std::uint64_t {
  kStatusTimer = 1,
  kProgressTimer = 2,
  kScheduledCrashTimer = 3,
};

class PbftReplica final : public vm::GuestNode {
 public:
  explicit PbftReplica(BftConfig cfg) : cfg_(cfg) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "pbft-replica"; }

  // Introspection for tests.
  std::uint32_t view() const { return view_; }
  std::uint64_t last_executed() const { return last_exec_; }
  std::uint64_t stable_seq() const { return stable_seq_; }

 private:
  struct LogEntry {
    std::uint32_t view = 0;
    Bytes digest;
    Bytes payload;
    std::uint32_t client = 0;
    std::uint64_t timestamp = 0;
    std::set<std::uint32_t> prepares;
    std::set<std::uint32_t> commits;
    bool pre_prepared = false;
    bool prepare_sent = false;
    bool commit_sent = false;
    bool executed = false;
    Time last_prepare_resend = -1;
    Time last_commit_resend = -1;

    void save(serial::Writer& w) const;
    static LogEntry load(serial::Reader& r);
  };

  struct PendingRequest {
    Bytes payload;
    bool proposed = false;  ///< primary already assigned a sequence number
  };

  std::uint32_t primary_of(std::uint32_t view) const;
  void broadcast(vm::GuestContext& ctx, Bytes msg);
  void propose(vm::GuestContext& ctx, std::uint32_t client,
               std::uint64_t timestamp, const Bytes& payload);
  void maybe_send_prepare(vm::GuestContext& ctx, std::uint64_t seq);
  void maybe_send_commit(vm::GuestContext& ctx, std::uint64_t seq);
  void try_execute(vm::GuestContext& ctx);
  void arm_progress_timer(vm::GuestContext& ctx);
  void enter_view(vm::GuestContext& ctx, std::uint32_t new_view);
  void retransmit_to(vm::GuestContext& ctx, NodeId peer,
                     std::uint64_t their_last_exec);

  void handle_request(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_pre_prepare(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_prepare(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_commit(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_checkpoint(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_status(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_view_change(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_new_view(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);

  BftConfig cfg_;

  std::uint32_t view_ = 0;
  std::uint64_t next_seq_ = 1;   ///< primary's allocator
  std::uint64_t last_exec_ = 0;
  std::uint64_t stable_seq_ = 0;
  bool in_view_change_ = false;
  bool progress_timer_armed_ = false;

  std::map<std::uint64_t, LogEntry> log_;
  /// Requests learned but not yet executed, keyed by (client, timestamp).
  std::map<std::pair<std::uint32_t, std::uint64_t>, PendingRequest> pending_;
  /// Highest executed timestamp per client (reply dedup).
  std::map<std::uint32_t, std::uint64_t> executed_ts_;
  /// View-change votes per target view.
  std::map<std::uint32_t, std::set<std::uint32_t>> vc_votes_;
  /// Checkpoint votes: seq → replicas.
  std::map<std::uint64_t, std::set<std::uint32_t>> checkpoint_votes_;
};

}  // namespace turret::systems::pbft
