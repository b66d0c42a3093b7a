// Prime replica (guest implementation).
//
// Pre-ordering: an origin replica broadcasts PO-Requests for client updates
// and certifies them on 2f PO-Acks. Every replica periodically broadcasts a
// PO-Summary vector (per-origin highest contiguous pre-ordered seq). The
// leader periodically embeds the latest summaries as a matrix in a
// Pre-Prepare that goes through Prepare/Commit; a committed matrix makes
// updates eligible for execution.
//
// Faithfully reproduced behaviours from the paper:
//  * Eligibility counts summaries from ALL n replicas instead of 2f+1 — the
//    implementation bug that lets a single replica withholding PO-Summary
//    halt the system "even if a quorum existed".
//  * The suspect-leader monitor measures turnaround (TAT) only as "a fresh
//    Pre-Prepare keeps arriving"; a leader lying on the sequence number
//    keeps the monitor happy while ordering makes no progress — the paper's
//    "most interesting attack".
//  * Unchecked count fields (POSummary.n_entries, PrePrepare.n_rows,
//    NewLeader.n_proofs) crash replicas when lied negative/huge.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "systems/prime/prime_messages.h"
#include "systems/replication/config.h"
#include "vm/guest.h"

namespace turret::systems::prime {

struct PrimeConfig {
  BftConfig base;
  Duration summary_period = 30 * kMillisecond;
  Duration pre_prepare_period = 30 * kMillisecond;
  Duration tat_timeout = 500 * kMillisecond;  ///< suspect-leader threshold
};

class PrimeReplica final : public vm::GuestNode {
 public:
  explicit PrimeReplica(PrimeConfig cfg) : cfg_(cfg) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "prime-replica"; }

  std::uint32_t view() const { return view_; }
  std::uint64_t executed_total() const { return executed_total_; }

 private:
  enum Timer : std::uint64_t {
    kSummaryTimer = 1,
    kPrePrepareTimer = 2,
    kTatTimer = 3,
  };

  std::uint32_t n() const { return cfg_.base.n; }
  std::uint32_t leader_of(std::uint32_t view) const { return view % n(); }
  void broadcast(vm::GuestContext& ctx, Bytes msg);
  Bytes encode_vector() const;
  void try_execute(vm::GuestContext& ctx);
  void advance_committed(vm::GuestContext& ctx);

  void handle_update(vm::GuestContext& ctx, wire::MessageReader& r);
  void handle_po_request(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_po_ack(vm::GuestContext& ctx, wire::MessageReader& r);
  void handle_po_summary(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_pre_prepare(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_prepare(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_commit(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_new_leader(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);

  PrimeConfig cfg_;
  std::uint32_t view_ = 0;

  // --- pre-ordering ---------------------------------------------------------
  std::uint64_t my_po_seq_ = 0;  ///< if this replica originates updates
  /// Updates received as PO-Requests: (origin, po_seq) → update bytes.
  std::map<std::pair<std::uint32_t, std::uint64_t>, Bytes> po_requests_;
  /// Ack sets for updates this replica originated.
  std::map<std::uint64_t, std::set<std::uint32_t>> po_acks_;
  /// Per-origin highest contiguous PO-Request received (this replica's view).
  std::vector<std::uint64_t> po_received_;
  /// Latest summary vector advertised by each replica.
  std::vector<std::vector<std::uint64_t>> summaries_;

  // --- global ordering -------------------------------------------------------
  std::uint64_t next_seq_ = 1;      ///< leader's allocator
  std::uint64_t last_pp_seq_ = 0;   ///< highest pre-prepare seq seen
  std::uint64_t expected_seq_ = 1;  ///< contiguous ordering cursor
  struct Round {
    Bytes matrix;
    std::set<std::uint32_t> prepares;
    std::set<std::uint32_t> commits;
    bool prepare_sent = false;
    bool commit_sent = false;
    bool committed = false;
  };
  std::map<std::uint64_t, Round> rounds_;
  /// Per-origin executed-up-to po_seq.
  std::vector<std::uint64_t> executed_po_;
  std::uint64_t executed_total_ = 0;
  std::map<std::uint32_t, std::uint64_t> executed_ts_;

  // --- suspect leader --------------------------------------------------------
  bool fresh_pre_prepare_ = false;  ///< arrived since the last TAT check
  std::map<std::uint32_t, std::set<std::uint32_t>> suspicion_votes_;
};

}  // namespace turret::systems::prime
