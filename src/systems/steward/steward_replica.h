// Steward replica (guest implementation).
//
// Two-site deployment: replicas [0,4) form the leader site (site 0), [4,8)
// form site 1; each site's representative is replica site*4 + local_view%4.
// The leader site's representative locally orders a client update (local
// pre-prepare / prepare round inside the site), sends a threshold-signed
// Proposal over the WAN, and executes on the remote site's Accept, fanning a
// GlobalOrder back out so site-0 replicas execute and reply.
//
// Fault masking (the paper's Drop-Accept finding): if no Accept arrives
// within the retry period the representative re-sends the Proposal to EVERY
// replica of the remote site; any remote replica that holds the locally
// prepared entry answers with the site's Accept. Progress continues at the
// retry cadence and the recovery protocol never fires.
#pragma once

#include <map>
#include <set>

#include "systems/replication/config.h"
#include "systems/steward/steward_messages.h"
#include "vm/guest.h"

namespace turret::systems::steward {

/// Extra knobs beyond the shared BftConfig.
struct StewardConfig {
  BftConfig base;
  std::uint32_t site_size = 4;          ///< replicas per site
  std::uint32_t sites = 2;
  Duration proposal_retry = 2500 * kMillisecond;
  Duration ccs_period = 1 * kSecond;
  /// Threshold-signature verification of a single Proposal/Accept.
  Duration threshold_verify = 8 * kMillisecond;
  /// Verifying a threshold-signed *aggregate* (CCSUnion / GlobalViewChange)
  /// covering whole-site state — Steward's RSA threshold crypto makes this
  /// far more expensive, which is what duplication DoS exploits.
  Duration aggregate_verify = 20 * kMillisecond;
  Duration threshold_combine = 2 * kMillisecond;

  std::uint32_t replicas() const { return site_size * sites; }
  std::uint32_t site_of(NodeId id) const { return id / site_size; }
  NodeId rep_of(std::uint32_t site, std::uint32_t local_view) const {
    return site * site_size + (local_view % site_size);
  }
  std::uint32_t local_quorum() const { return 2 * base.f; }  // prepares besides pp
};

class StewardReplica final : public vm::GuestNode {
 public:
  explicit StewardReplica(StewardConfig cfg) : cfg_(cfg) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "steward-replica"; }

  std::uint64_t executed() const { return last_exec_; }
  std::uint32_t local_view() const { return local_view_; }

 private:
  enum Timer : std::uint64_t {
    kProposalRetryTimer = 1,
    kCcsTimer = 2,
    kProgressTimer = 3,
    kScheduledCrashTimer = 4,
  };

  std::uint32_t my_site(vm::GuestContext& ctx) const {
    return cfg_.site_of(ctx.self());
  }
  bool is_site_rep(vm::GuestContext& ctx) const {
    return cfg_.rep_of(my_site(ctx), local_view_) == ctx.self();
  }
  void site_broadcast(vm::GuestContext& ctx, Bytes msg);
  void start_local_round(vm::GuestContext& ctx, std::uint64_t seq,
                         const Bytes& request);
  void maybe_accept(vm::GuestContext& ctx, std::uint64_t seq);
  void execute_ready(vm::GuestContext& ctx);

  void handle_update(vm::GuestContext& ctx, wire::MessageReader& r);
  void handle_local_pre_prepare(vm::GuestContext& ctx, NodeId src,
                                wire::MessageReader& r);
  void handle_local_prepare(vm::GuestContext& ctx, NodeId src,
                            wire::MessageReader& r);
  void handle_proposal(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_accept(vm::GuestContext& ctx, wire::MessageReader& r);
  void handle_global_order(vm::GuestContext& ctx, NodeId src,
                           wire::MessageReader& r);
  void handle_ccs_union(vm::GuestContext& ctx, wire::MessageReader& r);
  void handle_global_view_change(vm::GuestContext& ctx, NodeId src,
                                 wire::MessageReader& r);
  void handle_local_view_change(vm::GuestContext& ctx, NodeId src,
                                wire::MessageReader& r);

  StewardConfig cfg_;
  std::uint32_t local_view_ = 0;
  std::uint32_t global_view_ = 0;
  std::uint64_t next_seq_ = 1;  ///< leader-site representative's allocator
  std::uint64_t last_exec_ = 0;
  bool progress_timer_armed_ = false;

  struct Entry {
    Bytes request;
    std::set<std::uint32_t> prepares;
    bool pre_prepared = false;
    bool prepare_sent = false;
    bool locally_prepared = false;
    bool accepted = false;   ///< got remote site's Accept (leader site)
    bool accept_sent = false;  ///< this replica already emitted the site Accept
    bool executed = false;
    Time proposed_at = -1;   ///< leader rep: when the Proposal went out
    NodeId proposal_from = kNoNode;  ///< remote site: who shipped the Proposal

    void save(serial::Writer& w) const;
    static Entry load(serial::Reader& r);
  };
  std::map<std::uint64_t, Entry> log_;
  /// Client updates awaiting ordering, keyed by (client, timestamp).
  std::map<std::pair<std::uint32_t, std::uint64_t>, Bytes> pending_;
  std::map<std::uint32_t, std::uint64_t> executed_ts_;
  std::map<std::uint32_t, std::set<std::uint32_t>> lvc_votes_;
};

}  // namespace turret::systems::steward
