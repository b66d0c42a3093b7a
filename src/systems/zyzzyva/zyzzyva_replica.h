// Zyzzyva replica (guest implementation).
//
// Speculative execution: on an OrderRequest from the primary with the next
// sequence number, the replica executes immediately, extends its history
// hash, and sends a SpecReply straight to the client. CommitCerts from the
// client mark the prefix committed (slow path). A view change evicts a
// primary that stops ordering (progress timer armed when a backup learns of
// a request the primary has not ordered).
#pragma once

#include <map>
#include <set>

#include "systems/replication/config.h"
#include "systems/zyzzyva/zyzzyva_messages.h"
#include "vm/guest.h"

namespace turret::systems::zyzzyva {

class ZyzzyvaReplica final : public vm::GuestNode {
 public:
  explicit ZyzzyvaReplica(BftConfig cfg) : cfg_(cfg) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "zyzzyva-replica"; }

  std::uint32_t view() const { return view_; }
  std::uint64_t spec_executed() const { return last_spec_; }

 private:
  static constexpr std::uint64_t kProgressTimer = 1;

  std::uint32_t primary_of(std::uint32_t view) const { return view % cfg_.n; }
  void broadcast(vm::GuestContext& ctx, Bytes msg);
  void order(vm::GuestContext& ctx, std::uint32_t client,
             std::uint64_t timestamp, const Bytes& payload);
  void spec_execute(vm::GuestContext& ctx, const OrderRequest& oreq);
  void enter_view(vm::GuestContext& ctx, std::uint32_t new_view);

  void handle_request(vm::GuestContext& ctx, wire::MessageReader& r);
  void handle_order_request(vm::GuestContext& ctx, NodeId src,
                            wire::MessageReader& r);
  void handle_commit_cert(vm::GuestContext& ctx, wire::MessageReader& r);
  void handle_view_change(vm::GuestContext& ctx, NodeId src,
                          wire::MessageReader& r);
  void handle_new_view(vm::GuestContext& ctx, NodeId src,
                       wire::MessageReader& r);

  BftConfig cfg_;
  std::uint32_t view_ = 0;
  std::uint64_t next_seq_ = 1;   ///< primary's allocator
  std::uint64_t last_spec_ = 0;  ///< highest contiguously spec-executed seq
  std::uint64_t committed_ = 0;
  std::uint64_t history_ = 0;    ///< rolling history hash
  bool in_view_change_ = false;
  bool progress_timer_armed_ = false;

  struct Entry {
    std::uint32_t client = 0;
    std::uint64_t timestamp = 0;
    Bytes payload;
    bool executed = false;
  };
  std::map<std::uint64_t, Entry> log_;
  /// Requests a backup knows about but the primary has not ordered, keyed by
  /// (client, timestamp).
  std::map<std::pair<std::uint32_t, std::uint64_t>, Bytes> pending_;
  std::map<std::uint32_t, std::uint64_t> executed_ts_;
  std::map<std::uint32_t, std::set<std::uint32_t>> vc_votes_;
};

}  // namespace turret::systems::zyzzyva
