// Aardvark replica: PBFT's protocols plus the robustness mechanisms the
// paper's evaluation interacts with.
//
//  * Flooding protection: a per-peer token bucket on the ingress path. A
//    peer that floods (e.g. duplication attacks) has its excess messages
//    discarded for a trivial CPU cost instead of full verification — this is
//    what mutes Dup×50 against Aardvark.
//  * Expected-throughput monitoring: replicas track the best observed
//    execution rate; a primary delivering far below it while work is pending
//    is voted out — this is what mutes Delay Pre-Prepare.
//  * Bounded status retransmission: at most a small batch per Status, and
//    stale peers beyond the gap limit get a checkpoint — so Delay Status
//    slows the system only mildly and large delays mute themselves.
//  * Systematic validation — with the three gaps the paper found (see
//    aardvark_messages.h).
#pragma once

#include <map>
#include <set>

#include "systems/aardvark/aardvark_messages.h"
#include "systems/replication/config.h"
#include "vm/guest.h"

namespace turret::systems::aardvark {

struct AardvarkConfig {
  BftConfig base;
  /// Flooding protection: sustained per-peer message rate and burst.
  double peer_rate_per_sec = 1000.0;
  double peer_burst = 100.0;
  /// Throughput monitor: period and acceptable fraction of the observed max.
  Duration monitor_period = 1 * kSecond;
  double min_throughput_fraction = 0.25;
  /// Absolute floor: a primary delivering below this for two consecutive
  /// periods while work is pending is voted out even without history (the
  /// regular-view-change flavour of Aardvark's primary discipline).
  double floor_rate = 5.0;
  /// Status retransmission batch cap: large enough that a 1 s Delay Status
  /// still costs real work per status, small enough to bound the burst; the
  /// gap limit (BftConfig) mutes multi-second delays entirely.
  std::uint32_t retransmit_batch = 64;
};

class AardvarkReplica final : public vm::GuestNode {
 public:
  explicit AardvarkReplica(AardvarkConfig cfg) : cfg_(cfg) {}

  void start(vm::GuestContext& ctx) override;
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) override;
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(serial::Writer& w) const override;
  void load(serial::Reader& r) override;
  std::string_view kind() const override { return "aardvark-replica"; }

  std::uint32_t view() const { return view_; }
  std::uint64_t last_executed() const { return last_exec_; }
  std::uint64_t flood_drops() const { return flood_drops_; }

 private:
  enum Timer : std::uint64_t {
    kStatusTimer = 1,
    kMonitorTimer = 2,
  };

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
  };

  std::uint32_t primary_of(std::uint32_t view) const {
    return view % cfg_.base.n;
  }
  bool flood_check(vm::GuestContext& ctx, NodeId src);
  void broadcast(vm::GuestContext& ctx, Bytes msg);
  void propose(vm::GuestContext& ctx, std::uint32_t client,
               std::uint64_t timestamp, const Bytes& payload);
  void maybe_send_commit(vm::GuestContext& ctx, std::uint64_t seq);
  void try_execute(vm::GuestContext& ctx);
  void demand_view_change(vm::GuestContext& ctx);
  void enter_view(vm::GuestContext& ctx, std::uint32_t new_view);

  void handle_request(vm::GuestContext& ctx, wire::MessageReader& r);
  void handle_pre_prepare(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_prepare(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_commit(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_status(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_view_change(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);
  void handle_new_view(vm::GuestContext& ctx, NodeId src, wire::MessageReader& r);

  AardvarkConfig cfg_;
  std::uint32_t view_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t last_exec_ = 0;
  bool in_view_change_ = false;

  std::map<std::uint64_t, LogEntry> log_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, Bytes> pending_;
  std::map<std::uint32_t, std::uint64_t> executed_ts_;
  std::map<std::uint32_t, std::set<std::uint32_t>> vc_votes_;

  // Flooding protection token buckets (per peer).
  std::map<NodeId, double> tokens_;
  std::map<NodeId, Time> tokens_at_;
  std::uint64_t flood_drops_ = 0;

  // Throughput monitor.
  std::uint64_t exec_at_last_check_ = 0;
  double best_rate_ = 0;
  std::uint32_t low_periods_ = 0;
};

}  // namespace turret::systems::aardvark
