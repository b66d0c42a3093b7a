#include "systems/aardvark/aardvark_replica.h"

#include <algorithm>

#include "common/hash.h"
#include "systems/replication/crypto.h"
#include "systems/replication/faults.h"

namespace turret::systems::aardvark {
namespace {

Bytes request_digest(std::uint32_t client, std::uint64_t timestamp,
                     const Bytes& payload) {
  const std::uint64_t h =
      hash_combine(hash_combine(client, timestamp), fnv1a(payload));
  Bytes d(8);
  for (int i = 0; i < 8; ++i) d[i] = static_cast<std::uint8_t>(h >> (8 * i));
  return d;
}

}  // namespace

bool AardvarkReplica::flood_check(vm::GuestContext& ctx, NodeId src) {
  // Token bucket per peer: discarding an over-rate message costs almost
  // nothing (NIC-level separation in the real system).
  double& tokens = tokens_.try_emplace(src, cfg_.peer_burst).first->second;
  Time& at = tokens_at_.try_emplace(src, ctx.now()).first->second;
  const double elapsed_sec =
      static_cast<double>(ctx.now() - at) / kSecond;
  tokens = std::min(cfg_.peer_burst, tokens + elapsed_sec * cfg_.peer_rate_per_sec);
  at = ctx.now();
  if (tokens < 1.0) {
    ++flood_drops_;
    ctx.consume_cpu(2 * kMicrosecond);
    return false;
  }
  tokens -= 1.0;
  return true;
}

void AardvarkReplica::broadcast(vm::GuestContext& ctx, Bytes msg) {
  charge_sign(ctx, cfg_.base);
  const MessageBuf shared(std::move(msg));  // one buffer for every peer
  for (NodeId r = 0; r < cfg_.base.n; ++r) {
    if (r == ctx.self()) continue;
    charge_mac(ctx, cfg_.base);
    ctx.send_shared(r, shared);
  }
}

void AardvarkReplica::start(vm::GuestContext& ctx) {
  ctx.set_timer(kStatusTimer,
                cfg_.base.status_period + ctx.self() * 7 * kMillisecond);
  ctx.set_timer(kMonitorTimer, cfg_.monitor_period);
}

void AardvarkReplica::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  switch (timer_id) {
    case kStatusTimer: {
      Status st;
      st.view = view_;
      st.replica = ctx.self();
      st.last_exec = last_exec_;
      st.stable_seq = last_exec_ > cfg_.base.checkpoint_interval
                          ? last_exec_ - cfg_.base.checkpoint_interval
                          : 0;
      st.n_pending = static_cast<std::int32_t>(pending_.size());
      broadcast(ctx, st.encode());
      ctx.set_timer(kStatusTimer, cfg_.base.status_period);
      break;
    }
    case kMonitorTimer: {
      // Expected-throughput monitoring: a primary delivering far below the
      // best observed rate while work is pending gets voted out.
      const double rate =
          static_cast<double>(last_exec_ - exec_at_last_check_) /
          (static_cast<double>(cfg_.monitor_period) / kSecond);
      exec_at_last_check_ = last_exec_;
      best_rate_ = std::max(best_rate_, rate);
      const bool pending_work = !pending_.empty();
      const bool below_history =
          best_rate_ > 0 && rate < best_rate_ * cfg_.min_throughput_fraction;
      const bool below_floor = rate < cfg_.floor_rate;
      low_periods_ = (pending_work && below_floor) ? low_periods_ + 1 : 0;
      if (pending_work && (below_history || low_periods_ >= 2) &&
          primary_of(view_) != ctx.self() && !in_view_change_) {
        demand_view_change(ctx);
      }
      ctx.set_timer(kMonitorTimer, cfg_.monitor_period);
      break;
    }
  }
}

void AardvarkReplica::demand_view_change(vm::GuestContext& ctx) {
  in_view_change_ = true;
  ViewChange vc;
  vc.new_view = view_ + 1;
  vc.replica = ctx.self();
  vc.stable_seq = last_exec_;
  vc.n_prepared = 0;
  vc.proof = Bytes(32, 0xaa);
  vc_votes_[vc.new_view].insert(ctx.self());
  broadcast(ctx, vc.encode());
}

void AardvarkReplica::on_message(vm::GuestContext& ctx, NodeId src,
                                 BytesView msg) {
  // Flooding protection applies to replica peers (clients have their own
  // isolated queue in Aardvark; our single client never floods).
  if (src < cfg_.base.n && !flood_check(ctx, src)) return;
  wire::MessageReader r(msg);
  switch (r.tag()) {
    case kRequest: handle_request(ctx, r); break;
    case kPrePrepare: handle_pre_prepare(ctx, src, r); break;
    case kPrepare: handle_prepare(ctx, src, r); break;
    case kCommit: handle_commit(ctx, src, r); break;
    case kStatus: handle_status(ctx, src, r); break;
    case kViewChange: handle_view_change(ctx, src, r); break;
    case kNewView: handle_new_view(ctx, src, r); break;
    default: break;
  }
}

void AardvarkReplica::handle_request(vm::GuestContext& ctx,
                                     wire::MessageReader& r) {
  const Request req = Request::decode(r);
  charge_verify(ctx, cfg_.base);  // Aardvark: requests are always signed
  const auto done = executed_ts_.find(req.client);
  if (done != executed_ts_.end() && done->second >= req.timestamp) return;
  const auto key = std::make_pair(req.client, req.timestamp);
  pending_.emplace(key, req.payload);
  if (primary_of(view_) == ctx.self() && !in_view_change_) {
    for (const auto& [seq, e] : log_) {
      if (e.client == req.client && e.timestamp == req.timestamp) return;
    }
    propose(ctx, req.client, req.timestamp, req.payload);
  }
}

void AardvarkReplica::propose(vm::GuestContext& ctx, std::uint32_t client,
                              std::uint64_t timestamp, const Bytes& payload) {
  const std::uint64_t seq = next_seq_++;
  const Bytes request_bytes = Request{client, timestamp, payload}.encode();
  LogEntry& e = log_[seq];
  e.view = view_;
  e.digest = request_digest(client, timestamp, payload);
  e.payload = request_bytes;
  e.client = client;
  e.timestamp = timestamp;
  e.pre_prepared = true;
  e.prepare_sent = true;
  e.prepares.insert(ctx.self());

  PrePrepare pp;
  pp.view = view_;
  pp.seq = seq;
  pp.primary = ctx.self();
  pp.n_big_requests = 0;
  pp.n_nondet_choices = 0;
  pp.digest = e.digest;
  pp.payload = request_bytes;
  broadcast(ctx, pp.encode());
}

void AardvarkReplica::handle_pre_prepare(vm::GuestContext& ctx, NodeId src,
                                         wire::MessageReader& r) {
  const PrePrepare pp = PrePrepare::decode(r);
  charge_verify(ctx, cfg_.base);
  if (pp.view != view_ || src != primary_of(view_) || in_view_change_) return;

  // THE VALIDATION GAPS (paper: "lying on the number of large requests or
  // non-deterministic choices of Pre-Prepare messages causes benign nodes to
  // crash") — these two counts escaped Aardvark's validation pass.
  std::vector<Bytes> big_requests;
  big_requests.resize(unchecked_length(pp.n_big_requests));
  std::vector<std::uint64_t> nondet;
  nondet.resize(unchecked_length(pp.n_nondet_choices));

  LogEntry& e = log_[pp.seq];
  if (e.pre_prepared) return;  // duplicates are simply dropped (validated)
  e.view = pp.view;
  e.digest = pp.digest;
  e.payload = pp.payload;
  e.pre_prepared = true;
  if (!pp.payload.empty()) {
    wire::MessageReader rr(pp.payload);
    if (rr.tag() == kRequest) {
      const Request req = Request::decode(rr);
      e.client = req.client;
      e.timestamp = req.timestamp;
      const auto done = executed_ts_.find(req.client);
      if (done == executed_ts_.end() || done->second < req.timestamp)
        pending_.try_emplace({req.client, req.timestamp}, req.payload);
    }
  }
  if (!e.prepare_sent && primary_of(view_) != ctx.self()) {
    e.prepare_sent = true;
    e.prepares.insert(ctx.self());
    Prepare p;
    p.view = view_;
    p.seq = pp.seq;
    p.replica = ctx.self();
    p.digest = e.digest;
    broadcast(ctx, p.encode());
  }
  maybe_send_commit(ctx, pp.seq);
}

void AardvarkReplica::handle_prepare(vm::GuestContext& ctx, NodeId src,
                                     wire::MessageReader& r) {
  const Prepare p = Prepare::decode(r);
  charge_verify(ctx, cfg_.base);
  if (p.view != view_) return;
  LogEntry& e = log_[p.seq];
  if (!e.prepares.insert(src).second) return;
  maybe_send_commit(ctx, p.seq);
}

void AardvarkReplica::maybe_send_commit(vm::GuestContext& ctx,
                                        std::uint64_t seq) {
  LogEntry& e = log_[seq];
  if (!e.pre_prepared || e.commit_sent) return;
  if (e.prepares.size() < 2 * cfg_.base.f) return;
  e.commit_sent = true;
  e.commits.insert(ctx.self());
  Commit c;
  c.view = e.view;
  c.seq = seq;
  c.replica = ctx.self();
  c.digest = e.digest;
  broadcast(ctx, c.encode());
  try_execute(ctx);
}

void AardvarkReplica::handle_commit(vm::GuestContext& ctx, NodeId src,
                                    wire::MessageReader& r) {
  const Commit c = Commit::decode(r);
  charge_verify(ctx, cfg_.base);
  if (c.view != view_) return;
  LogEntry& e = log_[c.seq];
  if (!e.commits.insert(src).second) return;
  try_execute(ctx);
}

void AardvarkReplica::try_execute(vm::GuestContext& ctx) {
  for (;;) {
    auto it = log_.find(last_exec_ + 1);
    if (it == log_.end()) return;
    LogEntry& e = it->second;
    if (e.executed) {
      ++last_exec_;
      continue;
    }
    if (!e.commit_sent || e.commits.size() < cfg_.base.quorum()) return;
    e.executed = true;
    ++last_exec_;
    ctx.consume_cpu(10 * kMicrosecond);
    if (e.timestamp != 0) {
      executed_ts_[e.client] = std::max(executed_ts_[e.client], e.timestamp);
      pending_.erase({e.client, e.timestamp});
      Reply rep;
      rep.view = view_;
      rep.timestamp = e.timestamp;
      rep.client = e.client;
      rep.replica = ctx.self();
      rep.result = Bytes{1};
      charge_mac(ctx, cfg_.base);
      ctx.send(e.client, rep.encode());
    }
  }
}

void AardvarkReplica::handle_status(vm::GuestContext& ctx, NodeId src,
                                    wire::MessageReader& r) {
  const Status st = Status::decode(r);
  charge_verify(ctx, cfg_.base);

  // Aardvark validates the count field (no crash surface here).
  std::size_t n_pending = 0;
  if (!validated_length(st.n_pending, 4096, &n_pending)) return;

  if (st.last_exec >= last_exec_) return;
  // Bounded retransmission: at most retransmit_batch messages per Status,
  // and peers too far behind just get the checkpoint pointer. This is the
  // flooding-protection behaviour that mutes large Delay Status attacks.
  const std::uint64_t gap = last_exec_ - st.last_exec;
  if (gap > cfg_.base.retransmit_gap_limit) {
    Checkpoint cp;
    cp.seq = last_exec_;
    cp.replica = ctx.self();
    cp.state_digest = Bytes(8, static_cast<std::uint8_t>(last_exec_));
    charge_mac(ctx, cfg_.base);
    ctx.send(src, cp.encode());
    return;
  }
  std::uint32_t sent = 0;
  for (auto it = log_.upper_bound(st.last_exec);
       it != log_.end() && sent < cfg_.retransmit_batch; ++it, ++sent) {
    const LogEntry& e = it->second;
    if (!e.pre_prepared) continue;
    PrePrepare pp;
    pp.view = e.view;
    pp.seq = it->first;
    pp.primary = primary_of(e.view);
    pp.n_big_requests = 0;
    pp.n_nondet_choices = 0;
    pp.digest = e.digest;
    pp.payload = e.payload;
    charge_mac(ctx, cfg_.base);
    ctx.send(src, pp.encode());
    if (e.commit_sent) {
      Commit c;
      c.view = e.view;
      c.seq = it->first;
      c.replica = ctx.self();
      c.digest = e.digest;
      charge_mac(ctx, cfg_.base);
      ctx.send(src, c.encode());
    }
  }
}

void AardvarkReplica::handle_view_change(vm::GuestContext& ctx, NodeId src,
                                         wire::MessageReader& r) {
  const ViewChange vc = ViewChange::decode(r);
  charge_verify(ctx, cfg_.base);

  // THE VALIDATION GAP.
  std::vector<std::uint64_t> prepared;
  prepared.resize(unchecked_length(vc.n_prepared));

  if (vc.new_view <= view_) return;
  auto& votes = vc_votes_[vc.new_view];
  if (!votes.insert(src).second) return;
  if (votes.size() >= cfg_.base.f + 1 && !in_view_change_) {
    demand_view_change(ctx);
  }
  if (primary_of(vc.new_view) == ctx.self() && votes.size() >= 2 * cfg_.base.f) {
    NewView nv;
    nv.view = vc.new_view;
    nv.primary = ctx.self();
    nv.n_view_changes = static_cast<std::int32_t>(votes.size());
    nv.proof = Bytes(32, 0xab);
    broadcast(ctx, nv.encode());
    enter_view(ctx, vc.new_view);
  }
}

void AardvarkReplica::handle_new_view(vm::GuestContext& ctx, NodeId src,
                                      wire::MessageReader& r) {
  const NewView nv = NewView::decode(r);
  charge_verify(ctx, cfg_.base);

  // Aardvark validates this one.
  std::size_t n_vc = 0;
  if (!validated_length(nv.n_view_changes, 64, &n_vc)) return;

  if (nv.view <= view_ || src != primary_of(nv.view)) return;
  enter_view(ctx, nv.view);
}

void AardvarkReplica::enter_view(vm::GuestContext& ctx, std::uint32_t new_view) {
  view_ = new_view;
  in_view_change_ = false;
  vc_votes_.erase(vc_votes_.begin(), vc_votes_.upper_bound(new_view));
  for (auto it = log_.begin(); it != log_.end();) {
    if (!it->second.executed && it->first > last_exec_) {
      it = log_.erase(it);
    } else {
      ++it;
    }
  }
  next_seq_ = last_exec_ + 1;
  best_rate_ = 0;  // fresh expectations for the new primary
  low_periods_ = 0;
  if (primary_of(view_) == ctx.self()) {
    for (auto& [key, payload] : pending_) {
      propose(ctx, key.first, key.second, payload);
    }
  }
}

void AardvarkReplica::save(serial::Writer& w) const {
  w.u32(view_);
  w.u64(next_seq_);
  w.u64(last_exec_);
  w.boolean(in_view_change_);
  w.u32(static_cast<std::uint32_t>(log_.size()));
  for (const auto& [seq, e] : log_) {
    w.u64(seq);
    w.u32(e.view);
    w.bytes(e.digest);
    w.bytes(e.payload);
    w.u32(e.client);
    w.u64(e.timestamp);
    w.u32(static_cast<std::uint32_t>(e.prepares.size()));
    for (std::uint32_t x : e.prepares) w.u32(x);
    w.u32(static_cast<std::uint32_t>(e.commits.size()));
    for (std::uint32_t x : e.commits) w.u32(x);
    w.boolean(e.pre_prepared);
    w.boolean(e.prepare_sent);
    w.boolean(e.commit_sent);
    w.boolean(e.executed);
  }
  w.u32(static_cast<std::uint32_t>(pending_.size()));
  for (const auto& [k, payload] : pending_) {
    w.u32(k.first);
    w.u64(k.second);
    w.bytes(payload);
  }
  w.u32(static_cast<std::uint32_t>(executed_ts_.size()));
  for (const auto& [c, t] : executed_ts_) {
    w.u32(c);
    w.u64(t);
  }
  w.u32(static_cast<std::uint32_t>(vc_votes_.size()));
  for (const auto& [v, votes] : vc_votes_) {
    w.u32(v);
    w.u32(static_cast<std::uint32_t>(votes.size()));
    for (std::uint32_t x : votes) w.u32(x);
  }
  w.u32(static_cast<std::uint32_t>(tokens_.size()));
  for (const auto& [peer, tok] : tokens_) {
    w.u32(peer);
    w.f64(tok);
    w.i64(tokens_at_.at(peer));
  }
  w.u64(flood_drops_);
  w.u64(exec_at_last_check_);
  w.f64(best_rate_);
  w.u32(low_periods_);
}

void AardvarkReplica::load(serial::Reader& r) {
  view_ = r.u32();
  next_seq_ = r.u64();
  last_exec_ = r.u64();
  in_view_change_ = r.boolean();
  log_.clear();
  const std::uint32_t nl = r.u32();
  for (std::uint32_t i = 0; i < nl; ++i) {
    const std::uint64_t seq = r.u64();
    LogEntry e;
    e.view = r.u32();
    e.digest = r.bytes();
    e.payload = r.bytes();
    e.client = r.u32();
    e.timestamp = r.u64();
    const std::uint32_t np = r.u32();
    for (std::uint32_t j = 0; j < np; ++j) e.prepares.insert(r.u32());
    const std::uint32_t nc = r.u32();
    for (std::uint32_t j = 0; j < nc; ++j) e.commits.insert(r.u32());
    e.pre_prepared = r.boolean();
    e.prepare_sent = r.boolean();
    e.commit_sent = r.boolean();
    e.executed = r.boolean();
    log_.emplace(seq, std::move(e));
  }
  pending_.clear();
  const std::uint32_t np = r.u32();
  for (std::uint32_t i = 0; i < np; ++i) {
    const std::uint32_t c = r.u32();
    const std::uint64_t t = r.u64();
    pending_[{c, t}] = r.bytes();
  }
  executed_ts_.clear();
  const std::uint32_t ne = r.u32();
  for (std::uint32_t i = 0; i < ne; ++i) {
    const std::uint32_t c = r.u32();
    executed_ts_[c] = r.u64();
  }
  vc_votes_.clear();
  const std::uint32_t nv = r.u32();
  for (std::uint32_t i = 0; i < nv; ++i) {
    const std::uint32_t v = r.u32();
    const std::uint32_t cnt = r.u32();
    auto& s = vc_votes_[v];
    for (std::uint32_t j = 0; j < cnt; ++j) s.insert(r.u32());
  }
  tokens_.clear();
  tokens_at_.clear();
  const std::uint32_t nt = r.u32();
  for (std::uint32_t i = 0; i < nt; ++i) {
    const NodeId peer = r.u32();
    tokens_[peer] = r.f64();
    tokens_at_[peer] = r.i64();
  }
  flood_drops_ = r.u64();
  exec_at_last_check_ = r.u64();
  best_rate_ = r.f64();
  low_periods_ = r.u32();
}

}  // namespace turret::systems::aardvark
