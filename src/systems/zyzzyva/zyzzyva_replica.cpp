#include "systems/zyzzyva/zyzzyva_replica.h"

#include "common/hash.h"
#include "systems/replication/crypto.h"
#include "systems/replication/faults.h"

namespace turret::systems::zyzzyva {

void ZyzzyvaReplica::broadcast(vm::GuestContext& ctx, Bytes msg) {
  charge_sign(ctx, cfg_);
  const MessageBuf shared(std::move(msg));  // one buffer for every peer
  for (NodeId r = 0; r < cfg_.n; ++r) {
    if (r == ctx.self()) continue;
    charge_mac(ctx, cfg_);
    ctx.send_shared(r, shared);
  }
}

void ZyzzyvaReplica::start(vm::GuestContext& /*ctx*/) {}

void ZyzzyvaReplica::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  if (timer_id != kProgressTimer) return;
  progress_timer_armed_ = false;
  if (pending_.empty()) return;
  // Primary failed to order a known request within the recovery timeout.
  in_view_change_ = true;
  ViewChange vc;
  vc.new_view = view_ + 1;
  vc.replica = ctx.self();
  vc.n_entries = static_cast<std::int32_t>(log_.size() > 64 ? 64 : log_.size());
  vc.proof = Bytes(32, 0x5a);
  vc_votes_[vc.new_view].insert(ctx.self());
  broadcast(ctx, vc.encode());
  ctx.set_timer(kProgressTimer, cfg_.progress_timeout);
  progress_timer_armed_ = true;
}

void ZyzzyvaReplica::on_message(vm::GuestContext& ctx, NodeId src,
                                BytesView msg) {
  wire::MessageReader r(msg);
  switch (r.tag()) {
    case kRequest: handle_request(ctx, r); break;
    case kOrderRequest: handle_order_request(ctx, src, r); break;
    case kCommitCert: handle_commit_cert(ctx, r); break;
    case kViewChange: handle_view_change(ctx, src, r); break;
    case kNewView: handle_new_view(ctx, src, r); break;
    default: break;
  }
}

void ZyzzyvaReplica::handle_request(vm::GuestContext& ctx,
                                    wire::MessageReader& r) {
  const Request req = Request::decode(r);
  charge_verify(ctx, cfg_);
  const auto done = executed_ts_.find(req.client);
  if (done != executed_ts_.end() && done->second >= req.timestamp) return;

  if (primary_of(view_) == ctx.self() && !in_view_change_) {
    // Order it (or re-order: the client retransmitted, so re-send the stored
    // OrderRequest for the in-flight sequence).
    for (const auto& [seq, e] : log_) {
      if (e.client == req.client && e.timestamp == req.timestamp) {
        OrderRequest oreq;
        oreq.view = view_;
        oreq.seq = seq;
        oreq.primary = ctx.self();
        oreq.history_size = static_cast<std::int32_t>(seq);
        oreq.history_digest = Bytes(8, 0);
        oreq.request = Request{e.client, e.timestamp, e.payload}.encode();
        broadcast(ctx, oreq.encode());
        return;
      }
    }
    order(ctx, req.client, req.timestamp, req.payload);
  } else {
    pending_[{req.client, req.timestamp}] = req.payload;
    if (!progress_timer_armed_) {
      ctx.set_timer(kProgressTimer, cfg_.progress_timeout);
      progress_timer_armed_ = true;
    }
  }
}

void ZyzzyvaReplica::order(vm::GuestContext& ctx, std::uint32_t client,
                           std::uint64_t timestamp, const Bytes& payload) {
  const std::uint64_t seq = next_seq_++;
  OrderRequest oreq;
  oreq.view = view_;
  oreq.seq = seq;
  oreq.primary = ctx.self();
  oreq.history_size = static_cast<std::int32_t>(seq);
  oreq.history_digest = Bytes(8, 0);
  oreq.request = Request{client, timestamp, payload}.encode();
  broadcast(ctx, oreq.encode());
  // The primary executes speculatively as well.
  spec_execute(ctx, oreq);
}

void ZyzzyvaReplica::spec_execute(vm::GuestContext& ctx,
                                  const OrderRequest& oreq) {
  // THE BUG UNDER TEST: the history size is trusted from the wire (paper:
  // lying about the size field crashes benign replicas).
  std::vector<std::uint64_t> history_window;
  history_window.resize(unchecked_length(oreq.history_size) % 4096);

  if (oreq.seq != last_spec_ + 1) return;  // hole: wait for fill
  wire::MessageReader rr(oreq.request);
  if (rr.tag() != kRequest) return;
  const Request req = Request::decode(rr);

  Entry& e = log_[oreq.seq];
  e.client = req.client;
  e.timestamp = req.timestamp;
  e.payload = req.payload;
  e.executed = true;
  last_spec_ = oreq.seq;
  history_ = hash_combine(history_, fnv1a(oreq.request));
  executed_ts_[req.client] = std::max(executed_ts_[req.client], req.timestamp);
  pending_.erase({req.client, req.timestamp});
  if (progress_timer_armed_ && pending_.empty()) {
    ctx.cancel_timer(kProgressTimer);
    progress_timer_armed_ = false;
  }
  ctx.consume_cpu(10 * kMicrosecond);  // state-machine apply

  SpecReply rep;
  rep.view = view_;
  rep.seq = oreq.seq;
  rep.timestamp = req.timestamp;
  rep.client = req.client;
  rep.replica = ctx.self();
  Bytes hd(8);
  for (int i = 0; i < 8; ++i) hd[i] = static_cast<std::uint8_t>(history_ >> (8 * i));
  rep.history_digest = std::move(hd);
  rep.result = Bytes{1};
  charge_sign(ctx, cfg_);
  ctx.send(req.client, rep.encode());
}

void ZyzzyvaReplica::handle_order_request(vm::GuestContext& ctx, NodeId src,
                                          wire::MessageReader& r) {
  const OrderRequest oreq = OrderRequest::decode(r);
  charge_verify(ctx, cfg_);
  if (oreq.view != view_ || src != primary_of(view_) || in_view_change_) return;
  if (oreq.seq <= last_spec_) return;  // already executed (duplicate)
  spec_execute(ctx, oreq);
}

void ZyzzyvaReplica::handle_commit_cert(vm::GuestContext& ctx,
                                        wire::MessageReader& r) {
  const CommitCert cc = CommitCert::decode(r);
  charge_verify(ctx, cfg_);
  if (cc.view != view_ || cc.seq > last_spec_) return;
  committed_ = std::max(committed_, cc.seq);
  LocalCommit lc;
  lc.view = view_;
  lc.seq = cc.seq;
  lc.replica = ctx.self();
  charge_mac(ctx, cfg_);
  ctx.send(cc.client, lc.encode());
}

void ZyzzyvaReplica::handle_view_change(vm::GuestContext& ctx, NodeId src,
                                        wire::MessageReader& r) {
  const ViewChange vc = ViewChange::decode(r);
  charge_verify(ctx, cfg_);

  // THE BUG UNDER TEST.
  std::vector<std::uint64_t> entries;
  entries.resize(unchecked_length(vc.n_entries));

  if (vc.new_view <= view_) return;
  auto& votes = vc_votes_[vc.new_view];
  if (!votes.insert(src).second) return;
  if (votes.size() >= cfg_.f + 1 && !in_view_change_) {
    in_view_change_ = true;
    ViewChange mine;
    mine.new_view = vc.new_view;
    mine.replica = ctx.self();
    mine.n_entries = 0;
    mine.proof = Bytes(32, 0x5b);
    votes.insert(ctx.self());
    broadcast(ctx, mine.encode());
  }
  if (primary_of(vc.new_view) == ctx.self() && votes.size() >= 2 * cfg_.f) {
    NewView nv;
    nv.view = vc.new_view;
    nv.primary = ctx.self();
    nv.n_view_changes = static_cast<std::int32_t>(votes.size());
    nv.proof = Bytes(32, 0x5c);
    broadcast(ctx, nv.encode());
    enter_view(ctx, vc.new_view);
  }
}

void ZyzzyvaReplica::handle_new_view(vm::GuestContext& ctx, NodeId src,
                                     wire::MessageReader& r) {
  const NewView nv = NewView::decode(r);
  charge_verify(ctx, cfg_);

  // THE BUG UNDER TEST (paper: lying on New-View's size field crashes).
  std::vector<std::uint64_t> bundled;
  bundled.resize(unchecked_length(nv.n_view_changes));

  if (nv.view <= view_ || src != primary_of(nv.view)) return;
  enter_view(ctx, nv.view);
}

void ZyzzyvaReplica::enter_view(vm::GuestContext& ctx, std::uint32_t new_view) {
  view_ = new_view;
  in_view_change_ = false;
  vc_votes_.erase(vc_votes_.begin(), vc_votes_.upper_bound(new_view));
  next_seq_ = last_spec_ + 1;
  if (primary_of(view_) == ctx.self()) {
    // order() speculatively executes, which erases the entry from pending_ —
    // iterate over a snapshot.
    std::vector<std::tuple<std::uint32_t, std::uint64_t, Bytes>> todo;
    todo.reserve(pending_.size());
    for (const auto& [key, payload] : pending_)
      todo.emplace_back(key.first, key.second, payload);
    for (const auto& [client, timestamp, payload] : todo)
      order(ctx, client, timestamp, payload);
  }
  ctx.cancel_timer(kProgressTimer);
  progress_timer_armed_ = false;
}

void ZyzzyvaReplica::save(serial::Writer& w) const {
  w.u32(view_);
  w.u64(next_seq_);
  w.u64(last_spec_);
  w.u64(committed_);
  w.u64(history_);
  w.boolean(in_view_change_);
  w.boolean(progress_timer_armed_);
  w.u32(static_cast<std::uint32_t>(log_.size()));
  for (const auto& [seq, e] : log_) {
    w.u64(seq);
    w.u32(e.client);
    w.u64(e.timestamp);
    w.bytes(e.payload);
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
}

void ZyzzyvaReplica::load(serial::Reader& r) {
  view_ = r.u32();
  next_seq_ = r.u64();
  last_spec_ = r.u64();
  committed_ = r.u64();
  history_ = r.u64();
  in_view_change_ = r.boolean();
  progress_timer_armed_ = r.boolean();
  log_.clear();
  const std::uint32_t nl = r.u32();
  for (std::uint32_t i = 0; i < nl; ++i) {
    const std::uint64_t seq = r.u64();
    Entry e;
    e.client = r.u32();
    e.timestamp = r.u64();
    e.payload = r.bytes();
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
}

}  // namespace turret::systems::zyzzyva
