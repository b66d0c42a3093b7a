#include "systems/steward/steward_replica.h"

#include "common/hash.h"
#include "systems/replication/crypto.h"
#include "systems/replication/faults.h"

namespace turret::systems::steward {

void StewardReplica::Entry::save(serial::Writer& w) const {
  w.bytes(request);
  w.u32(static_cast<std::uint32_t>(prepares.size()));
  for (std::uint32_t p : prepares) w.u32(p);
  w.boolean(pre_prepared);
  w.boolean(prepare_sent);
  w.boolean(locally_prepared);
  w.boolean(accepted);
  w.boolean(accept_sent);
  w.boolean(executed);
  w.i64(proposed_at);
  w.u32(proposal_from);
}

StewardReplica::Entry StewardReplica::Entry::load(serial::Reader& r) {
  Entry e;
  e.request = r.bytes();
  const std::uint32_t np = r.u32();
  for (std::uint32_t i = 0; i < np; ++i) e.prepares.insert(r.u32());
  e.pre_prepared = r.boolean();
  e.prepare_sent = r.boolean();
  e.locally_prepared = r.boolean();
  e.accepted = r.boolean();
  e.accept_sent = r.boolean();
  e.executed = r.boolean();
  e.proposed_at = r.i64();
  e.proposal_from = r.u32();
  return e;
}

void StewardReplica::site_broadcast(vm::GuestContext& ctx, Bytes msg) {
  charge_sign(ctx, cfg_.base);
  const std::uint32_t site = my_site(ctx);
  const MessageBuf shared(std::move(msg));  // one buffer for every peer
  for (NodeId r = site * cfg_.site_size; r < (site + 1) * cfg_.site_size; ++r) {
    if (r == ctx.self()) continue;
    charge_mac(ctx, cfg_.base);
    ctx.send_shared(r, shared);
  }
}

void StewardReplica::start(vm::GuestContext& ctx) {
  if (is_site_rep(ctx)) {
    ctx.set_timer(kProposalRetryTimer, 500 * kMillisecond);
    ctx.set_timer(kCcsTimer, cfg_.ccs_period + ctx.self() * 11 * kMillisecond);
  }
  if (cfg_.base.scheduled_crash_node == ctx.self() &&
      cfg_.base.scheduled_crash_at > 0) {
    ctx.set_timer(kScheduledCrashTimer, cfg_.base.scheduled_crash_at);
  }
}

void StewardReplica::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  switch (timer_id) {
    case kProposalRetryTimer: {
      // Leader-site representative: re-send Proposals that have not been
      // Accepted within the retry period — to EVERY remote-site replica
      // (the fault-masking path).
      if (my_site(ctx) == 0 && is_site_rep(ctx)) {
        for (auto& [seq, e] : log_) {
          if (e.proposed_at >= 0 && !e.accepted &&
              ctx.now() - e.proposed_at >= cfg_.proposal_retry) {
            Proposal p;
            p.global_view = global_view_;
            p.seq = seq;
            p.site = 0;
            p.request = e.request;
            ctx.consume_cpu(cfg_.threshold_combine);
            const MessageBuf shared(p.encode());
            for (NodeId r = cfg_.site_size; r < 2 * cfg_.site_size; ++r) {
              charge_mac(ctx, cfg_.base);
              ctx.send_shared(r, shared);
            }
            e.proposed_at = ctx.now();
          }
        }
      }
      ctx.set_timer(kProposalRetryTimer, 500 * kMillisecond);
      break;
    }
    case kCcsTimer: {
      // Periodic collective-state exchange between the site representatives.
      if (is_site_rep(ctx)) {
        CCSUnion u;
        u.global_view = global_view_;
        u.site = my_site(ctx);
        u.replica = ctx.self();
        u.n_entries = static_cast<std::int32_t>(cfg_.replicas());
        u.aggregate = Bytes(2048, static_cast<std::uint8_t>(last_exec_));
        ctx.consume_cpu(cfg_.threshold_combine);
        const std::uint32_t other_site = my_site(ctx) == 0 ? 1 : 0;
        charge_mac(ctx, cfg_.base);
        ctx.send(cfg_.rep_of(other_site, local_view_), u.encode());
      }
      ctx.set_timer(kCcsTimer, cfg_.ccs_period);
      break;
    }
    case kProgressTimer: {
      progress_timer_armed_ = false;
      if (pending_.empty()) break;
      // Demand a local view change (rotate the site representative) and tell
      // the other site a global view change may be needed.
      LocalViewChange lvc;
      lvc.site = my_site(ctx);
      lvc.new_local_view = local_view_ + 1;
      lvc.replica = ctx.self();
      lvc.n_proofs = 1;
      lvc_votes_[lvc.new_local_view].insert(ctx.self());
      site_broadcast(ctx, lvc.encode());

      GlobalViewChange gvc;
      gvc.new_global_view = global_view_ + 1;
      gvc.site = my_site(ctx);
      gvc.replica = ctx.self();
      gvc.n_proofs = 1;
      gvc.proof = Bytes(512, 0x9c);
      ctx.consume_cpu(cfg_.threshold_combine);
      const std::uint32_t other_site = my_site(ctx) == 0 ? 1 : 0;
      charge_mac(ctx, cfg_.base);
      ctx.send(cfg_.rep_of(other_site, 0), gvc.encode());
      ctx.set_timer(kProgressTimer, cfg_.base.progress_timeout);
      progress_timer_armed_ = true;
      break;
    }
    case kScheduledCrashTimer:
      throw vm::GuestFault("scheduled benign crash (scenario fault schedule)");
  }
}

void StewardReplica::on_message(vm::GuestContext& ctx, NodeId src,
                                BytesView msg) {
  wire::MessageReader r(msg);
  switch (r.tag()) {
    case kUpdate: handle_update(ctx, r); break;
    case kLocalPrePrepare: handle_local_pre_prepare(ctx, src, r); break;
    case kLocalPrepare: handle_local_prepare(ctx, src, r); break;
    case kProposal: handle_proposal(ctx, src, r); break;
    case kAccept: handle_accept(ctx, r); break;
    case kGlobalOrder: handle_global_order(ctx, src, r); break;
    case kCCSUnion: handle_ccs_union(ctx, r); break;
    case kGlobalViewChange: handle_global_view_change(ctx, src, r); break;
    case kLocalViewChange: handle_local_view_change(ctx, src, r); break;
    default: break;
  }
}

void StewardReplica::handle_update(vm::GuestContext& ctx,
                                   wire::MessageReader& r) {
  const Update up = Update::decode(r);
  charge_verify(ctx, cfg_.base);
  const auto done = executed_ts_.find(up.client);
  if (done != executed_ts_.end() && done->second >= up.timestamp) return;
  const auto key = std::make_pair(up.client, up.timestamp);
  const bool fresh = pending_.emplace(key, up.payload).second;

  if (my_site(ctx) == 0 && is_site_rep(ctx)) {
    // Already ordering it? Then this is a client retry; the retry timer will
    // re-send the Proposal if the WAN leg is what stalled.
    for (const auto& [seq, e] : log_) {
      if (!e.executed && e.request == Update{up.client, up.timestamp, up.payload}
                                          .encode())
        return;
    }
    const std::uint64_t seq = next_seq_++;
    start_local_round(ctx, seq, Update{up.client, up.timestamp, up.payload}.encode());
  } else if (fresh && !progress_timer_armed_) {
    ctx.set_timer(kProgressTimer, cfg_.base.progress_timeout);
    progress_timer_armed_ = true;
  }
}

void StewardReplica::start_local_round(vm::GuestContext& ctx,
                                       std::uint64_t seq,
                                       const Bytes& request) {
  Entry& e = log_[seq];
  e.request = request;
  e.pre_prepared = true;
  e.prepare_sent = true;
  e.prepares.insert(ctx.self());

  LocalPrePrepare pp;
  pp.site = my_site(ctx);
  pp.local_view = local_view_;
  pp.seq = seq;
  pp.n_updates = 1;
  pp.request = request;
  site_broadcast(ctx, pp.encode());
}

void StewardReplica::handle_local_pre_prepare(vm::GuestContext& ctx,
                                              NodeId src,
                                              wire::MessageReader& r) {
  const LocalPrePrepare pp = LocalPrePrepare::decode(r);
  charge_verify(ctx, cfg_.base);
  if (pp.site != my_site(ctx)) return;
  if (src != cfg_.rep_of(pp.site, pp.local_view) || pp.local_view != local_view_)
    return;

  // THE BUG UNDER TEST: batch count trusted from the wire.
  std::vector<Bytes> batch;
  batch.resize(unchecked_length(pp.n_updates));

  Entry& e = log_[pp.seq];
  if (e.pre_prepared && e.prepare_sent) return;  // duplicate
  e.request = pp.request;
  e.pre_prepared = true;
  if (!e.prepare_sent) {
    e.prepare_sent = true;
    e.prepares.insert(ctx.self());
    LocalPrepare lp;
    lp.site = pp.site;
    lp.local_view = local_view_;
    lp.seq = pp.seq;
    lp.replica = ctx.self();
    lp.digest = Bytes(8, static_cast<std::uint8_t>(fnv1a(pp.request)));
    site_broadcast(ctx, lp.encode());
  }
  maybe_accept(ctx, pp.seq);
}

void StewardReplica::handle_local_prepare(vm::GuestContext& ctx, NodeId src,
                                          wire::MessageReader& r) {
  const LocalPrepare lp = LocalPrepare::decode(r);
  charge_verify(ctx, cfg_.base);
  if (lp.site != my_site(ctx) || lp.local_view != local_view_) return;
  Entry& e = log_[lp.seq];
  if (!e.prepares.insert(src)) return;
  maybe_accept(ctx, lp.seq);
}

void StewardReplica::maybe_accept(vm::GuestContext& ctx, std::uint64_t seq) {
  Entry& e = log_[seq];
  if (!e.pre_prepared || e.locally_prepared) return;
  if (e.prepares.size() < cfg_.local_quorum() + 1) return;  // pp sender + 2f
  e.locally_prepared = true;

  if (my_site(ctx) == 0) {
    // Leader site: the representative ships the threshold-signed Proposal.
    if (is_site_rep(ctx)) {
      Proposal p;
      p.global_view = global_view_;
      p.seq = seq;
      p.site = 0;
      p.request = e.request;
      ctx.consume_cpu(cfg_.threshold_combine);
      charge_mac(ctx, cfg_.base);
      ctx.send(cfg_.rep_of(1, local_view_), p.encode());
      e.proposed_at = ctx.now();
    }
  } else {
    // Remote site: the representative answers with the site's Accept.
    if (is_site_rep(ctx) && !e.accept_sent) {
      e.accept_sent = true;
      Accept a;
      a.global_view = global_view_;
      a.seq = seq;
      a.site = my_site(ctx);
      a.replica = ctx.self();
      ctx.consume_cpu(cfg_.threshold_combine);
      charge_mac(ctx, cfg_.base);
      ctx.send(e.proposal_from == kNoNode ? cfg_.rep_of(0, 0) : e.proposal_from,
               a.encode());
    }
  }
}

void StewardReplica::handle_proposal(vm::GuestContext& ctx, NodeId src,
                                     wire::MessageReader& r) {
  const Proposal p = Proposal::decode(r);
  ctx.consume_cpu(cfg_.threshold_verify);  // threshold-signature check
  if (my_site(ctx) == 0) return;           // proposals target the remote site

  Entry& e = log_[p.seq];
  e.proposal_from = src;
  if (e.locally_prepared) {
    // Fault masking: a re-sent Proposal reaching ANY remote replica that
    // holds the prepared entry produces the site's Accept — even when the
    // representative suppressed its own.
    if (!e.accept_sent) {
      e.accept_sent = true;
      Accept a;
      a.global_view = global_view_;
      a.seq = p.seq;
      a.site = my_site(ctx);
      a.replica = ctx.self();
      ctx.consume_cpu(cfg_.threshold_combine);
      charge_mac(ctx, cfg_.base);
      ctx.send(src, a.encode());
    }
    return;
  }
  // First sight: run the site-local agreement round on the proposal.
  if (is_site_rep(ctx) && !e.pre_prepared) {
    e.request = p.request;
    start_local_round(ctx, p.seq, p.request);
  }
}

void StewardReplica::handle_accept(vm::GuestContext& ctx,
                                   wire::MessageReader& r) {
  const Accept a = Accept::decode(r);
  ctx.consume_cpu(cfg_.threshold_verify);
  if (my_site(ctx) != 0) return;
  Entry& e = log_[a.seq];
  if (e.accepted || !e.locally_prepared) return;
  e.accepted = true;
  // Globally ordered: fan the order out inside the leader site and execute.
  GlobalOrder go;
  go.global_view = global_view_;
  go.seq = a.seq;
  go.request = e.request;
  site_broadcast(ctx, go.encode());
  execute_ready(ctx);
}

void StewardReplica::handle_global_order(vm::GuestContext& ctx, NodeId src,
                                         wire::MessageReader& r) {
  const GlobalOrder go = GlobalOrder::decode(r);
  charge_verify(ctx, cfg_.base);
  if (src != cfg_.rep_of(0, local_view_) && src != cfg_.rep_of(0, 0)) return;
  Entry& e = log_[go.seq];
  e.request = go.request;
  e.accepted = true;
  execute_ready(ctx);
}

void StewardReplica::execute_ready(vm::GuestContext& ctx) {
  for (;;) {
    auto it = log_.find(last_exec_ + 1);
    if (it == log_.end() || !it->second.accepted || it->second.executed) return;
    Entry& e = it->second;
    e.executed = true;
    ++last_exec_;
    ctx.consume_cpu(10 * kMicrosecond);

    wire::MessageReader rr(e.request);
    if (rr.tag() == kUpdate) {
      const Update up = Update::decode(rr);
      executed_ts_[up.client] = std::max(executed_ts_[up.client], up.timestamp);
      pending_.erase({up.client, up.timestamp});
      Reply rep;
      rep.timestamp = up.timestamp;
      rep.client = up.client;
      rep.replica = ctx.self();
      rep.result = Bytes{1};
      charge_mac(ctx, cfg_.base);
      ctx.send(up.client, rep.encode());
    }
    ctx.cancel_timer(kProgressTimer);
    progress_timer_armed_ = false;
    if (!pending_.empty()) {
      ctx.set_timer(kProgressTimer, cfg_.base.progress_timeout);
      progress_timer_armed_ = true;
    }
  }
}

void StewardReplica::handle_ccs_union(vm::GuestContext& ctx,
                                      wire::MessageReader& r) {
  const CCSUnion u = CCSUnion::decode(r);
  // Threshold-signature verification of the aggregate — expensive, and paid
  // for every copy: the lever behind the paper's duplication DoS on Steward.
  ctx.consume_cpu(cfg_.aggregate_verify);

  // THE BUG UNDER TEST.
  std::vector<std::uint64_t> entries;
  entries.resize(unchecked_length(u.n_entries));
}

void StewardReplica::handle_global_view_change(vm::GuestContext& ctx,
                                               NodeId /*src*/,
                                               wire::MessageReader& r) {
  const GlobalViewChange gvc = GlobalViewChange::decode(r);
  ctx.consume_cpu(cfg_.aggregate_verify);

  // THE BUG UNDER TEST.
  std::vector<std::uint64_t> proofs;
  proofs.resize(unchecked_length(gvc.n_proofs));

  if (gvc.new_global_view > global_view_) {
    global_view_ = gvc.new_global_view;
  }
}

void StewardReplica::handle_local_view_change(vm::GuestContext& ctx,
                                              NodeId src,
                                              wire::MessageReader& r) {
  const LocalViewChange lvc = LocalViewChange::decode(r);
  charge_verify(ctx, cfg_.base);
  if (lvc.site != my_site(ctx)) return;

  // THE BUG UNDER TEST.
  std::vector<std::uint64_t> proofs;
  proofs.resize(unchecked_length(lvc.n_proofs));

  if (lvc.new_local_view <= local_view_) return;
  auto& votes = lvc_votes_[lvc.new_local_view];
  votes.insert(src);
  if (votes.size() >= cfg_.base.f + 1) {
    local_view_ = lvc.new_local_view;
    lvc_votes_.erase(lvc_votes_.begin(),
                     lvc_votes_.upper_bound(local_view_));
    if (is_site_rep(ctx)) {
      // The new representative re-drives pending updates.
      ctx.set_timer(kProposalRetryTimer, 100 * kMillisecond);
      ctx.set_timer(kCcsTimer, cfg_.ccs_period);
      if (my_site(ctx) == 0) {
        for (const auto& [key, payload] : pending_) {
          const std::uint64_t seq = next_seq_++;
          start_local_round(
              ctx, seq, Update{key.first, key.second, payload}.encode());
        }
      }
    }
  }
}

void StewardReplica::save(serial::Writer& w) const {
  w.u32(local_view_);
  w.u32(global_view_);
  w.u64(next_seq_);
  w.u64(last_exec_);
  w.boolean(progress_timer_armed_);
  w.u32(static_cast<std::uint32_t>(log_.size()));
  for (const auto& [seq, e] : log_) {
    w.u64(seq);
    e.save(w);
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
  w.u32(static_cast<std::uint32_t>(lvc_votes_.size()));
  for (const auto& [v, votes] : lvc_votes_) {
    w.u32(v);
    w.u32(static_cast<std::uint32_t>(votes.size()));
    for (std::uint32_t x : votes) w.u32(x);
  }
}

void StewardReplica::load(serial::Reader& r) {
  local_view_ = r.u32();
  global_view_ = r.u32();
  next_seq_ = r.u64();
  last_exec_ = r.u64();
  progress_timer_armed_ = r.boolean();
  log_.clear();
  const std::uint32_t nl = r.u32();
  for (std::uint32_t i = 0; i < nl; ++i) {
    const std::uint64_t seq = r.u64();
    log_.emplace(seq, Entry::load(r));
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
  lvc_votes_.clear();
  const std::uint32_t nv = r.u32();
  for (std::uint32_t i = 0; i < nv; ++i) {
    const std::uint32_t v = r.u32();
    const std::uint32_t cnt = r.u32();
    auto& s = lvc_votes_[v];
    for (std::uint32_t j = 0; j < cnt; ++j) s.insert(r.u32());
  }
}

}  // namespace turret::systems::steward
