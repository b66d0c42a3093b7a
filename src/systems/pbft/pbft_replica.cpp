#include "systems/pbft/pbft_replica.h"

#include <algorithm>

#include "common/hash.h"
#include "systems/replication/crypto.h"
#include "systems/replication/faults.h"

namespace turret::systems::pbft {
namespace {

Bytes request_digest(std::uint32_t client, std::uint64_t timestamp,
                     const Bytes& payload) {
  const std::uint64_t h =
      hash_combine(hash_combine(client, timestamp), fnv1a(payload));
  Bytes d(8);
  for (int i = 0; i < 8; ++i) d[i] = static_cast<std::uint8_t>(h >> (8 * i));
  return d;
}

/// Minimum interval between retransmissions of the same log entry's Prepare
/// or Commit (implementations rate-limit resends; keeps duplicate storms from
/// amplifying without bound).
constexpr Duration kResendInterval = 10 * kMillisecond;

}  // namespace

void PbftReplica::LogEntry::save(serial::Writer& w) const {
  w.u32(view);
  w.bytes(digest);
  w.bytes(payload);
  w.u32(client);
  w.u64(timestamp);
  w.u32(static_cast<std::uint32_t>(prepares.size()));
  for (std::uint32_t p : prepares) w.u32(p);
  w.u32(static_cast<std::uint32_t>(commits.size()));
  for (std::uint32_t c : commits) w.u32(c);
  w.boolean(pre_prepared);
  w.boolean(prepare_sent);
  w.boolean(commit_sent);
  w.boolean(executed);
  w.i64(last_prepare_resend);
  w.i64(last_commit_resend);
}

PbftReplica::LogEntry PbftReplica::LogEntry::load(serial::Reader& r) {
  LogEntry e;
  e.view = r.u32();
  e.digest = r.bytes();
  e.payload = r.bytes();
  e.client = r.u32();
  e.timestamp = r.u64();
  const std::uint32_t np = r.u32();
  for (std::uint32_t i = 0; i < np; ++i) e.prepares.insert(r.u32());
  const std::uint32_t nc = r.u32();
  for (std::uint32_t i = 0; i < nc; ++i) e.commits.insert(r.u32());
  e.pre_prepared = r.boolean();
  e.prepare_sent = r.boolean();
  e.commit_sent = r.boolean();
  e.executed = r.boolean();
  e.last_prepare_resend = r.i64();
  e.last_commit_resend = r.i64();
  return e;
}

std::uint32_t PbftReplica::primary_of(std::uint32_t view) const {
  return view % cfg_.n;
}

void PbftReplica::broadcast(vm::GuestContext& ctx, Bytes msg) {
  charge_sign(ctx, cfg_);
  const MessageBuf shared(std::move(msg));  // one buffer for every peer
  for (NodeId r = 0; r < cfg_.n; ++r) {
    if (r == ctx.self()) continue;
    charge_mac(ctx, cfg_);
    ctx.send_shared(r, shared);
  }
}

void PbftReplica::start(vm::GuestContext& ctx) {
  // Stagger the status period by replica id so status broadcasts do not all
  // collide on the same instant.
  ctx.set_timer(kStatusTimer,
                cfg_.status_period + ctx.self() * 7 * kMillisecond);
  if (cfg_.scheduled_crash_node == ctx.self() && cfg_.scheduled_crash_at > 0) {
    ctx.set_timer(kScheduledCrashTimer, cfg_.scheduled_crash_at);
  }
}

void PbftReplica::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  switch (timer_id) {
    case kStatusTimer: {
      Status st;
      st.view = view_;
      st.replica = ctx.self();
      st.last_exec = last_exec_;
      st.stable_seq = stable_seq_;
      st.n_pending = static_cast<std::int32_t>(pending_.size());
      broadcast(ctx, st.encode());
      ctx.set_timer(kStatusTimer, cfg_.status_period);
      break;
    }
    case kProgressTimer: {
      // No progress on a known request within the recovery timeout: demand a
      // view change (paper: the systems' 5 s recovery timers).
      progress_timer_armed_ = false;
      if (pending_.empty()) break;
      in_view_change_ = true;
      const std::uint32_t target = view_ + 1;
      ViewChange vc;
      vc.new_view = target;
      vc.replica = ctx.self();
      vc.stable_seq = stable_seq_;
      vc.n_prepared = static_cast<std::int32_t>(
          std::count_if(log_.begin(), log_.end(), [](const auto& kv) {
            return kv.second.prepare_sent && !kv.second.executed;
          }));
      vc.n_checkpoints = 1;
      vc.proof = Bytes(32, 0x7e);
      vc_votes_[target].insert(ctx.self());
      broadcast(ctx, vc.encode());
      arm_progress_timer(ctx);  // re-demand if the view change stalls
      break;
    }
    case kScheduledCrashTimer:
      // Benign fault injection (used by scenario variants that need recovery
      // traffic): behave like a process kill.
      throw vm::GuestFault("scheduled benign crash (scenario fault schedule)");
  }
}

void PbftReplica::arm_progress_timer(vm::GuestContext& ctx) {
  if (progress_timer_armed_) return;
  ctx.set_timer(kProgressTimer, cfg_.progress_timeout);
  progress_timer_armed_ = true;
}

void PbftReplica::on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) {
  wire::MessageReader r(msg);
  switch (r.tag()) {
    case kRequest: handle_request(ctx, src, r); break;
    case kPrePrepare: handle_pre_prepare(ctx, src, r); break;
    case kPrepare: handle_prepare(ctx, src, r); break;
    case kCommit: handle_commit(ctx, src, r); break;
    case kCheckpoint: handle_checkpoint(ctx, src, r); break;
    case kStatus: handle_status(ctx, src, r); break;
    case kViewChange: handle_view_change(ctx, src, r); break;
    case kNewView: handle_new_view(ctx, src, r); break;
    default:
      break;  // replicas ignore client-bound Reply and unknown traffic
  }
}

void PbftReplica::handle_request(vm::GuestContext& ctx, NodeId /*src*/,
                                 wire::MessageReader& r) {
  const Request req = Request::decode(r);
  charge_verify(ctx, cfg_);
  const auto key = std::make_pair(req.client, req.timestamp);
  const auto done = executed_ts_.find(req.client);
  if (done != executed_ts_.end() && done->second >= req.timestamp)
    return;  // already executed; client will match earlier replies

  auto [it, fresh] = pending_.emplace(key, PendingRequest{req.payload, false});
  if (primary_of(view_) == ctx.self() && !in_view_change_) {
    if (!it->second.proposed) {
      it->second.proposed = true;
      propose(ctx, req.client, req.timestamp, req.payload);
    } else {
      // Retransmitted request for an in-flight proposal: re-send the stored
      // Pre-Prepare so backups that missed it can catch up.
      for (auto& [seq, e] : log_) {
        if (e.client == req.client && e.timestamp == req.timestamp &&
            !e.executed) {
          PrePrepare pp;
          pp.view = e.view;
          pp.seq = seq;
          pp.primary = ctx.self();
          pp.batch_size = 1;
          pp.digest = e.digest;
          pp.payload = e.payload;
          broadcast(ctx, pp.encode());
          break;
        }
      }
    }
  } else if (fresh) {
    // Backup: relay to the primary and start the progress timer — the
    // mechanism that evicts a primary that drops requests on the floor.
    charge_mac(ctx, cfg_);
    ctx.send(primary_of(view_), Request{req.client, req.timestamp, req.payload}
                                    .encode());
    arm_progress_timer(ctx);
  }
}

void PbftReplica::propose(vm::GuestContext& ctx, std::uint32_t client,
                          std::uint64_t timestamp, const Bytes& payload) {
  const std::uint64_t seq = next_seq_++;
  // The pre-prepare carries the full signed request so backups learn the
  // client identity (they must reply directly to the client).
  const Bytes request_bytes = Request{client, timestamp, payload}.encode();
  LogEntry& e = log_[seq];
  e.view = view_;
  e.digest = request_digest(client, timestamp, payload);
  e.payload = request_bytes;
  e.client = client;
  e.timestamp = timestamp;
  e.pre_prepared = true;
  e.prepare_sent = true;  // the primary's pre-prepare stands in for a prepare
  e.prepares.insert(ctx.self());

  PrePrepare pp;
  pp.view = view_;
  pp.seq = seq;
  pp.primary = ctx.self();
  pp.batch_size = 1;
  pp.digest = e.digest;
  pp.payload = request_bytes;
  broadcast(ctx, pp.encode());
}

void PbftReplica::handle_pre_prepare(vm::GuestContext& ctx, NodeId src,
                                     wire::MessageReader& r) {
  const PrePrepare pp = PrePrepare::decode(r);
  charge_verify(ctx, cfg_);
  if (pp.view != view_ || src != primary_of(view_) || in_view_change_) return;
  if (pp.seq <= stable_seq_) return;

  // THE BUG UNDER TEST: the batch size is trusted from the wire. A negative
  // or absurd value reproduces the original's segfault (paper: "the
  // implementation trusts that these values will always be positive and does
  // no error checking before utilizing the values").
  std::vector<Bytes> batch_digests;
  batch_digests.resize(unchecked_length(pp.batch_size));

  LogEntry& e = log_[pp.seq];
  if (e.pre_prepared) {
    // Duplicate pre-prepare: the sender may have missed our Prepare —
    // rebroadcast it (rate-limited).
    if (e.digest == pp.digest && e.prepare_sent &&
        (e.last_prepare_resend < 0 ||
         ctx.now() - e.last_prepare_resend >= kResendInterval)) {
      e.last_prepare_resend = ctx.now();
      Prepare p;
      p.view = e.view;
      p.seq = pp.seq;
      p.replica = ctx.self();
      p.digest = e.digest;
      broadcast(ctx, p.encode());
    }
    return;
  }

  e.view = pp.view;
  e.digest = pp.digest;
  e.payload = pp.payload;
  e.pre_prepared = true;
  // Backups learn the request (and the client to reply to) from the bundled
  // request bytes, track it as pending, and arm the progress timer so a
  // primary cannot stall silently afterwards.
  if (!pp.payload.empty()) {
    wire::MessageReader req_reader(pp.payload);
    if (req_reader.tag() == kRequest) {
      const Request req = Request::decode(req_reader);
      e.client = req.client;
      e.timestamp = req.timestamp;
      const auto done = executed_ts_.find(req.client);
      if (done == executed_ts_.end() || done->second < req.timestamp) {
        pending_.try_emplace({req.client, req.timestamp},
                             PendingRequest{req.payload, true});
      }
    }
  }
  arm_progress_timer(ctx);
  maybe_send_prepare(ctx, pp.seq);
}

void PbftReplica::maybe_send_prepare(vm::GuestContext& ctx, std::uint64_t seq) {
  LogEntry& e = log_[seq];
  if (!e.pre_prepared || e.prepare_sent) return;
  if (primary_of(view_) == ctx.self()) return;  // primary never sends Prepare
  e.prepare_sent = true;
  e.prepares.insert(ctx.self());
  Prepare p;
  p.view = e.view;
  p.seq = seq;
  p.replica = ctx.self();
  p.digest = e.digest;
  broadcast(ctx, p.encode());
  maybe_send_commit(ctx, seq);
}

void PbftReplica::handle_prepare(vm::GuestContext& ctx, NodeId src,
                                 wire::MessageReader& r) {
  const Prepare p = Prepare::decode(r);
  charge_verify(ctx, cfg_);
  if (p.view != view_) return;
  LogEntry& e = log_[p.seq];
  if (!e.prepares.insert(src)) {
    // Duplicate prepare: peer may have missed our Commit — resend it
    // (rate-limited), the catch-up path duplicate storms ride on.
    if (e.commit_sent && (e.last_commit_resend < 0 ||
                          ctx.now() - e.last_commit_resend >= kResendInterval)) {
      e.last_commit_resend = ctx.now();
      Commit c;
      c.view = e.view;
      c.seq = p.seq;
      c.replica = ctx.self();
      c.digest = e.digest;
      broadcast(ctx, c.encode());
    }
    return;
  }
  maybe_send_commit(ctx, p.seq);
}

void PbftReplica::maybe_send_commit(vm::GuestContext& ctx, std::uint64_t seq) {
  LogEntry& e = log_[seq];
  if (!e.pre_prepared || e.commit_sent) return;
  // Prepared: pre-prepare plus 2f prepares (self counts once it sent one).
  if (e.prepares.size() < 2 * cfg_.f) return;
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

void PbftReplica::handle_commit(vm::GuestContext& ctx, NodeId src,
                                wire::MessageReader& r) {
  const Commit c = Commit::decode(r);
  charge_verify(ctx, cfg_);
  if (c.view != view_) return;
  LogEntry& e = log_[c.seq];
  if (!e.commits.insert(src)) return;  // duplicate: cost only
  try_execute(ctx);
}

void PbftReplica::try_execute(vm::GuestContext& ctx) {
  for (;;) {
    auto it = log_.find(last_exec_ + 1);
    if (it == log_.end()) return;
    LogEntry& e = it->second;
    if (e.executed) {
      ++last_exec_;
      continue;
    }
    if (!e.commit_sent || e.commits.size() < cfg_.quorum()) return;
    // Execute and reply.
    e.executed = true;
    ++last_exec_;
    ctx.consume_cpu(10 * kMicrosecond);  // state-machine apply
    if (e.timestamp != 0) {
      executed_ts_[e.client] = std::max(executed_ts_[e.client], e.timestamp);
      pending_.erase({e.client, e.timestamp});
      Reply rep;
      rep.view = view_;
      rep.timestamp = e.timestamp;
      rep.client = e.client;
      rep.replica = ctx.self();
      rep.result = Bytes{1};
      charge_mac(ctx, cfg_);
      ctx.send(e.client, rep.encode());
    }
    // Progress made: re-arm (or clear) the recovery timer.
    ctx.cancel_timer(kProgressTimer);
    progress_timer_armed_ = false;
    if (!pending_.empty()) arm_progress_timer(ctx);

    if (last_exec_ % cfg_.checkpoint_interval == 0) {
      Checkpoint cp;
      cp.seq = last_exec_;
      cp.replica = ctx.self();
      cp.state_digest = Bytes(8, static_cast<std::uint8_t>(last_exec_));
      checkpoint_votes_[last_exec_].insert(ctx.self());
      broadcast(ctx, cp.encode());
    }
  }
}

void PbftReplica::handle_checkpoint(vm::GuestContext& ctx, NodeId src,
                                    wire::MessageReader& r) {
  const Checkpoint cp = Checkpoint::decode(r);
  charge_verify(ctx, cfg_);
  auto& votes = checkpoint_votes_[cp.seq];
  if (!votes.insert(src)) return;
  if (votes.size() >= cfg_.quorum() && cp.seq > stable_seq_) {
    stable_seq_ = cp.seq;
    // Garbage-collect the log below the stable checkpoint.
    log_.erase(log_.begin(), log_.lower_bound(stable_seq_ + 1));
    checkpoint_votes_.erase(checkpoint_votes_.begin(),
                            checkpoint_votes_.lower_bound(cp.seq));
  }
}

void PbftReplica::handle_status(vm::GuestContext& ctx, NodeId src,
                                wire::MessageReader& r) {
  const Status st = Status::decode(r);
  charge_verify(ctx, cfg_);

  // THE BUG UNDER TEST: the appended-pending-entries count is trusted.
  std::vector<std::uint64_t> pending_entries;
  pending_entries.resize(unchecked_length(st.n_pending));

  if (st.last_exec >= last_exec_ && st.stable_seq >= stable_seq_) {
    // Peer is current; nothing to retransmit. But if the peer reports pending
    // requests while we make no progress, make sure our recovery timer runs.
    if (st.n_pending > 0 && !pending_.empty()) arm_progress_timer(ctx);
    return;
  }
  retransmit_to(ctx, src, st.last_exec);
}

void PbftReplica::retransmit_to(vm::GuestContext& ctx, NodeId peer,
                                std::uint64_t their_last_exec) {
  // Paper §V-B (Delay Status): a stale Status makes the receiver believe the
  // sender is behind and retransmit everything it might be missing — each
  // retransmission paying the per-destination authenticator cost. Beyond the
  // gap limit the receiver sends its stable checkpoint instead.
  const std::uint64_t gap =
      last_exec_ > their_last_exec ? last_exec_ - their_last_exec : 0;
  if (gap > cfg_.retransmit_gap_limit) {
    Checkpoint cp;
    cp.seq = stable_seq_;
    cp.replica = ctx.self();
    cp.state_digest = Bytes(8, static_cast<std::uint8_t>(stable_seq_));
    charge_mac(ctx, cfg_);
    ctx.send(peer, cp.encode());
    return;
  }
  // Retransmit stored protocol messages above the peer's execution point,
  // including in-flight (not yet executed) entries so a stalled round can
  // recover via a peer's log. Bounded by the gap limit — a forged giant
  // sequence number cannot turn this into an unbounded scan.
  std::uint32_t sent = 0;
  for (auto it = log_.upper_bound(their_last_exec);
       it != log_.end() && sent < cfg_.retransmit_gap_limit; ++it, ++sent) {
    const std::uint64_t seq = it->first;
    const LogEntry& e = it->second;
    if (e.pre_prepared) {
      PrePrepare pp;
      pp.view = e.view;
      pp.seq = seq;
      pp.primary = primary_of(e.view);
      pp.batch_size = 1;
      pp.digest = e.digest;
      pp.payload = e.payload;
      charge_mac(ctx, cfg_);
      ctx.send(peer, pp.encode());
    }
    if (e.commit_sent) {
      Commit c;
      c.view = e.view;
      c.seq = seq;
      c.replica = ctx.self();
      c.digest = e.digest;
      charge_mac(ctx, cfg_);
      ctx.send(peer, c.encode());
    }
  }
}

void PbftReplica::handle_view_change(vm::GuestContext& ctx, NodeId src,
                                     wire::MessageReader& r) {
  const ViewChange vc = ViewChange::decode(r);
  charge_verify(ctx, cfg_);

  // THE BUGS UNDER TEST (paper: two View-Change fields crash all replicas).
  std::vector<std::uint64_t> prepared_proofs;
  prepared_proofs.resize(unchecked_length(vc.n_prepared));
  std::vector<std::uint64_t> checkpoint_proofs;
  checkpoint_proofs.resize(unchecked_length(vc.n_checkpoints));

  if (vc.new_view <= view_) return;
  auto& votes = vc_votes_[vc.new_view];
  if (!votes.insert(src)) return;

  // Join a view change the quorum is demanding even if our own timer has not
  // fired (f+1 rule), and complete it as the new primary on 2f votes.
  if (votes.size() >= cfg_.f + 1 && !in_view_change_) {
    in_view_change_ = true;
    ViewChange mine;
    mine.new_view = vc.new_view;
    mine.replica = ctx.self();
    mine.stable_seq = stable_seq_;
    mine.n_prepared = 0;
    mine.n_checkpoints = 1;
    mine.proof = Bytes(32, 0x7e);
    votes.insert(ctx.self());
    broadcast(ctx, mine.encode());
  }
  if (primary_of(vc.new_view) == ctx.self() && votes.size() >= 2 * cfg_.f) {
    NewView nv;
    nv.view = vc.new_view;
    nv.primary = ctx.self();
    nv.n_view_changes = static_cast<std::int32_t>(votes.size());
    nv.proof = Bytes(32, 0x7f);
    broadcast(ctx, nv.encode());
    enter_view(ctx, vc.new_view);
  }
}

void PbftReplica::handle_new_view(vm::GuestContext& ctx, NodeId src,
                                  wire::MessageReader& r) {
  const NewView nv = NewView::decode(r);
  charge_verify(ctx, cfg_);

  // THE BUG UNDER TEST (paper: Zyzzyva/PBFT New-View size field crashes).
  std::vector<std::uint64_t> bundled;
  bundled.resize(unchecked_length(nv.n_view_changes));

  if (nv.view <= view_ || src != primary_of(nv.view)) return;
  enter_view(ctx, nv.view);
}

void PbftReplica::enter_view(vm::GuestContext& ctx, std::uint32_t new_view) {
  view_ = new_view;
  in_view_change_ = false;
  vc_votes_.erase(vc_votes_.begin(), vc_votes_.upper_bound(new_view));

  // Drop uncommitted entries; the new primary re-proposes everything pending.
  for (auto it = log_.begin(); it != log_.end();) {
    if (!it->second.executed && it->first > last_exec_) {
      it = log_.erase(it);
    } else {
      ++it;
    }
  }
  next_seq_ = last_exec_ + 1;
  // Un-propose pending requests so the new primary assigns them fresh seqs.
  for (auto& [key, pr] : pending_) pr.proposed = false;

  if (primary_of(view_) == ctx.self()) {
    for (auto& [key, pr] : pending_) {
      if (!pr.proposed) {
        pr.proposed = true;
        propose(ctx, key.first, key.second, pr.payload);
      }
    }
  }
  ctx.cancel_timer(kProgressTimer);
  progress_timer_armed_ = false;
  if (!pending_.empty()) arm_progress_timer(ctx);
}

void PbftReplica::save(serial::Writer& w) const {
  w.u32(view_);
  w.u64(next_seq_);
  w.u64(last_exec_);
  w.u64(stable_seq_);
  w.boolean(in_view_change_);
  w.boolean(progress_timer_armed_);
  w.u32(static_cast<std::uint32_t>(log_.size()));
  for (const auto& [seq, e] : log_) {
    w.u64(seq);
    e.save(w);
  }
  w.u32(static_cast<std::uint32_t>(pending_.size()));
  for (const auto& [key, pr] : pending_) {
    w.u32(key.first);
    w.u64(key.second);
    w.bytes(pr.payload);
    w.boolean(pr.proposed);
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
  w.u32(static_cast<std::uint32_t>(checkpoint_votes_.size()));
  for (const auto& [seq, votes] : checkpoint_votes_) {
    w.u64(seq);
    w.u32(static_cast<std::uint32_t>(votes.size()));
    for (std::uint32_t x : votes) w.u32(x);
  }
}

void PbftReplica::load(serial::Reader& r) {
  view_ = r.u32();
  next_seq_ = r.u64();
  last_exec_ = r.u64();
  stable_seq_ = r.u64();
  in_view_change_ = r.boolean();
  progress_timer_armed_ = r.boolean();
  log_.clear();
  const std::uint32_t nl = r.u32();
  for (std::uint32_t i = 0; i < nl; ++i) {
    const std::uint64_t seq = r.u64();
    log_.emplace(seq, LogEntry::load(r));
  }
  pending_.clear();
  const std::uint32_t np = r.u32();
  for (std::uint32_t i = 0; i < np; ++i) {
    const std::uint32_t c = r.u32();
    const std::uint64_t t = r.u64();
    PendingRequest pr;
    pr.payload = r.bytes();
    pr.proposed = r.boolean();
    pending_.emplace(std::make_pair(c, t), std::move(pr));
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
  checkpoint_votes_.clear();
  const std::uint32_t ncp = r.u32();
  for (std::uint32_t i = 0; i < ncp; ++i) {
    const std::uint64_t seq = r.u64();
    const std::uint32_t cnt = r.u32();
    auto& s = checkpoint_votes_[seq];
    for (std::uint32_t j = 0; j < cnt; ++j) s.insert(r.u32());
  }
}

}  // namespace turret::systems::pbft
