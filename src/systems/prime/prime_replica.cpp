#include "systems/prime/prime_replica.h"

#include <algorithm>

#include "common/hash.h"
#include "systems/replication/crypto.h"
#include "systems/replication/faults.h"

namespace turret::systems::prime {

void PrimeReplica::broadcast(vm::GuestContext& ctx, Bytes msg) {
  charge_sign(ctx, cfg_.base);
  const MessageBuf shared(std::move(msg));  // one buffer for every peer
  for (NodeId r = 0; r < n(); ++r) {
    if (r == ctx.self()) continue;
    charge_mac(ctx, cfg_.base);
    ctx.send_shared(r, shared);
  }
}

Bytes PrimeReplica::encode_vector() const {
  Bytes v(po_received_.size() * 8);
  for (std::size_t o = 0; o < po_received_.size(); ++o) {
    for (int i = 0; i < 8; ++i)
      v[o * 8 + i] = static_cast<std::uint8_t>(po_received_[o] >> (8 * i));
  }
  return v;
}

void PrimeReplica::start(vm::GuestContext& ctx) {
  po_received_.assign(n(), 0);
  executed_po_.assign(n(), 0);
  summaries_.assign(n(), std::vector<std::uint64_t>(n(), 0));
  ctx.set_timer(kSummaryTimer,
                cfg_.summary_period + ctx.self() * 3 * kMillisecond);
  if (leader_of(view_) == ctx.self())
    ctx.set_timer(kPrePrepareTimer, cfg_.pre_prepare_period);
  ctx.set_timer(kTatTimer, cfg_.tat_timeout);
}

void PrimeReplica::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  switch (timer_id) {
    case kSummaryTimer: {
      // Advertise this replica's pre-ordered coverage. The leader's own view
      // is updated locally (it does not message itself).
      summaries_[ctx.self()] = po_received_;
      POSummary s;
      s.replica = ctx.self();
      s.n_entries = static_cast<std::int32_t>(n());
      s.vector = encode_vector();
      broadcast(ctx, s.encode());
      ctx.set_timer(kSummaryTimer, cfg_.summary_period);
      break;
    }
    case kPrePrepareTimer: {
      if (leader_of(view_) == ctx.self()) {
        // Embed the current summary matrix; send whenever there is anything
        // not yet globally ordered so ordering keeps pace with pre-ordering.
        Bytes matrix;
        for (std::uint32_t r = 0; r < n(); ++r) {
          for (std::uint32_t o = 0; o < n(); ++o) {
            const std::uint64_t v = summaries_[r][o];
            for (int i = 0; i < 8; ++i)
              matrix.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
          }
        }
        PrePrepare pp;
        pp.view = view_;
        pp.seq = next_seq_++;
        pp.leader = ctx.self();
        pp.n_rows = static_cast<std::int32_t>(n());
        pp.matrix = matrix;
        Round& round = rounds_[pp.seq];
        round.matrix = matrix;
        round.prepare_sent = true;
        round.prepares.insert(ctx.self());
        broadcast(ctx, pp.encode());
      }
      ctx.set_timer(kPrePrepareTimer, cfg_.pre_prepare_period);
      break;
    }
    case kTatTimer: {
      // Suspect-leader: if ordering traffic stopped while pre-ordered work is
      // waiting, demand a new leader. A leader that keeps emitting
      // Pre-Prepares — even useless ones — passes this check, which is
      // exactly the monitoring gap the paper's sequence-lie attack rides.
      bool waiting = false;
      for (std::uint32_t o = 0; o < n(); ++o) {
        if (po_received_[o] > executed_po_[o]) waiting = true;
      }
      if (waiting && !fresh_pre_prepare_ && leader_of(view_) != ctx.self()) {
        NewLeader nl;
        nl.new_view = view_ + 1;
        nl.replica = ctx.self();
        nl.n_proofs = 1;
        suspicion_votes_[nl.new_view].insert(ctx.self());
        broadcast(ctx, nl.encode());
      }
      fresh_pre_prepare_ = false;
      ctx.set_timer(kTatTimer, cfg_.tat_timeout);
      break;
    }
  }
}

void PrimeReplica::on_message(vm::GuestContext& ctx, NodeId src, BytesView msg) {
  wire::MessageReader r(msg);
  switch (r.tag()) {
    case kUpdate: handle_update(ctx, r); break;
    case kPORequest: handle_po_request(ctx, src, r); break;
    case kPOAck: handle_po_ack(ctx, r); break;
    case kPOSummary: handle_po_summary(ctx, src, r); break;
    case kPrePrepare: handle_pre_prepare(ctx, src, r); break;
    case kPrepare: handle_prepare(ctx, src, r); break;
    case kCommit: handle_commit(ctx, src, r); break;
    case kNewLeader: handle_new_leader(ctx, src, r); break;
    default: break;
  }
}

void PrimeReplica::handle_update(vm::GuestContext& ctx, wire::MessageReader& r) {
  const Update up = Update::decode(r);
  charge_verify(ctx, cfg_.base);
  const auto done = executed_ts_.find(up.client);
  if (done != executed_ts_.end() && done->second >= up.timestamp) return;
  // This replica is the origin: pre-order the update.
  PORequest po;
  po.origin = ctx.self();
  po.po_seq = ++my_po_seq_;
  po.update = up.encode();
  po_requests_[{ctx.self(), po.po_seq}] = po.update;
  po_received_[ctx.self()] = std::max(po_received_[ctx.self()], my_po_seq_);
  broadcast(ctx, po.encode());
}

void PrimeReplica::handle_po_request(vm::GuestContext& ctx, NodeId src,
                                     wire::MessageReader& r) {
  const PORequest po = PORequest::decode(r);
  charge_verify(ctx, cfg_.base);
  if (po.origin != src || po.origin >= n()) return;
  po_requests_[{po.origin, po.po_seq}] = po.update;
  // Advance the contiguous cursor.
  auto& cursor = po_received_[po.origin];
  while (po_requests_.count({po.origin, cursor + 1})) ++cursor;

  POAck ack;
  ack.origin = po.origin;
  ack.po_seq = po.po_seq;
  ack.replica = ctx.self();
  charge_mac(ctx, cfg_.base);
  ctx.send(src, ack.encode());
}

void PrimeReplica::handle_po_ack(vm::GuestContext& ctx, wire::MessageReader& r) {
  const POAck ack = POAck::decode(r);
  charge_verify(ctx, cfg_.base);
  if (ack.origin != ctx.self()) return;
  po_acks_[ack.po_seq].insert(ack.replica);
  // 2f acks + self certify the update; certification is implicit in the
  // summary vector (the origin's own row).
}

void PrimeReplica::handle_po_summary(vm::GuestContext& ctx, NodeId src,
                                     wire::MessageReader& r) {
  const POSummary s = POSummary::decode(r);
  charge_verify(ctx, cfg_.base);

  // THE BUG UNDER TEST: entry count trusted from the wire.
  std::vector<std::uint64_t> scratch;
  scratch.resize(unchecked_length(s.n_entries));

  if (src >= n() || s.vector.size() < static_cast<std::size_t>(n()) * 8) return;
  for (std::uint32_t o = 0; o < n(); ++o) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | s.vector[o * 8 + i];
    summaries_[src][o] = std::max(summaries_[src][o], v);
  }
}

void PrimeReplica::handle_pre_prepare(vm::GuestContext& ctx, NodeId src,
                                      wire::MessageReader& r) {
  const PrePrepare pp = PrePrepare::decode(r);
  charge_verify(ctx, cfg_.base);
  if (pp.view != view_ || src != leader_of(view_)) return;

  // THE BUG UNDER TEST.
  std::vector<std::uint64_t> rows;
  rows.resize(unchecked_length(pp.n_rows));

  // The TAT monitor only asks "did a newer Pre-Prepare arrive?" — a forged
  // sequence number satisfies it without advancing ordering.
  if (pp.seq > last_pp_seq_) {
    last_pp_seq_ = pp.seq;
    fresh_pre_prepare_ = true;
  }

  Round& round = rounds_[pp.seq];
  if (round.prepare_sent) return;
  round.matrix = pp.matrix;
  round.prepare_sent = true;
  round.prepares.insert(ctx.self());

  Prepare p;
  p.view = view_;
  p.seq = pp.seq;
  p.replica = ctx.self();
  p.digest = Bytes(8, static_cast<std::uint8_t>(fnv1a(pp.matrix)));
  broadcast(ctx, p.encode());
}

void PrimeReplica::handle_prepare(vm::GuestContext& ctx, NodeId src,
                                  wire::MessageReader& r) {
  const Prepare p = Prepare::decode(r);
  charge_verify(ctx, cfg_.base);
  if (p.view != view_) return;
  Round& round = rounds_[p.seq];
  if (!round.prepares.insert(src)) return;
  if (round.prepare_sent && !round.commit_sent &&
      round.prepares.size() >= 2 * cfg_.base.f + 1) {
    round.commit_sent = true;
    round.commits.insert(ctx.self());
    Commit c;
    c.view = view_;
    c.seq = p.seq;
    c.replica = ctx.self();
    c.digest = p.digest;
    broadcast(ctx, c.encode());
    advance_committed(ctx);
  }
}

void PrimeReplica::handle_commit(vm::GuestContext& ctx, NodeId src,
                                 wire::MessageReader& r) {
  const Commit c = Commit::decode(r);
  charge_verify(ctx, cfg_.base);
  if (c.view != view_) return;
  Round& round = rounds_[c.seq];
  if (!round.commits.insert(src)) return;
  advance_committed(ctx);
}

void PrimeReplica::advance_committed(vm::GuestContext& ctx) {
  // Global ordering is contiguous: advance the cursor over every round that
  // has reached its commit quorum, executing as we go.
  for (;;) {
    auto it = rounds_.find(expected_seq_);
    if (it == rounds_.end() || it->second.committed ||
        !it->second.prepare_sent ||
        it->second.commits.size() < cfg_.base.quorum()) {
      break;
    }
    it->second.committed = true;
    ++expected_seq_;
    try_execute(ctx);
  }
  // Rounds below the last committed one are no longer needed.
  if (expected_seq_ >= 2)
    rounds_.erase(rounds_.begin(), rounds_.lower_bound(expected_seq_ - 1));
}

void PrimeReplica::try_execute(vm::GuestContext& ctx) {
  // Execute every update the last committed matrix makes eligible.
  const auto it = rounds_.find(expected_seq_ - 1);
  if (it == rounds_.end() || !it->second.committed) return;
  const Bytes& matrix = it->second.matrix;
  if (matrix.size() < static_cast<std::size_t>(n()) * n() * 8) return;

  auto matrix_at = [&](std::uint32_t row, std::uint32_t origin) {
    std::uint64_t v = 0;
    const std::size_t off = (static_cast<std::size_t>(row) * n() + origin) * 8;
    for (int i = 7; i >= 0; --i) v = (v << 8) | matrix[off + i];
    return v;
  };

  for (std::uint32_t o = 0; o < n(); ++o) {
    // THE BUG UNDER TEST (paper: "a quorum could not be formed even if one
    // existed"): eligibility takes the minimum over ALL n rows, so one
    // replica withholding PO-Summaries pins every origin's cursor at its
    // stale row. The correct rule is the (2f+1)-th highest row.
    std::uint64_t eligible = ~0ull;
    for (std::uint32_t row = 0; row < n(); ++row)
      eligible = std::min(eligible, matrix_at(row, o));

    while (executed_po_[o] < eligible) {
      const std::uint64_t p = executed_po_[o] + 1;
      auto req = po_requests_.find({o, p});
      if (req == po_requests_.end()) break;  // do not skip holes
      executed_po_[o] = p;
      ++executed_total_;
      ctx.consume_cpu(10 * kMicrosecond);
      wire::MessageReader rr(req->second);
      if (rr.tag() == kUpdate) {
        const Update up = Update::decode(rr);
        executed_ts_[up.client] = std::max(executed_ts_[up.client], up.timestamp);
        Reply rep;
        rep.timestamp = up.timestamp;
        rep.client = up.client;
        rep.replica = ctx.self();
        rep.result = Bytes{1};
        charge_mac(ctx, cfg_.base);
        ctx.send(up.client, rep.encode());
      }
    }
  }
}

void PrimeReplica::handle_new_leader(vm::GuestContext& ctx, NodeId src,
                                     wire::MessageReader& r) {
  const NewLeader nl = NewLeader::decode(r);
  charge_verify(ctx, cfg_.base);

  // THE BUG UNDER TEST.
  std::vector<std::uint64_t> proofs;
  proofs.resize(unchecked_length(nl.n_proofs));

  if (nl.new_view <= view_) return;
  auto& votes = suspicion_votes_[nl.new_view];
  if (!votes.insert(src)) return;
  if (votes.size() >= cfg_.base.f + 1) {
    view_ = nl.new_view;
    suspicion_votes_.erase(suspicion_votes_.begin(),
                           suspicion_votes_.upper_bound(view_));
    // Reset per-view ordering state; the new leader restarts from a fresh
    // sequence range above anything seen.
    next_seq_ = last_pp_seq_ + 1;
    expected_seq_ = last_pp_seq_ + 1;
    rounds_.clear();
    fresh_pre_prepare_ = true;  // grace period for the new leader
    if (leader_of(view_) == ctx.self())
      ctx.set_timer(kPrePrepareTimer, cfg_.pre_prepare_period);
  }
}

void PrimeReplica::save(serial::Writer& w) const {
  w.u32(view_);
  w.u64(my_po_seq_);
  w.u32(static_cast<std::uint32_t>(po_requests_.size()));
  for (const auto& [k, v] : po_requests_) {
    w.u32(k.first);
    w.u64(k.second);
    w.bytes(v);
  }
  w.u32(static_cast<std::uint32_t>(po_acks_.size()));
  for (const auto& [seq, acks] : po_acks_) {
    w.u64(seq);
    w.u32(static_cast<std::uint32_t>(acks.size()));
    for (std::uint32_t a : acks) w.u32(a);
  }
  w.vec(po_received_, [](serial::Writer& ww, std::uint64_t v) { ww.u64(v); });
  w.u32(static_cast<std::uint32_t>(summaries_.size()));
  for (const auto& row : summaries_)
    w.vec(row, [](serial::Writer& ww, std::uint64_t v) { ww.u64(v); });
  w.u64(next_seq_);
  w.u64(last_pp_seq_);
  w.u64(expected_seq_);
  w.u32(static_cast<std::uint32_t>(rounds_.size()));
  for (const auto& [seq, round] : rounds_) {
    w.u64(seq);
    w.bytes(round.matrix);
    w.u32(static_cast<std::uint32_t>(round.prepares.size()));
    for (std::uint32_t x : round.prepares) w.u32(x);
    w.u32(static_cast<std::uint32_t>(round.commits.size()));
    for (std::uint32_t x : round.commits) w.u32(x);
    w.boolean(round.prepare_sent);
    w.boolean(round.commit_sent);
    w.boolean(round.committed);
  }
  w.vec(executed_po_, [](serial::Writer& ww, std::uint64_t v) { ww.u64(v); });
  w.u64(executed_total_);
  w.u32(static_cast<std::uint32_t>(executed_ts_.size()));
  for (const auto& [c, t] : executed_ts_) {
    w.u32(c);
    w.u64(t);
  }
  w.boolean(fresh_pre_prepare_);
  w.u32(static_cast<std::uint32_t>(suspicion_votes_.size()));
  for (const auto& [v, votes] : suspicion_votes_) {
    w.u32(v);
    w.u32(static_cast<std::uint32_t>(votes.size()));
    for (std::uint32_t x : votes) w.u32(x);
  }
}

void PrimeReplica::load(serial::Reader& r) {
  view_ = r.u32();
  my_po_seq_ = r.u64();
  po_requests_.clear();
  const std::uint32_t npr = r.u32();
  for (std::uint32_t i = 0; i < npr; ++i) {
    const std::uint32_t o = r.u32();
    const std::uint64_t p = r.u64();
    po_requests_[{o, p}] = r.bytes();
  }
  po_acks_.clear();
  const std::uint32_t na = r.u32();
  for (std::uint32_t i = 0; i < na; ++i) {
    const std::uint64_t seq = r.u64();
    const std::uint32_t cnt = r.u32();
    auto& s = po_acks_[seq];
    for (std::uint32_t j = 0; j < cnt; ++j) s.insert(r.u32());
  }
  po_received_ = r.vec<std::uint64_t>([](serial::Reader& rr) { return rr.u64(); });
  summaries_.clear();
  const std::uint32_t ns = r.u32();
  for (std::uint32_t i = 0; i < ns; ++i)
    summaries_.push_back(
        r.vec<std::uint64_t>([](serial::Reader& rr) { return rr.u64(); }));
  next_seq_ = r.u64();
  last_pp_seq_ = r.u64();
  expected_seq_ = r.u64();
  rounds_.clear();
  const std::uint32_t nr = r.u32();
  for (std::uint32_t i = 0; i < nr; ++i) {
    const std::uint64_t seq = r.u64();
    Round round;
    round.matrix = r.bytes();
    const std::uint32_t np = r.u32();
    for (std::uint32_t j = 0; j < np; ++j) round.prepares.insert(r.u32());
    const std::uint32_t nc = r.u32();
    for (std::uint32_t j = 0; j < nc; ++j) round.commits.insert(r.u32());
    round.prepare_sent = r.boolean();
    round.commit_sent = r.boolean();
    round.committed = r.boolean();
    rounds_.emplace(seq, std::move(round));
  }
  executed_po_ = r.vec<std::uint64_t>([](serial::Reader& rr) { return rr.u64(); });
  executed_total_ = r.u64();
  executed_ts_.clear();
  const std::uint32_t ne = r.u32();
  for (std::uint32_t i = 0; i < ne; ++i) {
    const std::uint32_t c = r.u32();
    executed_ts_[c] = r.u64();
  }
  fresh_pre_prepare_ = r.boolean();
  suspicion_votes_.clear();
  const std::uint32_t nv = r.u32();
  for (std::uint32_t i = 0; i < nv; ++i) {
    const std::uint32_t v = r.u32();
    const std::uint32_t cnt = r.u32();
    auto& s = suspicion_votes_[v];
    for (std::uint32_t j = 0; j < cnt; ++j) s.insert(r.u32());
  }
}

}  // namespace turret::systems::prime
