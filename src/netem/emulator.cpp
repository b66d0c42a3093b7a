#include "netem/emulator.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/fault.h"

namespace turret::netem {

// ---------------------------------------------------------------------------
// Packet / Event serialization
// ---------------------------------------------------------------------------

void Packet::save(serial::Writer& w) const {
  w.u32(src);
  w.u32(dst);
  w.u64(msg_id);
  w.u16(frag_index);
  w.u16(frag_count);
  w.u32(msg_bytes);
  w.bytes(payload);
}

Packet Packet::load(serial::Reader& r) {
  Packet p;
  p.src = r.u32();
  p.dst = r.u32();
  p.msg_id = r.u64();
  p.frag_index = r.u16();
  p.frag_count = r.u16();
  p.msg_bytes = r.u32();
  p.payload = r.bytes();
  return p;
}

void Event::save(serial::Writer& w) const {
  w.i64(at);
  w.u64(seq);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(node);
  w.u64(a);
  w.u64(b);
  packet.save(w);
}

Event Event::load(serial::Reader& r) {
  Event e;
  e.at = r.i64();
  e.seq = r.u64();
  e.kind = static_cast<EventKind>(r.u8());
  e.node = r.u32();
  e.a = r.u64();
  e.b = r.u64();
  e.packet = Packet::load(r);
  return e;
}

// ---------------------------------------------------------------------------
// Emulator
// ---------------------------------------------------------------------------

Emulator::Emulator(NetConfig cfg)
    : cfg_(std::move(cfg)), loss_rng_(cfg_.seed ^ 0x6e65746e656d75ull) {
  TURRET_CHECK_MSG(cfg_.nodes > 0, "emulator needs at least one node");
  TURRET_CHECK(cfg_.mtu >= 64);
  links_.resize(static_cast<std::size_t>(cfg_.nodes) * cfg_.nodes);
  resolved_links_.assign(links_.size(), cfg_.default_link);
  for (const auto& [key, spec] : cfg_.link_overrides) {
    const NodeId src = static_cast<NodeId>(key >> 32);
    const NodeId dst = static_cast<NodeId>(key & 0xffffffffu);
    if (src < cfg_.nodes && dst < cfg_.nodes)
      resolved_links_[static_cast<std::size_t>(src) * cfg_.nodes + dst] = spec;
  }
  devices_.reserve(cfg_.nodes);
  for (NodeId i = 0; i < cfg_.nodes; ++i)
    devices_.push_back(make_device(cfg_.device, cfg_.nodes));
  if (cfg_.capture.enabled)
    recorder_ = std::make_unique<FlightRecorder>(cfg_.capture, cfg_.nodes);
}

/// Snaplen-truncated copy of a payload head for the flight recorder. Copying
/// the full payload and letting record() truncate made armed recorders pay a
/// whole-message copy per record; this caps the copy at snaplen bytes.
Bytes Emulator::snap_head(BytesView payload) const {
  const std::size_t n =
      std::min<std::size_t>(payload.size(), recorder_->spec().snaplen);
  return Bytes(payload.begin(), payload.begin() + n);
}

template <typename FillPacket>
void Emulator::push_event(Time at, EventKind kind, NodeId node, std::uint64_t a,
                          std::uint64_t b, FillPacket&& fill_packet) {
  queue_.push_with([&](Event& e) {
    e.at = at;
    e.seq = next_seq_++;
    e.kind = kind;
    e.node = node;
    e.a = a;
    e.b = b;
    fill_packet(e.packet);
  });
}

void Emulator::push_event(Time at, EventKind kind, NodeId node, std::uint64_t a,
                          std::uint64_t b) {
  push_event(at, kind, node, a, b, [](Packet&) {});
}

void Emulator::send_message(NodeId src, NodeId dst, MessageBuf message) {
  TURRET_CHECK(src < cfg_.nodes && dst < cfg_.nodes);
  ++stats_.messages_sent;
  // Senders the interceptor does not claim skip it: their message goes out
  // unchanged, as a pass-through delivery would have sent it.
  if (proxy_ != nullptr && proxy_->intercepts(src)) {
    auto deliveries = proxy_->on_send(now_, src, dst, message);
    if (deliveries.empty()) {
      ++stats_.messages_dropped_by_proxy;
      if (recorder_ != nullptr) {
        PacketRecord rec;
        rec.t = now_;
        rec.src = src;
        rec.dst = dst;
        rec.size = static_cast<std::uint32_t>(message.size());
        rec.disposition = PacketDisposition::kProxyDropped;
        rec.head = snap_head(message);
        recorder_->record(std::move(rec));
      }
      return;
    }
    for (auto& d : deliveries) {
      TURRET_CHECK(d.dst < cfg_.nodes);
      if (d.delay > 0) {
        // Hold the message in the proxy; a kProxyRelease event re-enters the
        // send path later. Normally it bypasses the interceptor (the action
        // was already applied once); a reintercept hold presents it again.
        if (recorder_ != nullptr) {
          PacketRecord rec;
          rec.t = now_;
          rec.src = src;
          rec.dst = d.dst;
          rec.size = static_cast<std::uint32_t>(d.message.size());
          rec.disposition = PacketDisposition::kProxyHeld;
          rec.delay = d.delay;
          rec.head = snap_head(d.message);
          recorder_->record(std::move(rec));
        }
        push_event(now_ + d.delay, EventKind::kProxyRelease, d.dst,
                   d.reintercept ? 1 : 0, 0, [&](Packet& held) {
                     held.src = src;
                     held.dst = d.dst;
                     held.frag_count = 0;  // marker: carries a whole message
                     held.msg_bytes =
                         static_cast<std::uint32_t>(d.message.size());
                     held.payload = std::move(d.message);
                   });
      } else {
        transmit(src, d.dst, std::move(d.message));
      }
    }
    return;
  }
  transmit(src, dst, std::move(message));
}

void Emulator::transmit(NodeId src, NodeId dst, MessageBuf message) {
  const LinkSpec& spec = link_spec(src, dst);
  if (!spec.up) {  // partitioned: silently dropped, like a dead cable
    if (recorder_ != nullptr) {
      PacketRecord rec;
      rec.t = now_;
      rec.src = src;
      rec.dst = dst;
      rec.size = static_cast<std::uint32_t>(message.size());
      rec.disposition = PacketDisposition::kPartitioned;
      rec.head = snap_head(message);
      recorder_->record(std::move(rec));
    }
    return;
  }

  const std::uint64_t msg_id = next_msg_id_++;
  const std::size_t total = message.size();
  const std::size_t mtu = cfg_.mtu;
  const std::uint16_t frag_count =
      static_cast<std::uint16_t>(total == 0 ? 1 : (total + mtu - 1) / mtu);

  LinkState& link = links_[static_cast<std::size_t>(src) * cfg_.nodes + dst];
  Time cursor = std::max(now_, link.busy_until);
  std::uint16_t lost_count = 0;

  for (std::uint16_t i = 0; i < frag_count; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * mtu;
    const std::size_t len = std::min(mtu, total - off);

    // Bandwidth serialization at the sender NIC, then propagation.
    const double bits = static_cast<double>(len + kPacketOverhead) * 8.0;
    const auto ser = static_cast<Duration>(bits / spec.bandwidth_bps * kSecond);
    cursor += std::max<Duration>(ser, 1);

    const bool lost =
        spec.loss_rate > 0 && loss_rng_.next_bool(spec.loss_rate);
    if (recorder_ != nullptr) {
      PacketRecord rec;
      rec.t = now_;
      rec.src = src;
      rec.dst = dst;
      rec.msg_id = msg_id;
      rec.frag_index = i;
      rec.frag_count = frag_count;
      rec.size = static_cast<std::uint32_t>(len);
      rec.disposition =
          lost ? PacketDisposition::kLost : PacketDisposition::kSent;
      if (!lost) rec.delay = cursor + spec.delay - now_;
      rec.head = snap_head(message.span().subspan(off, len));
      recorder_->record(std::move(rec));
    }
    if (lost) {
      ++stats_.packets_lost;
      ++lost_count;
      continue;
    }
    push_event(cursor + spec.delay, EventKind::kPacketDeliver, dst, 0, 0,
               [&](Packet& p) {
                 p.src = src;
                 p.dst = dst;
                 p.msg_id = msg_id;
                 p.frag_index = i;
                 p.frag_count = frag_count;
                 p.msg_bytes = static_cast<std::uint32_t>(total);
                 // A whole message moves in; fragments are zero-copy MTU
                 // slices of it.
                 p.payload = frag_count == 1 ? std::move(message)
                                             : message.view(off, len);
               });
  }
  link.busy_until = cursor;

  // A partially lost fragmented message can never complete: its surviving
  // fragments would sit in reassembly_ forever (and ride every snapshot).
  // Reap the entry just after the last surviving fragment could have landed.
  // Loss-free runs schedule nothing, so their event sequence is unchanged.
  if (frag_count > 1 && lost_count > 0 && lost_count < frag_count) {
    push_event(cursor + spec.delay + 1, EventKind::kReassemblyExpire, dst,
               msg_id, 0);
  }
}

void Emulator::schedule(Duration delay, EventKind kind, NodeId node,
                        std::uint64_t a, std::uint64_t b) {
  TURRET_CHECK(delay >= 0);
  push_event(now_ + delay, kind, node, a, b);
}

bool Emulator::step() {
  if (frozen_ || queue_.empty()) return false;
  if (event_budget_ != 0 && ++budget_used_ > event_budget_) {
    throw BudgetExceededError(
        "emulator event budget exceeded: " + std::to_string(event_budget_) +
        " events processed at " + format_time(now_));
  }
  // Dispatch inside the queue node; it is recycled afterwards, even when
  // dispatch throws.
  queue_.pop_with([this](Event& ev) {
    TURRET_CHECK_MSG(ev.at >= now_, "event scheduled in the past");
    now_ = ev.at;
    dispatch(ev);
  });
  return true;
}

void Emulator::run_until(Time t) {
  while (!frozen_ && !queue_.empty() && queue_.peek_time() <= t) {
    step();
  }
  if (!frozen_ && now_ < t) now_ = t;
}

void Emulator::dispatch(Event& ev) {
  fault::inject(fault::kEmuDispatch);
  ++stats_.events_processed;  // after the fault site: a faulted event never ran
  switch (ev.kind) {
    case EventKind::kPacketDeliver:
      deliver_packet(ev.packet);
      break;
    case EventKind::kProxyRelease:
      if (ev.a == 1 && proxy_ != nullptr) {
        // A held-for-reinterception message: run it through the (possibly
        // re-armed) proxy as if it were being sent now.
        send_message(ev.packet.src, ev.packet.dst,
                     std::move(ev.packet.payload));
      } else {
        transmit(ev.packet.src, ev.packet.dst, std::move(ev.packet.payload));
      }
      break;
    case EventKind::kReassemblyExpire:
      // Internal housekeeping; never reaches the sink. The entry may already
      // be gone (every surviving fragment was rejected by the device).
      if (reassembly_.erase(ev.a)) ++stats_.reassembly_evicted;
      break;
    case EventKind::kTimer:
    case EventKind::kHandlerDone:
    case EventKind::kControl:
      if (sink_ != nullptr) sink_->on_event(ev);
      break;
  }
}

MessageBuf Emulator::reassemble(const Reassembly& re) const {
  // Zero-copy rejoin: every fragment still views the sender's buffer at its
  // original MTU offset, so the whole message is one window of that buffer.
  const std::size_t base = re.frags[0].offset();
  bool shared = re.frags[0].buffer_size() >= base + re.msg_bytes;
  for (std::size_t i = 1; shared && i < re.frags.size(); ++i) {
    shared = re.frags[i].same_buffer(re.frags[0]) &&
             re.frags[i].offset() == base + i * cfg_.mtu;
  }
  if (shared) return re.frags[0].rebase(base, re.msg_bytes);

  // Mixed parentage (e.g. fragments materialized independently): one copy.
  Bytes data(re.msg_bytes);
  for (std::size_t i = 0; i < re.frags.size(); ++i) {
    std::memcpy(data.data() + i * cfg_.mtu, re.frags[i].data(),
                re.frags[i].size());
  }
  return MessageBuf(std::move(data));
}

void Emulator::deliver_packet(Packet& p) {
  NetDevice& dev = *devices_[p.dst];
  const Duration dev_latency = dev.receive(p);
  if (recorder_ != nullptr) {
    PacketRecord rec;
    rec.t = now_;
    rec.src = p.src;
    rec.dst = p.dst;
    rec.msg_id = p.msg_id;
    rec.frag_index = p.frag_index;
    rec.frag_count = p.frag_count;
    rec.size = static_cast<std::uint32_t>(p.payload.size());
    rec.disposition = dev_latency < 0 ? PacketDisposition::kRejected
                                      : PacketDisposition::kDelivered;
    recorder_->record(std::move(rec));
  }
  if (dev_latency < 0) return;  // device rejected the frame
  ++stats_.packets_delivered;

  if (p.frag_count == 1) {
    ++stats_.messages_delivered;
    if (sink_ != nullptr)
      sink_->on_message(p.dst, p.src, std::move(p.payload));
    return;
  }

  Reassembly& re = reassembly_.get_or_insert(p.msg_id);
  if (re.frags.empty()) {
    re.msg_bytes = p.msg_bytes;
    re.frags.resize(p.frag_count);
    re.have.assign(p.frag_count, false);
  }
  if (re.have[p.frag_index]) return;  // duplicate fragment
  re.have[p.frag_index] = true;
  re.frags[p.frag_index] = std::move(p.payload);  // keep the view; no copy
  ++re.received;
  if (re.received == p.frag_count) {
    MessageBuf whole = reassemble(re);
    reassembly_.erase(p.msg_id);
    ++stats_.messages_delivered;
    if (sink_ != nullptr) sink_->on_message(p.dst, p.src, std::move(whole));
  }
}

// ---------------------------------------------------------------------------
// save / load
// ---------------------------------------------------------------------------

Bytes Emulator::materialize_reassembly(const Reassembly& re) const {
  Bytes data(re.msg_bytes, 0);
  for (std::size_t i = 0; i < re.frags.size(); ++i) {
    if (!re.have[i]) continue;
    std::memcpy(data.data() + i * cfg_.mtu, re.frags[i].data(),
                re.frags[i].size());
  }
  return data;
}

std::vector<std::uint64_t> Emulator::sorted_reassembly_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(reassembly_.size());
  reassembly_.for_each(
      [&ids](std::uint64_t id, const Reassembly&) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

void Emulator::save(serial::Writer& w) const {
  w.i64(now_);
  w.boolean(frozen_);
  w.u64(next_seq_);
  w.u64(next_msg_id_);
  // Canonical (at, seq) order: a pure function of the queue's content, so
  // identical states produce identical blobs regardless of push history or
  // calendar geometry.
  const std::vector<const Event*> events = queue_.sorted();
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const Event* e : events) e->save(w);
  w.vec(links_, [](serial::Writer& ww, const LinkState& l) {
    ww.i64(l.busy_until);
  });
  const std::vector<std::uint64_t> ids = sorted_reassembly_ids();
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const std::uint64_t id : ids) {
    const Reassembly& re = *reassembly_.find(id);
    w.u64(id);
    w.u32(re.received);
    w.bytes(materialize_reassembly(re));
    w.u32(static_cast<std::uint32_t>(re.have.size()));
    for (bool h : re.have) w.boolean(h);
  }
  std::uint64_t rng_state[4];
  loss_rng_.save_state(rng_state);
  for (std::uint64_t s : rng_state) w.u64(s);
  w.u64(stats_.messages_sent);
  w.u64(stats_.messages_delivered);
  w.u64(stats_.packets_delivered);
  w.u64(stats_.packets_lost);
  w.u64(stats_.messages_dropped_by_proxy);
  w.u64(stats_.events_processed);
  w.u64(stats_.reassembly_evicted);
  // Flight recorder: presence is a function of NetConfig, which save/load
  // pairs must share, so the state is written only when capture is enabled.
  w.boolean(recorder_ != nullptr);
  if (recorder_ != nullptr) recorder_->save(w);
  // Interceptor (malicious proxy) state rides inside the emulator section so
  // a restored branch rewinds proxy counters and audit log along with the
  // network. Length-prefixed: a loader without an interceptor skips it.
  w.boolean(proxy_ != nullptr);
  if (proxy_ != nullptr) {
    serial::Writer pw;
    proxy_->save_state(pw);
    w.bytes(pw.data());
  }
}

void Emulator::load(serial::Reader& r) {
  now_ = r.i64();
  frozen_ = r.boolean();
  next_seq_ = r.u64();
  next_msg_id_ = r.u64();
  queue_.clear();
  const std::uint32_t n_events = r.u32();
  for (std::uint32_t i = 0; i < n_events; ++i) queue_.push(Event::load(r));
  auto links = r.vec<LinkState>([](serial::Reader& rr) {
    LinkState l;
    l.busy_until = rr.i64();
    return l;
  });
  TURRET_CHECK_MSG(links.size() == links_.size(),
                   "snapshot topology does not match emulator config");
  links_ = std::move(links);
  reassembly_.clear();
  const std::uint32_t n_re = r.u32();
  for (std::uint32_t i = 0; i < n_re; ++i) {
    const std::uint64_t id = r.u64();
    Reassembly re;
    re.received = r.u32();
    // One owned buffer for the whole message; present fragments become views
    // of it, so a post-restore completion still rejoins without a copy.
    MessageBuf whole(r.bytes());
    re.msg_bytes = static_cast<std::uint32_t>(whole.size());
    const std::uint32_t nh = r.u32();
    re.frags.resize(nh);
    re.have.resize(nh);
    for (std::uint32_t j = 0; j < nh; ++j) {
      const bool h = r.boolean();
      re.have[j] = h;
      if (h) {
        const std::size_t off = static_cast<std::size_t>(j) * cfg_.mtu;
        re.frags[j] =
            whole.view(off, std::min(cfg_.mtu, whole.size() - off));
      }
    }
    reassembly_.get_or_insert(id) = std::move(re);
  }
  std::uint64_t rng_state[4];
  for (std::uint64_t& s : rng_state) s = r.u64();
  loss_rng_.load_state(rng_state);
  stats_.messages_sent = r.u64();
  stats_.messages_delivered = r.u64();
  stats_.packets_delivered = r.u64();
  stats_.packets_lost = r.u64();
  stats_.messages_dropped_by_proxy = r.u64();
  stats_.events_processed = r.u64();
  stats_.reassembly_evicted = r.u64();
  const bool has_capture = r.boolean();
  TURRET_CHECK_MSG(has_capture == (recorder_ != nullptr),
                   "snapshot capture state does not match emulator config");
  if (recorder_ != nullptr) recorder_->load(r);
  if (r.boolean()) {
    const Bytes state = r.bytes();
    if (proxy_ != nullptr) {
      serial::Reader pr(state);
      proxy_->load_state(pr);
    }
  }
}

}  // namespace turret::netem
