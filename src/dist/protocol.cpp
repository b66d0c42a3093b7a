#include "dist/protocol.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/trace.h"
#include "serial/serial.h"
#include "vm/pagestore.h"

namespace turret::dist {

namespace {

constexpr std::size_t kHeaderSize = 4 + 1 + 4;   // magic, type, payload_len
constexpr std::size_t kTrailerSize = 8;          // checksum

std::string errno_string(const char* op) {
  return std::string(op) + ": " + std::strerror(errno);
}

template <typename T>
T read_pod(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Payload decode helper: truncated payloads are channel defects, so surface
/// them as ProtocolError like every other torn frame.
template <typename Fn>
auto decode_payload(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const serial::SerialError& e) {
    throw ProtocolError(std::string("truncated ") + what + " payload: " +
                        e.what());
  }
}

}  // namespace

std::uint64_t frame_checksum(FrameType type, BytesView payload) {
  Hasher128 h;
  h.update_u64(static_cast<std::uint64_t>(type));
  h.update(payload);
  return h.digest().lo;
}

Bytes encode_frame(FrameType type, BytesView payload) {
  serial::Writer w;
  w.u32(kFrameMagic);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw_bytes(payload);
  w.u64(frame_checksum(type, payload));
  return w.take();
}

void FrameParser::feed(BytesView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<Frame> FrameParser::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderSize) return std::nullopt;
  const std::uint8_t* p = buf_.data() + pos_;
  const std::uint32_t magic = read_pod<std::uint32_t>(p);
  if (magic != kFrameMagic) throw ProtocolError("bad frame magic");
  const std::uint8_t type = p[4];
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kShutdown)) {
    throw ProtocolError("unknown frame type " + std::to_string(type));
  }
  const std::uint32_t len = read_pod<std::uint32_t>(p + 5);
  if (len > kMaxFramePayload) {
    throw ProtocolError("oversized frame (" + std::to_string(len) + " bytes)");
  }
  if (avail < kHeaderSize + len + kTrailerSize) return std::nullopt;

  Frame f;
  f.type = static_cast<FrameType>(type);
  f.payload.assign(p + kHeaderSize, p + kHeaderSize + len);
  const std::uint64_t want = read_pod<std::uint64_t>(p + kHeaderSize + len);
  if (want != frame_checksum(f.type, f.payload)) {
    throw ProtocolError("frame checksum mismatch");
  }
  pos_ += kHeaderSize + len + kTrailerSize;
  // Compact once the consumed prefix dominates, so long-lived connections
  // don't accrete every frame they ever parsed.
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 20)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return f;
}

// ---------------------------------------------------------------------------
// Payloads

Bytes HelloMsg::encode() const {
  serial::Writer w;
  w.u32(version);
  w.u64(worker_seed);
  w.u64(scenario.hi);
  w.u64(scenario.lo);
  return w.take();
}

HelloMsg HelloMsg::decode(BytesView payload) {
  return decode_payload("hello", [&] {
    serial::Reader r(payload);
    HelloMsg m;
    m.version = r.u32();
    m.worker_seed = r.u64();
    m.scenario.hi = r.u64();
    m.scenario.lo = r.u64();
    return m;
  });
}

Bytes WelcomeMsg::encode() const {
  serial::Writer w;
  w.u64(conn_id);
  return w.take();
}

WelcomeMsg WelcomeMsg::decode(BytesView payload) {
  return decode_payload("welcome", [&] {
    serial::Reader r(payload);
    WelcomeMsg m;
    m.conn_id = r.u64();
    return m;
  });
}

Bytes WorkMsg::encode() const {
  serial::Writer w;
  w.u64(unit);
  w.u16(tag);
  w.str(message_name);
  w.i64(time);
  w.i32(windows);
  w.boolean(has_action);
  if (has_action) action.save(w);
  w.u64(blob_digest.hi);
  w.u64(blob_digest.lo);
  w.boolean(has_blob);
  if (has_blob) w.bytes(blob);
  w.vec(pages, [](serial::Writer& ww, const PageDelta& d) {
    ww.u64(d.hash);
    ww.u32(d.slot);
    ww.bytes(d.content);
  });
  return w.take();
}

WorkMsg WorkMsg::decode(BytesView payload) {
  return decode_payload("work", [&] {
    serial::Reader r(payload);
    WorkMsg m;
    m.unit = r.u64();
    m.tag = r.u16();
    m.message_name = r.str();
    m.time = r.i64();
    m.windows = r.i32();
    m.has_action = r.boolean();
    if (m.has_action) m.action = proxy::MaliciousAction::load(r);
    m.blob_digest.hi = r.u64();
    m.blob_digest.lo = r.u64();
    m.has_blob = r.boolean();
    if (m.has_blob) m.blob = r.bytes();
    m.pages = r.vec<PageDelta>([](serial::Reader& rr) {
      PageDelta d;
      d.hash = rr.u64();
      d.slot = rr.u32();
      d.content = rr.bytes();
      if (d.content.size() != vm::kPageSize) {
        throw ProtocolError("page delta is not one page");
      }
      return d;
    });
    return m;
  });
}

Bytes ResultMsg::encode() const {
  serial::Writer w;
  w.u64(unit);
  w.bytes(result);
  w.boolean(has_telemetry);
  if (has_telemetry) trace::save_counters(telemetry, w);
  return w.take();
}

ResultMsg ResultMsg::decode(BytesView payload) {
  return decode_payload("result", [&] {
    serial::Reader r(payload);
    ResultMsg m;
    m.unit = r.u64();
    m.result = r.bytes();
    m.has_telemetry = r.boolean();
    if (m.has_telemetry) m.telemetry = trace::load_counters(r);
    return m;
  });
}

Bytes HeartbeatMsg::encode() const {
  serial::Writer w;
  w.u64(seq);
  return w.take();
}

HeartbeatMsg HeartbeatMsg::decode(BytesView payload) {
  return decode_payload("heartbeat", [&] {
    serial::Reader r(payload);
    HeartbeatMsg m;
    m.seq = r.u64();
    return m;
  });
}

Digest128 scenario_fingerprint(const search::Scenario& sc) {
  Hasher128 h;
  h.update("turret-dist-scenario-v1");
  h.update(sc.system_name);
  h.update_u64(sc.testbed.seed);
  h.update_u64(static_cast<std::uint64_t>(sc.testbed.net.nodes));
  h.update_u64(static_cast<std::uint64_t>(sc.testbed.snapshot.mode));
  h.update_i64(sc.warmup);
  h.update_i64(sc.duration);
  h.update_i64(sc.window);
  std::uint64_t delta_bits = 0;
  static_assert(sizeof sc.delta == sizeof delta_bits);
  std::memcpy(&delta_bits, &sc.delta, sizeof delta_bits);
  h.update_u64(delta_bits);
  h.update_i64(sc.fault.max_retries);
  h.update_u64(sc.fault.max_branch_events);
  h.update(sc.metric.name);
  h.update_u64(sc.metric.higher_is_better ? 1 : 0);
  // Metric kind + quantile entered the scenario with the percentile metrics
  // layer; a worker computing mean(latency) against a coordinator expecting
  // p99(latency) would merge byte-identical-looking but wrong results.
  h.update_u64(static_cast<std::uint64_t>(sc.metric.kind));
  std::uint64_t quantile_bits = 0;
  static_assert(sizeof sc.metric.quantile == sizeof quantile_bits);
  std::memcpy(&quantile_bits, &sc.metric.quantile, sizeof quantile_bits);
  h.update_u64(quantile_bits);
  for (const NodeId n : sc.malicious) h.update_u64(n);
  // Signed adapter: presence + key seed. Workers derive per-node keys from
  // the seed, so agreeing on it is what makes remote MACs match local ones.
  h.update_u64(sc.signed_adapter ? 1 : 0);
  if (sc.signed_adapter) h.update_u64(sc.signed_adapter->key_seed());
  return h.digest();
}

// ---------------------------------------------------------------------------
// Sockets

int dial(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
      break;
    if (errno == EINTR) continue;
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

Listener::Listener(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw ProtocolError("bad listen address '" + host + "'");
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw ProtocolError(errno_string("socket"));
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = errno_string("bind");
    ::close(fd_);
    fd_ = -1;
    throw ProtocolError(err);
  }
  if (::listen(fd_, 64) != 0) {
    const std::string err = errno_string("listen");
    ::close(fd_);
    fd_ = -1;
    throw ProtocolError(err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const std::string err = errno_string("getsockname");
    ::close(fd_);
    fd_ = -1;
    throw ProtocolError(err);
  }
  port_ = ntohs(bound.sin_port);
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
}

int Listener::accept_ready() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    if (errno == EINTR) continue;
    return -1;  // EAGAIN/EWOULDBLOCK: nothing pending
  }
}

void send_frame(int fd, FrameType type, BytesView payload) {
  try {
    fault::inject(fault::kDistSend);
  } catch (const fault::FaultError& e) {
    // Injected transport faults wear the transport's error type so callers
    // exercise the exact recovery path a real socket failure would take.
    throw ProtocolError(std::string("injected: ") + e.what());
  }
  const Bytes frame = encode_frame(type, payload);
  trace::add(trace::Counter::dist_bytes_sent, frame.size());
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(errno_string("send"));
    }
    off += static_cast<std::size_t>(n);
  }
}

bool recv_into(int fd, FrameParser& parser) {
  try {
    fault::inject(fault::kDistRecv);
  } catch (const fault::FaultError& e) {
    throw ProtocolError(std::string("injected: ") + e.what());
  }
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(errno_string("recv"));
    }
    if (n == 0) return false;
    trace::add(trace::Counter::dist_bytes_recv, static_cast<std::uint64_t>(n));
    parser.feed(BytesView(buf, static_cast<std::size_t>(n)));
    return true;
  }
}

void close_fd(int fd) noexcept {
  if (fd >= 0) ::close(fd);
}

}  // namespace turret::dist
