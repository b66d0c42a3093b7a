// Wire protocol of the distributed search runtime (DESIGN.md §5g).
//
// The coordinator and its workers speak length-prefixed frames over TCP:
//
//   [u32 magic][u8 type][u32 payload_len][payload][u64 checksum]
//
// The checksum covers (type, payload) so a torn or corrupted frame — a worker
// SIGKILLed mid-write, a fault-injected send, a misbehaving middlebox — is
// detected at the parser, never half-consumed. The transport between
// coordinator and workers is itself a faulty channel and is treated as one:
// every defect surfaces as ProtocolError, and the fault injector has sites on
// both directions (dist-send / dist-recv) so tests can drive every failure
// path deterministically.
//
// Framing (encode_frame / FrameParser) is pure buffer manipulation with no
// socket attached, so the truncation/corruption properties are testable
// byte-by-byte. The socket helpers below it are thin EINTR-safe loops.
//
// Like the snapshot format, payload encoding is host-endian (serial::Writer):
// coordinator and workers must run the same build on the same architecture,
// which the Hello handshake's version + scenario fingerprint checks enforce.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/trace.h"
#include "common/types.h"
#include "proxy/action.h"
#include "search/scenario.h"

namespace turret::dist {

/// Any defect of the coordinator↔worker channel: torn frame, bad checksum,
/// socket error, handshake mismatch. The reaction is always the same — drop
/// the connection and let the lease/reconnect machinery recover — so one
/// type covers the whole family.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

enum class FrameType : std::uint8_t {
  kHello = 1,      ///< worker → coordinator: version + scenario fingerprint
  kWelcome = 2,    ///< coordinator → worker: handshake accepted
  kWork = 3,       ///< coordinator → worker: one branch to execute
  kResult = 4,     ///< worker → coordinator: encoded BranchResult
  kHeartbeat = 5,  ///< worker → coordinator: liveness
  kShutdown = 6,   ///< coordinator → worker: clean exit
};

constexpr std::uint32_t kFrameMagic = 0x31464454;  // "TDF1"
constexpr std::uint32_t kMaxFramePayload = 256u << 20;
// v2: ResultMsg carries an optional telemetry CounterSnapshot delta.
// v3: WorkMsg carries no page deltas; the counter frame has 34 rows.
// v4: the counter frame has 30 rows (the prune counters are gone).
constexpr std::uint32_t kProtocolVersion = 4;

struct Frame {
  FrameType type = FrameType::kHello;
  Bytes payload;
};

/// Checksum lane over (type, payload) — Hasher128's low word.
std::uint64_t frame_checksum(FrameType type, BytesView payload);

/// One complete frame, ready to write to a socket.
Bytes encode_frame(FrameType type, BytesView payload);

/// Incremental frame decoder. feed() appends raw socket bytes; next() yields
/// complete frames, returns nullopt while a frame is still partial, and
/// throws ProtocolError on bad magic, unknown type, oversized length, or
/// checksum mismatch — never a crash or a silently half-read frame.
class FrameParser {
 public:
  void feed(BytesView data);
  std::optional<Frame> next();
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  Bytes buf_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Frame payloads. Each is a plain struct with encode()/decode() through
// serial::Writer/Reader; decode() rethrows truncation as ProtocolError.

struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t worker_seed = 0;
  Digest128 scenario{};  ///< scenario_fingerprint() of the worker's scenario

  Bytes encode() const;
  static HelloMsg decode(BytesView payload);
};

struct WelcomeMsg {
  std::uint64_t conn_id = 0;

  Bytes encode() const;
  static WelcomeMsg decode(BytesView payload);
};

/// One work unit: a branch (injection point + optional action + window
/// count) and the snapshot blob it branches from. The blob is shipped only
/// when this connection has not seen it yet — `blob_digest` lets the worker
/// reuse its cached copy ("same blob as last time") and detect misrouting.
struct WorkMsg {
  std::uint64_t unit = 0;  ///< coordinator-assigned id, echoed in ResultMsg

  // InjectionPoint
  std::uint16_t tag = 0;
  std::string message_name;
  Time time = 0;
  std::int32_t windows = 1;

  bool has_action = false;  ///< false = baseline branch
  proxy::MaliciousAction action;

  Digest128 blob_digest{};
  bool has_blob = false;  ///< false: reuse the last blob (digest must match)
  Bytes blob;

  Bytes encode() const;
  static WorkMsg decode(BytesView payload);
};

struct ResultMsg {
  std::uint64_t unit = 0;
  Bytes result;  ///< search::encode_branch_result payload

  /// Telemetry frame (v2): the delta of the worker's trace counters since its
  /// previous result, so the coordinator can fold fleet-wide execution
  /// activity into the global tracer. Shipped only by forked / remote worker
  /// processes — thread-mode workers share the coordinator's tracer and
  /// bump it directly, so shipping a delta there would double-count.
  bool has_telemetry = false;
  trace::CounterSnapshot telemetry;

  Bytes encode() const;
  static ResultMsg decode(BytesView payload);
};

struct HeartbeatMsg {
  std::uint64_t seq = 0;

  Bytes encode() const;
  static HeartbeatMsg decode(BytesView payload);
};

/// Compatibility fingerprint of everything a worker must agree with the
/// coordinator on for its branch executions to be byte-identical: system,
/// seed, fleet size, timing parameters, fault budget, metric.
/// Workers rebuild the Scenario from their own command line (guest factories
/// cannot cross a process boundary), so the handshake verifies the rebuild.
Digest128 scenario_fingerprint(const search::Scenario& sc);

// ---------------------------------------------------------------------------
// Socket helpers: blocking fds, EINTR-safe, MSG_NOSIGNAL writes. All errors
// (including injected dist-send/dist-recv faults) surface as ProtocolError.

/// Connect to host:port. Returns the fd, or -1 on failure (callers back off
/// and retry; connect failure is the expected case while a coordinator is
/// still starting).
int dial(const std::string& host, std::uint16_t port);

/// Listening socket. port 0 binds an ephemeral port (read it back via
/// port()). The listener fd is non-blocking so accept_ready() can be polled.
class Listener {
 public:
  Listener(const std::string& host, std::uint16_t port);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }

  /// Accept one pending connection (blocking fd, TCP_NODELAY), or -1 when
  /// none is pending.
  int accept_ready();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Write one whole frame. Throws ProtocolError on any socket error.
void send_frame(int fd, FrameType type, BytesView payload);

/// Read whatever the socket has into `parser`. Returns false on clean EOF
/// (peer closed), true when bytes were fed. Throws ProtocolError on error.
bool recv_into(int fd, FrameParser& parser);

void close_fd(int fd) noexcept;

}  // namespace turret::dist
