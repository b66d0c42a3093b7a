#include "dist/worker.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "common/fault.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/trace.h"
#include "dist/protocol.h"
#include "search/executor.h"

namespace turret::dist {

namespace {

enum class ServeEnd {
  kShutdown,  ///< coordinator sent kShutdown: clean exit
  kLost,      ///< connection dropped or protocol error: reconnect
  kDied,      ///< dist-worker-exit fired in thread mode: simulate death
};

/// Block until one complete frame is available on `fd`.
Frame read_frame(int fd, FrameParser& parser) {
  for (;;) {
    if (std::optional<Frame> f = parser.next()) return *std::move(f);
    if (!recv_into(fd, parser)) throw ProtocolError("peer closed");
  }
}

/// One connection's life: handshake, then execute units until shutdown or
/// loss. `exec` outlives connections so its decoded-snapshot cache keeps
/// paying across reconnects.
ServeEnd serve(int fd, const search::Scenario& sc,
               search::BranchExecutor& exec, const WorkerOptions& opt,
               bool* handshaked, trace::CounterSnapshot* telemetry_last) {
  FrameParser parser;
  HelloMsg hello;
  hello.worker_seed = opt.seed;
  hello.scenario = scenario_fingerprint(sc);
  send_frame(fd, FrameType::kHello, hello.encode());
  const Frame welcome = read_frame(fd, parser);
  if (welcome.type != FrameType::kWelcome) {
    throw ProtocolError("expected welcome, got frame type " +
                        std::to_string(static_cast<int>(welcome.type)));
  }
  WelcomeMsg::decode(welcome.payload);
  *handshaked = true;

  // Heartbeats ride a dedicated thread so a long branch execution cannot
  // starve the coordinator's liveness deadline. Socket writes are serialized
  // with result sends; a failed heartbeat just stops the thread — the serve
  // loop notices the dead socket on its own.
  std::mutex send_mu;
  std::atomic<bool> stop{false};
  std::thread beat([&] {
    std::uint64_t seq = 0;
    const auto interval =
        std::chrono::nanoseconds(opt.heartbeat_interval_ns);
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(interval);
      if (stop.load(std::memory_order_relaxed)) break;
      try {
        HeartbeatMsg hb;
        hb.seq = ++seq;
        std::lock_guard<std::mutex> lock(send_mu);
        send_frame(fd, FrameType::kHeartbeat, hb.encode());
      } catch (const ProtocolError&) {
        break;
      }
    }
  });
  struct JoinBeat {
    std::atomic<bool>& stop;
    std::thread& beat;
    ~JoinBeat() {
      stop.store(true, std::memory_order_relaxed);
      if (beat.joinable()) beat.join();
    }
  } join_beat{stop, beat};

  std::shared_ptr<const Bytes> cached_blob;
  Digest128 cached_digest{};

  for (;;) {
    const Frame frame = read_frame(fd, parser);
    if (frame.type == FrameType::kShutdown) return ServeEnd::kShutdown;
    if (frame.type != FrameType::kWork) continue;
    WorkMsg work = WorkMsg::decode(frame.payload);

    // Simulated worker death at unit start: the SIGKILL a chaos test aims
    // mid-branch, made deterministic. _exit skips all cleanup on purpose —
    // the coordinator must cope with a torn connection, not a goodbye.
    try {
      fault::inject(fault::kDistWorkerExit);
    } catch (const fault::FaultError&) {
      if (opt.exit_process_on_fault) ::_exit(9);
      return ServeEnd::kDied;
    }

    if (work.has_blob) {
      cached_blob = std::make_shared<const Bytes>(std::move(work.blob));
      cached_digest = work.blob_digest;
    } else if (cached_blob == nullptr || !(work.blob_digest == cached_digest)) {
      throw ProtocolError(
          "work unit references a snapshot blob this connection never "
          "received");
    }

    search::BranchExecutor::InjectionPoint ip;
    ip.tag = work.tag;
    ip.message_name = work.message_name;
    ip.time = work.time;
    ip.snapshot = cached_blob;
    const search::BranchExecutor::BranchResult r = exec.execute_unit(
        ip, work.has_action ? &work.action : nullptr, work.windows);

    ResultMsg result;
    result.unit = work.unit;
    result.result = search::encode_branch_result(r);
    if (telemetry_last != nullptr) {
      // Attach the counter delta since the previous result. The baseline
      // outlives connections (it lives in run_worker), so activity between a
      // send failure and the reconnect is carried by the next delta rather
      // than lost — though the coordinator only merges deltas of results it
      // actually accepts.
      const trace::CounterSnapshot now = trace::counters().snapshot();
      result.telemetry = trace::counter_delta(now, *telemetry_last);
      result.has_telemetry = true;
      *telemetry_last = now;
    }
    std::lock_guard<std::mutex> lock(send_mu);
    send_frame(fd, FrameType::kResult, result.encode());
  }
}

}  // namespace

int run_worker(const search::Scenario& sc, const std::string& host,
               std::uint16_t port, const WorkerOptions& opt) {
  if (!opt.faults.empty()) {
    fault::FaultInjector::instance().configure_from_spec(opt.faults);
  }
  search::BranchExecutor exec(sc);
  Backoff backoff(opt.reconnect, Rng(opt.seed));
  // Telemetry baseline: deltas are "since the last shipped result", and the
  // baseline survives reconnects so no activity is double-shipped.
  trace::CounterSnapshot telemetry_last;
  const bool report = opt.report_telemetry && trace::active();
  if (report) telemetry_last = trace::counters().snapshot();
  int failures = 0;
  for (;;) {
    const int fd = dial(host, port);
    if (fd < 0) {
      if (++failures > opt.max_reconnects) return kWorkerUnreachable;
      backoff.sleep();
      continue;
    }
    ServeEnd end = ServeEnd::kLost;
    bool handshaked = false;
    try {
      end = serve(fd, sc, exec, opt, &handshaked,
                  report ? &telemetry_last : nullptr);
    } catch (const ProtocolError& e) {
      TLOG_INFO("worker: connection lost: %s", e.what());
    }
    close_fd(fd);
    if (end == ServeEnd::kShutdown) return kWorkerClean;
    if (end == ServeEnd::kDied) return kWorkerDied;
    // A completed handshake proves the coordinator exists and wants us:
    // start the failure budget over instead of bleeding it across the run.
    if (handshaked) {
      failures = 0;
      backoff.reset();
    }
    if (++failures > opt.max_reconnects) return kWorkerUnreachable;
    backoff.sleep();
  }
}

}  // namespace turret::dist
