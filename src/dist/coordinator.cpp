#include "dist/coordinator.h"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "common/trace.h"
#include "search/journal.h"
#include "serial/serial.h"

namespace turret::dist {

namespace {

constexpr std::size_t kNoLease = static_cast<std::size_t>(-1);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct Coordinator::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  FrameParser parser;
  bool ready = false;  ///< hello validated, welcome sent
  bool dead = false;   ///< marked for removal at the end of the pump turn
  std::int64_t last_heard_ns = 0;
  bool has_blob = false;
  Digest128 blob_digest{};
  std::size_t lease = kNoLease;  ///< index into Batch::units
  std::uint64_t lease_id = 0;
  std::int64_t lease_start_ns = 0;
};

struct Coordinator::Batch {
  const search::BranchExecutor::InjectionPoint* ip = nullptr;
  int windows = 1;

  struct Unit {
    const proxy::MaliciousAction* action = nullptr;
    enum class State : std::uint8_t { kPending, kLeased, kDone, kAbandoned };
    State state = State::kPending;
    int tries = 0;  ///< lease grants so far
    std::uint64_t id = 0;
    search::BranchExecutor::BranchResult result;
  };
  std::vector<Unit> units;

  Digest128 blob_digest{};
  std::size_t done = 0;
  std::size_t abandoned = 0;

  bool finished() const { return done + abandoned == units.size(); }
};

Coordinator::Coordinator(const search::Scenario& sc,
                         const CoordinatorOptions& opt)
    : sc_(sc),
      opt_(opt),
      listener_(std::make_unique<Listener>(opt.host, opt.port)) {}

Coordinator::~Coordinator() { shutdown(); }

std::uint16_t Coordinator::port() const {
  return listener_ != nullptr ? listener_->port() : 0;
}

std::vector<pid_t> Coordinator::spawn_workers(unsigned n,
                                              const WorkerOptions& wopt) {
  TURRET_CHECK_MSG(listener_ != nullptr, "coordinator already shut down");
  std::vector<pid_t> out;
  const std::uint16_t listen_port = port();
  for (unsigned i = 0; i < n; ++i) {
    WorkerOptions o = wopt;
    o.seed = wopt.seed + (++spawned_);  // distinct reconnect-jitter streams
    // Forked children have their own (copied) tracer, so shipping counter
    // deltas back can never double-count — always report.
    o.report_telemetry = true;
    const pid_t pid = ::fork();
    TURRET_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      // Child: a worker wants none of the coordinator's sockets.
      for (const std::unique_ptr<Conn>& c : conns_) close_fd(c->fd);
      close_fd(listener_->fd());
      int rc = kWorkerDied;
      try {
        rc = run_worker(sc_, opt_.host, listen_port, o);
      } catch (...) {
        rc = 4;
      }
      ::_exit(rc);
    }
    pids_.push_back(pid);
    out.push_back(pid);
  }
  return out;
}

bool Coordinator::wait_for_workers(std::size_t n, std::int64_t timeout_ns) {
  const std::int64_t start = now_ns();
  for (;;) {
    if (connected_workers() >= n) return true;
    if (now_ns() - start > timeout_ns) return false;
    pump(10, nullptr);
  }
}

std::size_t Coordinator::connected_workers() {
  accept_pending();
  pump(0, nullptr);
  std::size_t ready = 0;
  for (const std::unique_ptr<Conn>& c : conns_) {
    if (c->ready) ++ready;
  }
  return ready;
}

bool Coordinator::available() {
  if (listener_ == nullptr) return false;
  accept_pending();
  return !conns_.empty();
}

void Coordinator::shutdown() {
  for (const std::unique_ptr<Conn>& c : conns_) {
    try {
      send_frame(c->fd, FrameType::kShutdown, Bytes{});
    } catch (const ProtocolError&) {
      // Already gone; reaping below copes either way.
    }
    close_fd(c->fd);
  }
  conns_.clear();
  // Closing the listener resets any connection still queued in its backlog,
  // so a worker mid-reconnect fails fast instead of waiting on a welcome
  // that will never come.
  listener_.reset();
  for (const pid_t pid : pids_) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  pids_.clear();
}

void Coordinator::accept_pending() {
  if (listener_ == nullptr) return;
  for (;;) {
    const int fd = listener_->accept_ready();
    if (fd < 0) break;
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_heard_ns = now_ns();
    conns_.push_back(std::move(conn));
  }
}

void Coordinator::mark_dead(Conn& conn, Batch* batch, const char* why) {
  if (conn.dead) return;
  conn.dead = true;
  TLOG_INFO("coordinator: worker %llu lost (%s)",
            static_cast<unsigned long long>(conn.id), why);
  trace::add(trace::Counter::dist_worker_deaths);
  if (conn.ready) alive_workers_.fetch_sub(1, std::memory_order_relaxed);
  close_fd(conn.fd);
  conn.fd = -1;
  if (batch != nullptr && conn.lease != kNoLease) {
    Batch::Unit& unit = batch->units[conn.lease];
    if (unit.state == Batch::Unit::State::kLeased) {
      if (unit.tries > opt_.max_lease_retries) {
        // This unit has now out-lived max_lease_retries + 1 workers: poison
        // it instead of feeding it a fresh one. The executor quarantines the
        // poison result through the normal FailedBranch path.
        unit.state = Batch::Unit::State::kAbandoned;
        unit.result = search::BranchExecutor::BranchResult{};
        unit.result.outcome.reset();
        unit.result.attempts =
            static_cast<std::uint32_t>(std::max(1, unit.tries));
        unit.result.error =
            "distributed: worker died executing this branch (" +
            std::to_string(unit.tries) + " lease(s) spent)";
        ++batch->abandoned;
      } else {
        unit.state = Batch::Unit::State::kPending;
        trace::add(trace::Counter::dist_reassignments);
      }
    }
  }
  conn.lease = kNoLease;
}

bool Coordinator::send_unit(Conn& conn, Batch& batch, std::size_t unit_index) {
  Batch::Unit& unit = batch.units[unit_index];
  WorkMsg msg;
  msg.unit = next_unit_id_++;
  msg.tag = batch.ip->tag;
  msg.message_name = batch.ip->message_name;
  msg.time = batch.ip->time;
  msg.windows = batch.windows;
  msg.has_action = unit.action != nullptr;
  if (unit.action != nullptr) msg.action = *unit.action;
  msg.blob_digest = batch.blob_digest;
  msg.has_blob = !(conn.has_blob && conn.blob_digest == batch.blob_digest);
  if (msg.has_blob) msg.blob = *batch.ip->snapshot;
  try {
    send_frame(conn.fd, FrameType::kWork, msg.encode());
  } catch (const ProtocolError& e) {
    mark_dead(conn, &batch, e.what());
    return false;
  }
  // The connection now durably holds everything the message shipped.
  conn.has_blob = true;
  conn.blob_digest = batch.blob_digest;
  ++unit.tries;
  unit.id = msg.unit;
  unit.state = Batch::Unit::State::kLeased;
  conn.lease = unit_index;
  conn.lease_id = msg.unit;
  conn.lease_start_ns = now_ns();
  trace::add(trace::Counter::dist_units_sent);
  if (journal_ != nullptr) {
    // Audit trail only: grants are journaled under a non-branch key, so
    // --resume loads but never replays them. Completions are the ordinary
    // branch-result records the executor appends at merge.
    serial::Writer w;
    w.u64(msg.unit);
    w.str(search::BranchExecutor::branch_key(*batch.ip, unit.action,
                                             batch.windows));
    w.u64(conn.id);
    w.u32(static_cast<std::uint32_t>(unit.tries));
    journal_->append("dist|grant", w.take());
  }
  return true;
}

void Coordinator::assign_units(Batch& batch) {
  for (const std::unique_ptr<Conn>& c : conns_) {
    if (!c->ready || c->dead || c->lease != kNoLease) continue;
    // Lowest pending index first: not required for determinism (the merge is
    // input-order regardless) but it keeps grant journals readable.
    std::size_t next = kNoLease;
    for (std::size_t u = 0; u < batch.units.size(); ++u) {
      if (batch.units[u].state == Batch::Unit::State::kPending) {
        next = u;
        break;
      }
    }
    if (next == kNoLease) return;
    send_unit(*c, batch, next);
  }
}

void Coordinator::handle_frame(Conn& conn, const Frame& frame, Batch* batch) {
  conn.last_heard_ns = now_ns();
  switch (frame.type) {
    case FrameType::kHello: {
      const HelloMsg hello = HelloMsg::decode(frame.payload);
      if (hello.version != kProtocolVersion) {
        mark_dead(conn, batch, "protocol version mismatch");
        return;
      }
      if (!(hello.scenario == scenario_fingerprint(sc_))) {
        mark_dead(conn, batch, "scenario fingerprint mismatch");
        return;
      }
      WelcomeMsg welcome;
      welcome.conn_id = conn.id;
      try {
        send_frame(conn.fd, FrameType::kWelcome, welcome.encode());
      } catch (const ProtocolError& e) {
        mark_dead(conn, batch, e.what());
        return;
      }
      conn.ready = true;
      ++workers_seen_;
      alive_workers_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    case FrameType::kHeartbeat:
      trace::add(trace::Counter::dist_heartbeats);
      return;
    case FrameType::kResult: {
      if (batch == nullptr || conn.lease == kNoLease) return;  // stale
      try {
        const ResultMsg msg = ResultMsg::decode(frame.payload);
        if (msg.unit != conn.lease_id) return;  // stale (reassigned earlier)
        Batch::Unit& unit = batch->units[conn.lease];
        unit.result = search::decode_branch_result(msg.result);
        unit.state = Batch::Unit::State::kDone;
        ++batch->done;
        conn.lease = kNoLease;
        trace::add(trace::Counter::dist_units_merged);
        if (msg.has_telemetry) merge_telemetry(conn.id, msg.telemetry);
      } catch (const std::exception& e) {
        // Garbage from a worker is indistinguishable from a dying worker:
        // drop it and let the lease machinery re-place the unit.
        mark_dead(conn, batch, e.what());
      }
      return;
    }
    default:
      // Workers have no business sending Work/Welcome/Shutdown; treat it as
      // a corrupted peer.
      mark_dead(conn, batch, "unexpected frame from worker");
      return;
  }
}

void Coordinator::merge_telemetry(std::uint64_t conn_id,
                                  const trace::CounterSnapshot& delta) {
  // Execution-site counters (the counter table's execution-site rows):
  // in-process runs count these while executing the branch; remote runs
  // must therefore fold the worker's counts back in for the stats block to
  // stay byte-identical at any worker count. Each unit is merged exactly
  // once (stale duplicates were filtered by the caller), and branch
  // execution is deterministic, so the folded totals equal the in-process
  // ones. Process-local caches (decode_*, hash_*) stay out: the coordinator
  // decodes result blobs itself either way, so merging the worker's cache
  // traffic would inflate, not complete, the totals. dist_bytes_* merge too
  // — transport totals are fleet-block-only, and the fleet wants both
  // directions of every socket counted.
  for (const trace::CounterRow& row : trace::kCounterRows) {
    if (row.execution_site) trace::add(row.id, delta.*row.value);
  }

  search::WorkerTelemetry& w = worker_stats_[conn_id];
  w.worker = conn_id;
  ++w.units;
  trace::counter_accumulate(w.counters, delta);
}

void Coordinator::fill_fleet(search::TelemetrySnapshot& t) const {
  t.workers = workers_seen_;
  t.per_worker.clear();
  t.per_worker.reserve(worker_stats_.size());
  for (const auto& [id, w] : worker_stats_) t.per_worker.push_back(w);
}

void Coordinator::pump(int timeout_ms, Batch* batch) {
  if (listener_ == nullptr) return;
  accept_pending();

  std::vector<pollfd> fds;
  fds.reserve(conns_.size() + 1);
  fds.push_back({listener_->fd(), POLLIN, 0});
  for (const std::unique_ptr<Conn>& c : conns_) {
    fds.push_back({c->fd, POLLIN, 0});
  }
  int rc = ::poll(fds.data(), fds.size(), timeout_ms);
  if (rc < 0 && errno != EINTR) {
    throw ProtocolError(std::string("poll: ") + std::strerror(errno));
  }

  if ((fds[0].revents & POLLIN) != 0) accept_pending();
  // conns_ may grow during iteration (accepts above), never shrink: dead
  // connections are only marked here and erased after the loop.
  const std::size_t n = std::min(conns_.size(), fds.size() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    Conn& conn = *conns_[i];
    if (conn.dead || fds[i + 1].fd != conn.fd) continue;
    if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    try {
      if (!recv_into(conn.fd, conn.parser)) {
        mark_dead(conn, batch, "eof");
        continue;
      }
      while (std::optional<Frame> f = conn.parser.next()) {
        handle_frame(conn, *f, batch);
        if (conn.dead) break;
      }
    } catch (const ProtocolError& e) {
      mark_dead(conn, batch, e.what());
    }
  }

  // Deadline supervision: a leased worker must deliver or heartbeat; a fresh
  // connection must complete its handshake.
  const std::int64_t now = now_ns();
  for (const std::unique_ptr<Conn>& c : conns_) {
    if (c->dead) continue;
    if (c->lease != kNoLease) {
      const std::int64_t anchor = std::max(c->last_heard_ns, c->lease_start_ns);
      if (now - anchor > opt_.heartbeat_timeout_ns) {
        mark_dead(*c, batch, "heartbeat deadline");
      }
    } else if (!c->ready && now - c->last_heard_ns > opt_.heartbeat_timeout_ns) {
      mark_dead(*c, batch, "handshake deadline");
    }
  }

  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const std::unique_ptr<Conn>& c) {
                                return c->dead;
                              }),
               conns_.end());
}

std::vector<std::optional<search::BranchExecutor::BranchResult>>
Coordinator::run_remote(const search::BranchExecutor::InjectionPoint& ip,
                        const std::vector<const proxy::MaliciousAction*>& actions,
                        const std::vector<std::size_t>& live, int windows) {
  std::vector<std::optional<search::BranchExecutor::BranchResult>> out(
      live.size());
  if (listener_ == nullptr || ip.snapshot == nullptr) return out;

  Batch batch;
  batch.ip = &ip;
  batch.windows = windows;
  batch.units.resize(live.size());
  for (std::size_t k = 0; k < live.size(); ++k) {
    batch.units[k].action = actions[live[k]];
  }
  {
    Hasher128 h;
    h.update(BytesView(*ip.snapshot));
    batch.blob_digest = h.digest();
  }

  while (!batch.finished()) {
    assign_units(batch);
    if (conns_.empty()) break;  // nobody left: degrade the rest to local
    pump(opt_.poll_interval_ms, &batch);
  }

  for (std::size_t k = 0; k < batch.units.size(); ++k) {
    const Batch::Unit& unit = batch.units[k];
    if (unit.state == Batch::Unit::State::kDone ||
        unit.state == Batch::Unit::State::kAbandoned) {
      out[k] = unit.result;
    }
    // kPending (never placed) stays nullopt → the executor runs it locally.
  }
  return out;
}

}  // namespace turret::dist
