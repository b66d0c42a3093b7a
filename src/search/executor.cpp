#include "search/executor.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <set>
#include <type_traits>

#include "common/backoff.h"
#include "common/check.h"
#include "common/fault.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "search/journal.h"
#include "search/provenance.h"
#include "serial/serial.h"

namespace turret::search {

namespace {
// Cooperative cancellation flag: set from signal handlers, consumed at batch
// boundaries. Process-wide because signal handlers have no better scope.
std::atomic<bool> g_cancel{false};
}  // namespace

void request_cancel() noexcept {
  g_cancel.store(true, std::memory_order_relaxed);
}

bool cancel_requested() noexcept {
  return g_cancel.load(std::memory_order_relaxed);
}

void clear_cancel() noexcept { g_cancel.store(false, std::memory_order_relaxed); }

AggregateBranchError::AggregateBranchError(
    const std::vector<std::string>& errors)
    : std::runtime_error([&errors] {
        std::string what =
            std::to_string(errors.size()) + " branch error(s):";
        constexpr std::size_t kMaxListed = 8;
        for (std::size_t i = 0; i < errors.size() && i < kMaxListed; ++i) {
          what += "\n  ";
          what += errors[i];
        }
        if (errors.size() > kMaxListed) what += "\n  ...";
        return what;
      }()),
      count_(errors.size()) {}

Bytes encode_branch_result(const BranchExecutor::BranchResult& r) {
  serial::Writer w;
  w.boolean(r.ok());
  w.u32(r.attempts);
  w.str(r.error);
  if (r.ok()) {
    w.vec(r.outcome->windows, [](serial::Writer& ww, const WindowPerf& p) {
      ww.f64(p.value);
      ww.u64(p.samples);
    });
    w.u32(r.outcome->new_crashes);
  }
  // v2 trailer: the deleted branch-equivalence pruning's bookkeeping,
  // written as the constant "not pruned, no link, no fingerprint" so
  // journals and dist result frames keep their format.
  w.boolean(false);
  w.str("");
  w.boolean(false);
  // v3 trailer: per-window tamper counts. Absent in older journals, which
  // predate signed adapters and therefore counted zero tampers.
  if (r.ok()) {
    for (const WindowPerf& p : r.outcome->windows) w.u64(p.tampers);
  }
  // v4 trailer: per-window percentile fields. Absent in journals written
  // before the metrics registry, which reported no percentiles.
  if (r.ok()) {
    for (const WindowPerf& p : r.outcome->windows) {
      w.boolean(p.has_percentiles);
      w.f64(p.p50);
      w.f64(p.p95);
      w.f64(p.p99);
      w.f64(p.p999);
    }
  }
  return w.take();
}

BranchExecutor::BranchResult decode_branch_result(BytesView payload) {
  serial::Reader r(payload);
  BranchExecutor::BranchResult out;
  const bool ok = r.boolean();
  out.attempts = r.u32();
  out.error = r.str();
  if (ok) {
    BranchExecutor::BranchOutcome o;
    o.windows = r.vec<WindowPerf>([](serial::Reader& rr) {
      WindowPerf p;
      p.value = rr.f64();
      p.samples = rr.u64();
      return p;
    });
    o.new_crashes = r.u32();
    out.outcome = std::move(o);
  }
  if (!r.exhausted()) {  // v2 trailer (absent in v1 records): discarded
    r.boolean();
    r.str();
    if (r.boolean()) {
      r.u64();
      r.u64();
    }
  }
  if (!r.exhausted() && out.outcome) {  // v3 trailer (absent in v1/v2 records)
    for (WindowPerf& p : out.outcome->windows) p.tampers = r.u64();
  }
  if (!r.exhausted() && out.outcome) {  // v4 trailer (absent in v1-v3 records)
    for (WindowPerf& p : out.outcome->windows) {
      p.has_percentiles = r.boolean();
      p.p50 = r.f64();
      p.p95 = r.f64();
      p.p99 = r.f64();
      p.p999 = r.f64();
    }
  }
  // Journals and --connect workers' results come from outside the process:
  // a malformed record is bad input, not a platform bug.
  if (!r.exhausted())
    throw serial::SerialError("trailing bytes in branch result record");
  return out;
}

double compute_damage(const MetricSpec& metric, const WindowPerf& base,
                      const WindowPerf& perf) {
  if (metric.higher_is_better) {
    if (base.value <= 0) return 0;
    return (base.value - perf.value) / base.value;
  }
  // Lower is better (latency): a window that completed nothing is the worst
  // possible outcome, not a zero-latency miracle.
  if (perf.samples == 0 && base.samples > 0) return 1.0;
  if (base.value <= 0) return 0;
  return (perf.value - base.value) / base.value;
}

BranchExecutor::BranchExecutor(const Scenario& sc) : sc_(sc) {
  TURRET_CHECK_MSG(sc.schema != nullptr, "scenario needs a wire schema");
  TURRET_CHECK_MSG(sc.factory != nullptr, "scenario needs a guest factory");
  TURRET_CHECK_MSG(!sc.malicious.empty(), "scenario needs malicious nodes");
}

BranchExecutor::~BranchExecutor() {
  for (auto& [key, p] : in_flight_) {
    Claim queued = Claim::kQueued;
    p.state->compare_exchange_strong(queued, Claim::kSkipped);
  }
  pool_.reset();  // skipped tasks return at once; running ones finish
}

namespace {

ScenarioWorld::Stats world_stats(const ScenarioWorld& w) {
  return {w.testbed->emulator().stats(), w.proxy->stats()};
}

/// Content digest of ip.snapshot; nullopt for a cold point. Keys the
/// decoded-snapshot cache and the memo.
std::optional<Digest128> content_of(
    const BranchExecutor::InjectionPoint& ip) {
  if (ip.snapshot == nullptr) return std::nullopt;
  Hasher128 hasher;
  hasher.update(BytesView{*ip.snapshot});
  return hasher.digest();
}

}  // namespace

ScenarioWorld::~ScenarioWorld() {
  if (!entry || testbed == nullptr || !trace::active()) return;
  const Stats now = world_stats(*this);
  trace::add(trace::Counter::emu_events,
             now.emu.events_processed - entry->emu.events_processed);
  trace::add(trace::Counter::reassembly_evicted,
             now.emu.reassembly_evicted - entry->emu.reassembly_evicted);
  trace::add(trace::Counter::proxy_observed,
             now.proxy.observed - entry->proxy.observed);
  trace::add(trace::Counter::proxy_injected,
             now.proxy.injected - entry->proxy.injected);
}

ScenarioWorld make_scenario_world(const Scenario& sc,
                                  const runtime::DecodedSnapshot* snap) {
  ScenarioWorld w;
  w.testbed = std::make_unique<runtime::Testbed>(sc.testbed, sc.factory);
  w.proxy = std::make_unique<proxy::MaliciousProxy>(*sc.schema, sc.malicious,
                                                    sc.testbed.net.nodes);
  w.testbed->emulator().set_interceptor(w.proxy.get());
  if (sc.signed_adapter) w.proxy->set_signed_adapter(sc.signed_adapter.get());
  if (sc.testbed.net.capture.enabled)
    w.proxy->enable_audit(sc.testbed.net.capture.audit_capacity);
  if (snap != nullptr) w.testbed->load_snapshot(*snap);
  w.entry = world_stats(w);
  return w;
}

WindowPerf measure_window(const MetricSpec& metric, const runtime::Testbed& tb,
                          Time t0, Time t1) {
  WindowPerf out;
  if (metric.kind == MetricSpec::Kind::kRate) {
    out.value = tb.metrics().rate(metric.name, t0, t1);
    out.samples =
        static_cast<std::uint64_t>(tb.metrics().total(metric.name, t0, t1));
  } else {
    const runtime::SeriesSummary s = tb.metrics().summary(metric.name, t0, t1);
    out.samples = s.count;
    const metrics::Histogram h =
        tb.metrics().window_histogram(metric.name, t0, t1);
    if (h.total() > 0) {
      out.has_percentiles = true;
      out.p50 = metrics::quantile_value(h, 0.50);
      out.p95 = metrics::quantile_value(h, 0.95);
      out.p99 = metrics::quantile_value(h, 0.99);
      out.p999 = metrics::quantile_value(h, 0.999);
    }
    out.value = metric.kind == MetricSpec::Kind::kQuantile
                    ? metrics::quantile_value(h, metric.quantile)
                    : s.mean();
  }
  out.tampers =
      static_cast<std::uint64_t>(tb.metrics().total(kTamperMetric, t0, t1));
  return out;
}

WindowPerf BranchExecutor::measure(const runtime::Testbed& tb, Time t0,
                                   Time t1) const {
  return measure_window(sc_.metric, tb, t0, t1);
}

const std::vector<BranchExecutor::InjectionPoint>& BranchExecutor::discover() {
  if (points_) return *points_;
  points_.emplace();

  ScenarioWorld w = make_scenario_world(sc_);
  // Observe first sends; snapshot at the end of the emulator step in which
  // the first send of a new type occurred. Every send of a fresh type within
  // that step is held across the snapshot — a broadcast is many sends, and a
  // branch's armed action must apply to all of them (a rare message like
  // View-Change may never be sent again inside the observation window).
  std::set<wire::TypeTag> seen;
  std::vector<wire::TypeTag> fresh;
  w.proxy->set_observer([&](NodeId, NodeId, wire::TypeTag tag) -> bool {
    if (w.testbed->now() < sc_.warmup) return false;
    if (seen.insert(tag).second) {
      fresh.push_back(tag);
      return true;  // hold the triggering message across the snapshot
    }
    // Further sends of a just-captured type in this same step (the rest of
    // the broadcast): hold them too.
    return std::find(fresh.begin(), fresh.end(), tag) != fresh.end();
  });

  w.testbed->start();
  const Time horizon = sc_.duration;
  while (w.testbed->now() < horizon) {
    const Time next = w.testbed->emulator().next_event_time();
    if (next < 0 || next > horizon) break;
    w.testbed->emulator().step();
    if (!fresh.empty()) {
      const Bytes snap = w.testbed->save_snapshot();
      auto shared = std::make_shared<const Bytes>(snap);
      for (wire::TypeTag tag : fresh) {
        const wire::MessageSpec* spec = sc_.schema->by_tag(tag);
        if (spec == nullptr) continue;  // traffic the schema doesn't describe
        InjectionPoint ip;
        ip.tag = tag;
        ip.message_name = spec->name;
        ip.time = w.testbed->now();
        ip.snapshot = shared;
        points_->push_back(std::move(ip));
        TLOG_INFO("injection point: %s at %s", spec->name.c_str(),
                  format_time(w.testbed->now()).c_str());
      }
      fresh.clear();
      charge({.phase = trace::Counter::discover_ns, .saves = 1});
    }
  }
  charge({.phase = trace::Counter::discover_ns, .execution = sc_.duration});
  if (trace::active()) {
    trace::Span("search", "discover")
        .at(0)
        .lasted(sc_.duration)
        .arg("points", static_cast<std::uint64_t>(points_->size()));
  }

  // Whole-run benign performance, reused by reports.
  benign_perf_ = measure(*w.testbed, sc_.warmup, sc_.warmup + sc_.window);
  if (provenance_ != nullptr) {
    provenance_->add(std::make_shared<const BranchProvenance>(
        harvest_provenance(w, sc_, "discover", 0, sc_.duration, 0)));
  }
  return *points_;
}

WindowPerf BranchExecutor::benign_performance() {
  discover();
  return *benign_perf_;
}

BranchExecutor::DecodedPtr BranchExecutor::decoded(const InjectionPoint& ip,
                                                   const Digest128& key,
                                                   bool commit) {
  TURRET_CHECK_MSG(ip.snapshot != nullptr, "injection point has no snapshot");
  const Bytes& blob = *ip.snapshot;
  std::vector<DecodedEntry>& chain = decoded_cache_[key];
  DecodedEntry* hit = nullptr;
  for (DecodedEntry& e : chain) {
    if (*e.blob == blob) {
      hit = &e;
      break;
    }
  }
  if (commit) {
    trace::add(hit != nullptr && hit->counted ? trace::Counter::decode_hits
                                              : trace::Counter::decode_misses);
  }
  if (hit == nullptr) {
    // Continuation chains produce a fresh blob per step; keep the cache from
    // growing without bound by dropping everything once it gets large (the
    // working set is the handful of points branched from right now).
    if (decoded_cache_entries_ >= 32) {
      decoded_cache_.clear();
      decoded_cache_entries_ = 0;
    }
    DecodedEntry e;
    e.blob = ip.snapshot;
    e.snapshot = std::make_shared<const runtime::DecodedSnapshot>(
        runtime::Testbed::decode_snapshot(*ip.snapshot));
    std::vector<DecodedEntry>& c = decoded_cache_[key];  // clear() invalidated
    c.push_back(std::move(e));
    ++decoded_cache_entries_;
    hit = &c.back();
    if (c.size() > 1) {
      // Two distinct blobs under one 128-bit digest: the byte-compare chain
      // backstop caught a hash collision. Surface it so silent weakening of
      // the digest would show up in --json stats.
      trace::add(trace::Counter::hash_collisions);
      trace::raise_gauge(trace::Counter::hash_chain_max, c.size());
    }
  }
  if (commit) hit->counted = true;
  return hit->snapshot;
}

namespace {

/// `r`'s outcome, attempts and error without its provenance: what the memo
/// keeps and a hit inherits.
BranchExecutor::BranchResult without_provenance(
    const BranchExecutor::BranchResult& r) {
  BranchExecutor::BranchResult c;
  c.attempts = r.attempts;
  c.error = r.error;
  if (r.outcome) {
    BranchExecutor::BranchOutcome o;
    o.windows = r.outcome->windows;
    o.new_crashes = r.outcome->new_crashes;
    c.outcome = std::move(o);
  }
  return c;
}

/// The quarantine record of a containment whose every attempt failed.
template <typename T>
BranchExecutor::BranchResult quarantine(const Contained<T>& c) {
  BranchExecutor::BranchResult r;
  r.attempts = c.attempts;
  r.error = c.error;
  return r;
}

}  // namespace

template <typename Fn>
auto BranchExecutor::contain(Time at, Fn&& attempt) const {
  Contained<std::invoke_result_t<Fn&>> c;
  const std::uint32_t max_attempts =
      1 + static_cast<std::uint32_t>(std::max(0, sc_.fault.max_retries));
  std::optional<Backoff> backoff;
  for (;;) {
    ++c.attempts;
    try {
      c.value.emplace(attempt());
      c.error.clear();
      return c;
    } catch (const std::exception& e) {
      c.error = e.what();
      c.runaway =
          dynamic_cast<const netem::BudgetExceededError*>(&e) != nullptr;
      if (c.runaway) trace::add(trace::Counter::budget_aborts);
      if (runtime::classify_failure(e) ==
          runtime::FailureClass::kDeterministic) {
        return c;
      }
    } catch (...) {
      c.error = "unknown error";
    }
    if (c.attempts >= max_attempts) return c;
    // Wall-clock pause before the next attempt (never charged to SearchCost:
    // the virtual clock does not advance while we sleep). Constructed lazily
    // — the success path never touches it — and seeded per (scenario,
    // injection time) so concurrent branches desynchronize deterministically.
    if (!backoff) {
      backoff.emplace(sc_.fault.retry_backoff,
                      Rng(sc_.testbed.seed ^ static_cast<std::uint64_t>(at)));
    }
    backoff->sleep();
  }
}

Contained<BranchExecutor::DecodedPtr> BranchExecutor::try_decoded(
    const InjectionPoint& ip, const std::optional<Digest128>& content) {
  if (!content) {
    Contained<DecodedPtr> cold;
    cold.value.emplace(nullptr);
    return cold;
  }
  return contain(ip.time, [&] { return decoded(ip, *content, true); });
}

ScenarioWorld BranchExecutor::enter(
    const runtime::DecodedSnapshot* snap,
    const proxy::MaliciousAction* action) const {
  ScenarioWorld w = make_scenario_world(sc_, snap);
  w.testbed->emulator().set_event_budget(sc_.fault.max_branch_events);
  if (action != nullptr) w.proxy->arm(*action);
  if (snap == nullptr) w.testbed->start();
  return w;
}

BranchExecutor::BranchOutcome BranchExecutor::execute_branch(
    const runtime::DecodedSnapshot* snap, const InjectionPoint& ip,
    const proxy::MaliciousAction* action, int windows) const {
  ScenarioWorld w = enter(snap, action);
  // A loaded world carries the snapshot's crashes; a cold world's crashes
  // all happened inside the branch, start() included.
  const std::uint32_t crashed_before =
      snap != nullptr
          ? static_cast<std::uint32_t>(w.testbed->crashed_nodes().size())
          : 0;
  w.testbed->run_until(ip.time + windows * sc_.window);

  BranchOutcome out;
  for (int i = 0; i < windows; ++i) {
    out.windows.push_back(measure(*w.testbed, ip.time + i * sc_.window,
                                  ip.time + (i + 1) * sc_.window));
  }
  out.new_crashes =
      static_cast<std::uint32_t>(w.testbed->crashed_nodes().size()) -
      crashed_before;
  if (provenance_ != nullptr) {
    out.provenance = std::make_shared<const BranchProvenance>(
        harvest_provenance(w, sc_, branch_key(ip, action, windows), ip.time,
                           ip.time + windows * sc_.window, windows));
  }
  return out;
}

BranchExecutor::BranchResult BranchExecutor::attempt_branch(
    const runtime::DecodedSnapshot* snap, const InjectionPoint& ip,
    const proxy::MaliciousAction* action, int windows) const {
  // The per-branch span: stamped with the branch's virtual extent (injection
  // time, windows * window), so its content — and therefore the sorted trace
  // — is identical whether the branch ran inline or on a pool worker.
  trace::Span span("search", "branch");
  if (trace::active()) {
    span.at(ip.time)
        .lasted(static_cast<Duration>(windows) * sc_.window)
        .arg("message", ip.message_name)
        .arg("action",
             action != nullptr ? action->describe() : std::string("baseline"))
        .arg("windows", static_cast<std::int64_t>(windows));
  }
  Contained<BranchOutcome> c = contain(ip.time, [&] {
    fault::inject(fault::kBranchExec);
    return execute_branch(snap, ip, action, windows);
  });
  span.arg("attempts", static_cast<std::uint64_t>(c.attempts))
      .arg("outcome", c.value     ? "ok"
                      : c.runaway ? "budget"
                                  : "quarantined");
  BranchResult r;
  r.outcome = std::move(c.value);
  r.attempts = c.attempts;
  r.error = std::move(c.error);
  return r;
}

Duration BranchExecutor::charge(const Charge& c) {
  const Duration snapshots =
      static_cast<Duration>(c.loads) * sc_.branch_cost.load_cost +
      static_cast<Duration>(c.saves) * sc_.branch_cost.save_cost;
  cost_.execution += c.execution;
  cost_.snapshots += snapshots;
  cost_.branches += c.branches;
  cost_.saves += c.saves;
  cost_.loads += c.loads;
  cost_.retries += c.retries;
  // The mirror: telemetry totals equal SearchCost by construction (asserted
  // under faults by test_fault_tolerance).
  trace::add(c.phase, static_cast<std::uint64_t>(c.execution));
  trace::add(trace::Counter::branch_attempts, c.branches);
  trace::add(trace::Counter::branch_retries, c.retries);
  trace::add(trace::Counter::snapshot_loads, c.loads);
  trace::add(trace::Counter::snapshot_saves, c.saves);
  return c.execution + snapshots;
}

Duration BranchExecutor::charge_branch(const InjectionPoint& ip,
                                       std::uint32_t attempts, int windows) {
  const bool cold = ip.snapshot == nullptr;
  const Duration run =
      (cold ? ip.time : 0) + static_cast<Duration>(windows) * sc_.window;
  return charge({.phase = windows == 1 ? trace::Counter::evaluate_ns
                                       : trace::Counter::classify_ns,
                 .execution = static_cast<Duration>(attempts) * run,
                 .branches = attempts,
                 .retries = attempts - 1,
                 .loads = cold ? 0 : attempts});
}

void BranchExecutor::record_failure(const InjectionPoint& ip,
                                    const proxy::MaliciousAction* action,
                                    const BranchResult& r) {
  FailedBranch f;
  f.had_action = action != nullptr;
  if (action != nullptr) f.action = *action;
  f.tag = ip.tag;
  f.message_name = ip.message_name;
  f.injection_time = ip.time;
  f.attempts = r.attempts;
  f.error = r.error;
  TLOG_INFO("quarantined: %s", f.describe().c_str());
  trace::add(trace::Counter::branch_quarantines);
  if (trace::active()) {
    trace::instant("search", "quarantine", ip.time,
                   trace::Args()
                       .add("message", ip.message_name)
                       .add("branch", f.had_action
                                          ? f.action.describe()
                                          : f.message_name + " baseline")
                       .add("attempts", static_cast<std::uint64_t>(f.attempts))
                       .take());
  }
  failed_.push_back(std::move(f));
}

std::string BranchExecutor::branch_key(const InjectionPoint& ip,
                                       const proxy::MaliciousAction* action,
                                       int windows) {
  if (ip.snapshot == nullptr) {
    return "bf|" + std::to_string(ip.tag) + "|" +
           (action != nullptr ? action->describe() : "base");
  }
  return "b|" + std::to_string(ip.tag) + "|" + std::to_string(ip.time) + "|" +
         std::to_string(windows) + "|" +
         (action != nullptr ? action->describe() : "-");
}

BranchExecutor::BranchResult BranchExecutor::execute_unit(
    const InjectionPoint& ip, const proxy::MaliciousAction* action,
    int windows) {
  TURRET_CHECK(windows >= 1);
  // No cost charging, journaling, or failure recording here: the coordinator
  // merges this result through run_branches' merge stage, so the charge site
  // is the same one a local branch uses. A decode failure produces the same
  // quarantine record the local path would share across the batch.
  const Contained<DecodedPtr> snap = try_decoded(ip, content_of(ip));
  if (!snap.value) return quarantine(snap);
  return attempt_branch(snap.value->get(), ip, action, windows);
}

BranchExecutor::MemoKey BranchExecutor::memo_key(
    const InjectionPoint& ip, const std::optional<Digest128>& content,
    const proxy::MaliciousAction* action, int windows) {
  MemoKey k{ip.tag, ip.time, windows, content, {}};
  if (action != nullptr) {
    serial::Writer w;
    action->save(w);
    k.action = w.take();
  }
  return k;
}

auto BranchExecutor::owned_branch(DecodedPtr snap, InjectionPoint ip,
                                  const proxy::MaliciousAction* action,
                                  int windows) const {
  std::optional<proxy::MaliciousAction> armed;
  if (action != nullptr) armed = *action;
  return [this, snap = std::move(snap), ip = std::move(ip),
          armed = std::move(armed), windows] {
    return attempt_branch(snap.get(), ip, armed ? &*armed : nullptr, windows);
  };
}

ThreadPool& BranchExecutor::pool() {
  const unsigned jobs = default_jobs();
  if (pool_ == nullptr || pool_->size() != jobs)
    pool_ = std::make_unique<ThreadPool>(jobs);
  return *pool_;
}

void BranchExecutor::prefetch(
    const InjectionPoint& ip,
    const std::vector<const proxy::MaliciousAction*>& actions, int windows) {
  TURRET_CHECK(windows >= 1);
  // Coordinator batches stay per point; at --jobs 1 nothing could overlap.
  if (default_jobs() <= 1 || remote_ != nullptr) return;
  const std::optional<Digest128> content = content_of(ip);
  std::vector<std::pair<std::size_t, MemoKey>> start;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    MemoKey k = memo_key(ip, content, actions[i], windows);
    if (memo_.contains(k) || in_flight_.contains(k)) continue;
    if (journal_ != nullptr &&
        journal_->holds(branch_key(ip, actions[i], windows)))
      continue;
    start.emplace_back(i, std::move(k));
  }
  if (start.empty()) return;
  DecodedPtr snap;
  if (content) {
    try {
      snap = decoded(ip, *content, false);
    } catch (const std::exception&) {
      return;  // run_branches decodes again and quarantines
    }
  }
  ThreadPool& workers = pool();
  for (auto& [i, k] : start) {
    if (in_flight_.contains(k)) continue;  // a repeat within `actions`
    auto state = std::make_shared<std::atomic<Claim>>(Claim::kQueued);
    std::future<BranchResult> result = workers.submit(
        [state, run = owned_branch(snap, ip, actions[i], windows)] {
          // Once the search is cancelled, a branch no batch has claimed will
          // never be waited for; neither will one the destructor discarded.
          if (cancel_requested()) {
            Claim queued = Claim::kQueued;
            state->compare_exchange_strong(queued, Claim::kSkipped);
          }
          if (state->load() == Claim::kSkipped) return BranchResult{};
          return run();
        });
    in_flight_.emplace(std::move(k), Prefetched{state, std::move(result)});
  }
}

std::optional<std::future<BranchExecutor::BranchResult>> BranchExecutor::claim(
    const MemoKey& key) {
  const auto it = in_flight_.find(key);
  if (it == in_flight_.end()) return std::nullopt;
  Prefetched p = std::move(it->second);
  in_flight_.erase(it);
  if (p.state->exchange(Claim::kClaimed) == Claim::kSkipped)
    return std::nullopt;
  return std::move(p.result);
}

std::vector<BranchExecutor::BranchResult> BranchExecutor::run_branches(
    const InjectionPoint& ip,
    const std::vector<const proxy::MaliciousAction*>& actions, int windows) {
  TURRET_CHECK(windows >= 1);
  // Cancellation is consumed only at batch boundaries: a batch that started
  // runs to completion and is journaled whole, so any interrupted journal is
  // a clean prefix and --resume reproduces the uninterrupted result.
  if (cancel_requested()) throw CancelledError();
  std::vector<BranchResult> out(actions.size());
  const auto key = [&](std::size_t i) {
    return branch_key(ip, actions[i], windows);
  };
  const std::optional<Digest128> content = content_of(ip);
  std::vector<MemoKey> memo_keys;
  memo_keys.reserve(actions.size());
  for (const proxy::MaliciousAction* action : actions)
    memo_keys.push_back(memo_key(ip, content, action, windows));

  // Journal replay: consume journaled results first (in input order, which
  // matches the order the interrupted run appended them). Only the misses
  // go on down the pipeline.
  std::vector<bool> replayed(actions.size(), false);
  std::vector<std::size_t> live;
  live.reserve(actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    std::optional<Bytes> rec;
    if (journal_ != nullptr) rec = journal_->replay(key(i));
    if (!rec) {
      live.push_back(i);
      continue;
    }
    out[i] = decode_branch_result(*rec);
    replayed[i] = true;
    trace::add(trace::Counter::journal_replays);
    if (trace::active()) {
      trace::instant("search", "journal-replay", ip.time,
                     trace::Args().add("key", key(i)).take());
    }
  }

  // Snapshot decode (points with a snapshot only). An unusable snapshot
  // quarantines every pending branch with the decode failure.
  DecodedPtr snap;
  if (!live.empty()) {
    const Contained<DecodedPtr> d = try_decoded(ip, content);
    if (d.value) {
      snap = *d.value;
    } else {
      for (const std::size_t i : live) out[i] = quarantine(d);
      live.clear();
    }
  }

  // Memo lookup, serially in input order. Every branch of one batch is
  // distinct, so a hit is always a result merged by an earlier batch.
  std::vector<std::size_t> run;
  for (const std::size_t i : live) {
    const auto it = memo_.find(memo_keys[i]);
    if (it == memo_.end()) {
      run.push_back(i);
      continue;
    }
    out[i] = it->second;
    trace::add(trace::Counter::branches_pruned);
    if (trace::active()) {
      trace::instant("search", "prune", ip.time,
                     trace::Args()
                         .add("message", ip.message_name)
                         .add("action", actions[i] != nullptr
                                            ? actions[i]->describe()
                                            : std::string("baseline"))
                         .take());
    }
  }

  dispatch(snap, ip, actions, memo_keys, run, windows, out);

  // Merge, in input order: charge (replayed entries charge the attempts they
  // recorded), record quarantines, add provenance, journal fresh results and
  // memoize. Integer sums are order-independent, so serial and parallel runs
  // account the same cost.
  for (std::size_t i = 0; i < actions.size(); ++i) {
    out[i].charged = charge_branch(ip, out[i].attempts, windows);
    if (!out[i].ok()) record_failure(ip, actions[i], out[i]);
    if (provenance_ != nullptr && out[i].ok() &&
        out[i].outcome->provenance != nullptr) {
      provenance_->add(out[i].outcome->provenance);
    }
    if (journal_ != nullptr && !replayed[i])
      journal_->append(key(i), encode_branch_result(out[i]));
    if (!memo_.contains(memo_keys[i]))
      memo_.emplace(std::move(memo_keys[i]), without_provenance(out[i]));
  }
  return out;
}

void BranchExecutor::dispatch(
    const DecodedPtr& snap, const InjectionPoint& ip,
    const std::vector<const proxy::MaliciousAction*>& actions,
    const std::vector<MemoKey>& keys, const std::vector<std::size_t>& run,
    int windows, std::vector<BranchResult>& out) {
  // Whatever the remote backend could not place (no workers, every worker
  // died mid-batch) runs locally. Results are byte-identical either way:
  // workers run the same attempt_branch against the same decoded snapshot.
  std::vector<std::size_t> local;
  if (remote_ != nullptr && provenance_ == nullptr && snap != nullptr &&
      !run.empty() && remote_->available()) {
    const auto remote_out = remote_->run_remote(ip, actions, run, windows);
    TURRET_CHECK_MSG(remote_out.size() == run.size(),
                     "remote backend returned a mismatched batch");
    for (std::size_t k = 0; k < run.size(); ++k) {
      if (remote_out[k].has_value()) {
        out[run[k]] = *remote_out[k];
      } else {
        local.push_back(run[k]);
      }
    }
  } else {
    local = run;
  }
  if (remote_ != nullptr) {
    trace::add(trace::Counter::dist_local_fallbacks, local.size());
  }

  // Locally, what prefetch() started is claimed. The rest is demanded now:
  // inline at --jobs 1 or when it is the only such entry, otherwise at the
  // front of the pool queue, so it never waits behind prefetched work.
  std::vector<std::future<BranchResult>> results(local.size());
  std::vector<std::size_t> fresh;
  for (std::size_t k = 0; k < local.size(); ++k) {
    if (std::optional<std::future<BranchResult>> f = claim(keys[local[k]])) {
      results[k] = std::move(*f);
    } else {
      fresh.push_back(k);
    }
  }
  const bool inline_fresh = default_jobs() <= 1 || fresh.size() <= 1;
  for (const std::size_t k : fresh) {
    auto task = owned_branch(snap, ip, actions[local[k]], windows);
    if (inline_fresh) {
      std::packaged_task<BranchResult()> now(std::move(task));
      results[k] = now.get_future();
      now();
    } else {
      results[k] = pool().submit_front(std::move(task));
    }
  }
  // Join every entry before an error escapes, and report every error
  // together.
  std::vector<std::string> errors;
  for (std::size_t k = 0; k < local.size(); ++k) {
    try {
      out[local[k]] = results[k].get();
    } catch (const std::exception& e) {
      errors.push_back(e.what());
    } catch (...) {
      errors.push_back("unknown error");
    }
  }
  if (!errors.empty()) throw AggregateBranchError(errors);
}

BranchExecutor::BranchResult BranchExecutor::try_run_branch(
    const InjectionPoint& ip, const proxy::MaliciousAction* action,
    int windows) {
  return run_branches(ip, {action}, windows)[0];
}

BranchExecutor::BranchOutcome BranchExecutor::run_branch(
    const InjectionPoint& ip, const proxy::MaliciousAction* action,
    int windows) {
  BranchResult r = try_run_branch(ip, action, windows);
  if (!r.ok()) {
    throw std::runtime_error("branch quarantined after " +
                             std::to_string(r.attempts) +
                             " attempt(s): " + r.error);
  }
  return *std::move(r.outcome);
}

WindowPerf BranchExecutor::baseline(const InjectionPoint& ip) {
  return run_branch(ip, nullptr, 1).windows[0];
}

std::optional<WindowPerf> BranchExecutor::try_baseline(
    const InjectionPoint& ip) {
  BranchResult r = try_run_branch(ip, nullptr, 1);
  if (!r.ok()) return std::nullopt;  // quarantine recorded by run_branches
  return r.outcome->windows[0];
}

std::optional<BranchExecutor::InjectionPoint>
BranchExecutor::try_continue_branch(const InjectionPoint& ip,
                                    const proxy::MaliciousAction* action,
                                    Duration dur) {
  TURRET_CHECK_MSG(ip.snapshot != nullptr, "a continuation needs a snapshot");
  const Contained<DecodedPtr> snap = try_decoded(ip, content_of(ip));
  Contained<InjectionPoint> next;
  if (snap.value) {
    next = contain(ip.time, [&] {
      ScenarioWorld w = enter(snap.value->get(), action);
      w.testbed->run_until(ip.time + dur);
      w.proxy->disarm();
      InjectionPoint n;
      n.tag = ip.tag;
      n.message_name = ip.message_name;
      n.time = w.testbed->now();
      n.snapshot = std::make_shared<const Bytes>(w.testbed->save_snapshot());
      return n;
    });
  } else {
    next.attempts = snap.attempts;  // quarantined with the decode failure
    next.error = snap.error;
  }

  // Charged per attempt, mirroring the serial charges of a successful
  // continuation so resume replays (which re-execute continuations live)
  // account identically.
  const std::uint32_t attempts = next.attempts;
  charge({.phase = trace::Counter::advance_ns,
          .execution = static_cast<Duration>(attempts) * dur,
          .retries = attempts - 1,
          .loads = attempts,
          .saves = attempts});
  if (trace::active()) {
    trace::Span("search", "advance")
        .at(ip.time)
        .lasted(dur)
        .arg("message", ip.message_name)
        .arg("action",
             action != nullptr ? action->describe() : std::string("baseline"))
        .arg("attempts", static_cast<std::uint64_t>(attempts))
        .arg("outcome", next.value ? "ok" : "quarantined");
  }

  if (!next.value) {
    record_failure(ip, action, quarantine(next));
    return std::nullopt;
  }
  return std::move(next.value);
}

}  // namespace turret::search
