#include "replay.h"

#include <map>
#include <optional>

#include "proxy/proxy.h"
#include "search/executor.h"
#include "timed.h"

namespace perfbench {

using namespace turret;
using search::BranchExecutor;
using search::ScenarioWorld;

namespace {

double us_since(std::int64_t t) { return static_cast<double>(now_ns() - t) / 1e3; }

/// One branch to replay and the window values it must reproduce.
struct Unit {
  const BranchExecutor::InjectionPoint* ip = nullptr;  ///< weighted only
  Time t0 = 0;                                          ///< injection time
  const proxy::MaliciousAction* action = nullptr;       ///< null = baseline
  int windows = 1;
  std::vector<std::optional<double>> expect;            ///< per window
  std::string label;
};

std::string describe(const Unit& u) {
  return u.label + " @" + std::to_string(u.t0);
}

void run_unit(const search::Scenario& sc, const Unit& u, ReplayResult& out) {
  const std::int64_t t_branch = now_ns();

  std::int64_t t = now_ns();
  ScenarioWorld world = search::make_scenario_world(sc);
  out.build_us.push_back(us_since(t));

  TimedInterceptor tap(*world.proxy);
  runtime::Testbed& tb = *world.testbed;
  tb.emulator().set_interceptor(&tap);
  tb.emulator().set_event_budget(sc.fault.max_branch_events);

  if (u.ip != nullptr) {
    t = now_ns();
    const runtime::DecodedSnapshot snap = runtime::Testbed::decode_snapshot(
        *u.ip->snapshot, sc.testbed.snapshot.store.get());
    out.decode_ms.push_back(us_since(t) / 1e3);
    t = now_ns();
    tb.load_snapshot(snap);
    out.load_us.push_back(us_since(t));
    out.pending_after_load.push_back(
        static_cast<double>(tb.emulator().pending_events()));
  }
  const netem::EmulatorStats emu0 = tb.emulator().stats();
  const proxy::ProxyStats px0 = world.proxy->stats();
  if (u.action != nullptr) world.proxy->arm(*u.action);
  if (u.ip == nullptr) tb.start();
  {
    ScopedSpan span(Layer::kRunUntil);
    tb.run_until(u.t0 + u.windows * sc.window);
  }

  for (int i = 0; i < u.windows; ++i) {
    t = now_ns();
    const search::WindowPerf perf = search::measure_window(
        sc.metric, tb, u.t0 + i * sc.window, u.t0 + (i + 1) * sc.window);
    out.measure_us.push_back(us_since(t));
    const std::optional<double>& want = u.expect[static_cast<std::size_t>(i)];
    if (want && perf.value != *want) {
      out.mismatches.push_back(describe(u) + " window " + std::to_string(i) +
                               ": got " + std::to_string(perf.value) +
                               ", reported " + std::to_string(*want));
    }
  }

  const netem::EmulatorStats& emu1 = tb.emulator().stats();
  out.events += emu1.events_processed - emu0.events_processed;
  out.messages_delivered += emu1.messages_delivered - emu0.messages_delivered;
  out.packets_delivered += emu1.packets_delivered - emu0.packets_delivered;
  const proxy::ProxyStats& px1 = world.proxy->stats();
  out.proxy_observed += px1.observed - px0.observed;
  out.proxy_injected += px1.injected - px0.injected;
  out.proxy_undecodable += px1.undecodable - px0.undecodable;

  t = now_ns();
  { ScenarioWorld dead = std::move(world); }
  out.teardown_us.push_back(us_since(t));
  out.branch_ms.push_back(us_since(t_branch) / 1e3);
  ++out.samples;
}

/// Brute force's benign pass: first send time (>= warmup) of each type a
/// malicious node sends, in first-send order.
std::vector<std::pair<wire::TypeTag, Time>> first_sends(const search::Scenario& sc) {
  std::vector<std::pair<wire::TypeTag, Time>> order;
  std::map<wire::TypeTag, Time> seen;
  ScenarioWorld w = search::make_scenario_world(sc);
  w.proxy->set_observer([&](NodeId, NodeId, wire::TypeTag tag) -> bool {
    if (w.testbed->now() < sc.warmup) return false;
    if (sc.schema->by_tag(tag) != nullptr &&
        seen.emplace(tag, w.testbed->now()).second)
      order.emplace_back(tag, w.testbed->now());
    return false;
  });
  w.testbed->start();
  w.testbed->run_until(sc.duration);
  return order;
}

}  // namespace

ReplayResult replay_branches(const Workload& w, const search::Scenario& sc,
                             const search::SearchResult& res,
                             std::size_t min_samples) {
  ReplayResult out;
  std::vector<Unit> units;
  std::map<std::pair<wire::TypeTag, Time>, std::size_t> baseline_unit;

  BranchExecutor exec(sc);  // owns the injection points the units point at
  if (w.algorithm == Algorithm::kWeighted) {
    for (const BranchExecutor::InjectionPoint& ip : exec.discover()) {
      out.snapshot_kb.push_back(static_cast<double>(ip.snapshot->size()) / 1024.0);
      baseline_unit[{ip.tag, ip.time}] = units.size();
      units.push_back(Unit{&ip, ip.time, nullptr, 1, {std::nullopt},
                           "baseline " + ip.message_name});
    }
  } else {
    for (const auto& [tag, t0] : first_sends(sc)) {
      baseline_unit[{tag, t0}] = units.size();
      units.push_back(Unit{nullptr, t0, nullptr, 1, {std::nullopt},
                           "baseline " + sc.schema->by_tag(tag)->name});
    }
  }

  for (const search::AttackReport& a : res.attacks) {
    const auto it = baseline_unit.find({a.action.target_tag, a.injection_time});
    if (it == baseline_unit.end()) {
      out.mismatches.push_back("no injection point for attack " +
                               a.action.describe());
      continue;
    }
    Unit& base = units[it->second];
    if (base.expect[0] && *base.expect[0] != a.baseline_performance) {
      out.mismatches.push_back("attacks disagree on the baseline of " +
                               describe(base));
    }
    base.expect[0] = a.baseline_performance;
    units.push_back(Unit{base.ip, base.t0, &a.action, 2,
                         {a.attacked_performance, a.recovery_performance},
                         a.action.describe()});
  }
  if (units.empty()) {
    out.mismatches.push_back("nothing to replay");
    return out;
  }

  collect();  // drop spans from discovery; the profile covers branches only
  const std::size_t rounds = (min_samples + units.size() - 1) / units.size();
  for (std::size_t r = 0; r < rounds; ++r)
    for (const Unit& u : units) run_unit(sc, u, out);
  out.profile = collect();
  return out;
}

}  // namespace perfbench
