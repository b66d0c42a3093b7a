#include "search/algorithms.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/log.h"
#include "common/trace.h"
#include "search/provenance.h"

namespace turret::search {
namespace {

using BranchResult = BranchExecutor::BranchResult;

/// One-window evaluation of an action at an injection point.
struct Evaluation {
  WindowPerf perf;
  double damage = 0;
  std::uint32_t crashes = 0;

  /// Ranking that places crashes above everything, then detected tampering,
  /// then plain metric damage. A branch the honest fleet visibly fights off
  /// (TamperDetected observations: each one is a verification the attacker
  /// forced and a message the protocol lost) is a stronger lead than one
  /// that only dents throughput — detection storms are an attack signal,
  /// not a dead end. The tamper term saturates at rank 2.0 so it can never
  /// outrank a crash.
  double rank() const {
    if (crashes > 0) return 2.0 + crashes;
    if (perf.tampers == 0) return damage;
    const double storm =
        1.0 + std::min(1.0, static_cast<double>(perf.tampers) / 64.0);
    return std::max(damage, storm);
  }
};

Evaluation to_evaluation(const Scenario& sc,
                         const BranchExecutor::BranchOutcome& out,
                         const WindowPerf& base) {
  Evaluation ev;
  ev.perf = out.windows[0];
  ev.damage = compute_damage(sc.metric, base, ev.perf);
  ev.crashes = out.new_crashes;
  return ev;
}

/// Batch evaluation of every action at one injection point. A quarantined
/// branch yields a nullopt evaluation (its FailedBranch record lives in the
/// executor); the raw results keep per-branch attempt counts for the
/// weighted-greedy cost replay.
struct EvalSet {
  std::vector<BranchResult> results;
  std::vector<std::optional<Evaluation>> evals;
};

EvalSet evaluate_all(BranchExecutor& exec,
                     const BranchExecutor::InjectionPoint& ip,
                     const std::vector<proxy::MaliciousAction>& actions,
                     const WindowPerf& base) {
  std::vector<const proxy::MaliciousAction*> ptrs;
  ptrs.reserve(actions.size());
  for (const proxy::MaliciousAction& a : actions) ptrs.push_back(&a);
  EvalSet es;
  es.results = exec.run_branches(ip, ptrs, 1);
  es.evals.reserve(es.results.size());
  for (const BranchResult& r : es.results) {
    if (r.ok()) {
      es.evals.push_back(to_evaluation(exec.scenario(), *r.outcome, base));
    } else {
      es.evals.push_back(std::nullopt);
    }
  }
  return es;
}

/// Effect classification shared by every algorithm: crash and halt dominate;
/// qualifying damage that honest receivers *detected* (TamperDetected
/// observations in the attack window) is a detection storm — the signed
/// adapter caught the mutations but the system bled anyway; the remainder
/// splits into sustained degradation vs. transient on the recovery window.
AttackEffect classify_effect(const Scenario& sc, const WindowPerf& base,
                             const WindowPerf& w0, const WindowPerf& w1,
                             std::uint32_t crashes) {
  if (crashes > 0) return AttackEffect::kCrash;
  if (w0.samples == 0 && w1.samples == 0 && base.samples > 0)
    return AttackEffect::kHalt;
  if (w0.tampers + w1.tampers > 0) return AttackEffect::kDetectionStorm;
  if (compute_damage(sc.metric, base, w1) > sc.delta)
    return AttackEffect::kDegradation;
  return AttackEffect::kTransient;
}

/// Baseline-vs-attack percentile table: present whenever the windows carry
/// value-series distributions (mean and quantile metrics). The attack side
/// keeps has_percentiles even when one window starved (a halt is a tail
/// pathology worth tabulating, not a reason to hide the row).
void fill_percentiles(AttackReport& rep, const WindowPerf& base,
                      const WindowPerf& w0) {
  if (!base.has_percentiles && !w0.has_percentiles) return;
  rep.has_percentiles = true;
  rep.baseline_p50 = base.p50;
  rep.baseline_p95 = base.p95;
  rep.baseline_p99 = base.p99;
  rep.baseline_p999 = base.p999;
  rep.attacked_p50 = w0.p50;
  rep.attacked_p95 = w0.p95;
  rep.attacked_p99 = w0.p99;
  rep.attacked_p999 = w0.p999;
}

/// Build the report for a candidate attack from its two-window classification
/// branch: distinguishes crash / halt / detection storm / sustained
/// degradation / transient.
AttackReport make_report(const Scenario& sc,
                         const BranchExecutor::InjectionPoint& ip,
                         const proxy::MaliciousAction& action,
                         const WindowPerf& base,
                         const BranchExecutor::BranchOutcome& out) {
  const WindowPerf& w0 = out.windows[0];
  const WindowPerf& w1 = out.windows[1];

  AttackReport rep;
  rep.action = action;
  rep.baseline_performance = base.value;
  rep.attacked_performance = w0.value;
  rep.recovery_performance = w1.value;
  rep.damage = compute_damage(sc.metric, base, w0);
  rep.crashed_nodes = out.new_crashes;
  rep.tamper_detected = w0.tampers + w1.tampers;
  rep.injection_time = ip.time;
  rep.effect = classify_effect(sc, base, w0, w1, out.new_crashes);
  fill_percentiles(rep, base, w0);
  return rep;
}

std::string action_key(wire::TypeTag tag, const proxy::MaliciousAction& a) {
  return std::to_string(tag) + "|" + a.describe();
}

}  // namespace

// ---------------------------------------------------------------------------
// Brute force (Fig. 2a)
// ---------------------------------------------------------------------------

SearchResult brute_force_search(const Scenario& sc, Journal* journal,
                                ProvenanceStore* provenance) {
  BranchExecutor exec(sc);
  exec.set_journal(journal);
  exec.set_provenance(provenance);

  SearchResult res;
  res.algorithm = "brute-force";

  // Benign execution: the first-send time of each message type (brute
  // force's injection points) and the whole-run baseline.
  std::map<wire::TypeTag, Time> first_send;
  std::vector<wire::TypeTag> order;
  {
    ScenarioWorld w = make_scenario_world(sc);
    w.proxy->set_observer([&](NodeId, NodeId, wire::TypeTag tag) -> bool {
      if (w.testbed->now() < sc.warmup) return false;
      if (first_send.emplace(tag, w.testbed->now()).second)
        order.push_back(tag);
      return false;  // brute force never branches, so no holds
    });
    w.testbed->start();
    w.testbed->run_until(sc.duration);
    exec.charge({.phase = trace::Counter::discover_ns,
                 .execution = sc.duration});
    res.baseline_performance =
        measure_window(sc.metric, *w.testbed, sc.warmup, sc.warmup + sc.window)
            .value;
    if (provenance != nullptr) {
      provenance->add(std::make_shared<const BranchProvenance>(
          harvest_provenance(w, sc, "discover", 0, sc.duration, 0)));
    }
    if (trace::active()) {
      trace::Span("search", "discover")
          .at(0)
          .lasted(sc.duration)
          .arg("points", static_cast<std::uint64_t>(order.size()));
    }
  }

  // Brute force cannot branch, so its injection points are cold: every
  // execution, the per-type baseline included, is a fresh run from t = 0
  // with the action armed from the start. The executor runs, retries,
  // prunes, charges and journals them like any other branch.
  for (const wire::TypeTag tag : order) {
    const wire::MessageSpec* spec = sc.schema->by_tag(tag);
    if (spec == nullptr) continue;
    BranchExecutor::InjectionPoint ip;
    ip.tag = tag;
    ip.message_name = spec->name;
    ip.time = first_send.at(tag);
    const std::vector<proxy::MaliciousAction> actions =
        proxy::enumerate_actions(*spec, sc.actions);
    trace::Span tag_span("search", "brute-tag");
    if (trace::active()) {
      tag_span.at(ip.time)
          .lasted(2 * sc.window)
          .arg("message", ip.message_name)
          .arg("actions", static_cast<std::uint64_t>(actions.size()));
    }

    // Every action runs even when the baseline quarantined: its outcome is
    // charged and journaled, but has nothing to compare against.
    const BranchResult base = exec.try_run_branch(ip, nullptr, 1);
    std::vector<const proxy::MaliciousAction*> ptrs;
    ptrs.reserve(actions.size());
    for (const proxy::MaliciousAction& a : actions) ptrs.push_back(&a);
    Duration running = exec.cost().total();
    const std::vector<BranchResult> runs = exec.run_branches(ip, ptrs, 2);

    // Replay the serial cost clock: each run pays its own charge, so
    // found_after is the same whether runs executed, pruned or replayed.
    for (std::size_t i = 0; i < runs.size(); ++i) {
      running += runs[i].charged;
      if (!base.ok() || !runs[i].ok()) continue;
      const WindowPerf& b = base.outcome->windows[0];
      const BranchExecutor::BranchOutcome& out = *runs[i].outcome;
      const std::uint64_t tampers =
          out.windows[0].tampers + out.windows[1].tampers;
      if (out.new_crashes == 0 && tampers == 0 &&
          compute_damage(sc.metric, b, out.windows[0]) <= sc.delta) {
        continue;
      }
      AttackReport rep = make_report(sc, ip, actions[i], b, out);
      rep.found_after = running;
      rep.provenance_key = BranchExecutor::branch_key(ip, &actions[i], 2);
      rep.baseline_key = BranchExecutor::branch_key(ip, nullptr, 1);
      res.attacks.push_back(std::move(rep));
    }
  }
  res.cost = exec.cost();
  res.failed = exec.failed();
  return res;
}

// ---------------------------------------------------------------------------
// Greedy (Fig. 2b)
// ---------------------------------------------------------------------------

SearchResult greedy_search(const Scenario& sc, const GreedyOptions& opt,
                           Journal* journal, ProvenanceStore* provenance,
                           RemoteBackend* remote) {
  BranchExecutor exec(sc);
  exec.set_journal(journal);
  exec.set_provenance(provenance);
  exec.set_remote(remote);
  const auto& points = exec.discover();

  SearchResult res;
  res.algorithm = "greedy";
  res.baseline_performance = exec.benign_performance().value;

  std::set<std::string> reported;
  bool found_new = true;
  int repetitions = 0;
  while (found_new &&
         (opt.max_repetitions == 0 || repetitions < opt.max_repetitions)) {
    ++repetitions;
    found_new = false;
    for (const auto& ip0 : points) {
      const wire::MessageSpec* spec = sc.schema->by_tag(ip0.tag);
      if (spec == nullptr) continue;
      std::vector<proxy::MaliciousAction> actions;
      for (auto& a : proxy::enumerate_actions(*spec, sc.actions)) {
        if (!reported.count(action_key(ip0.tag, a))) actions.push_back(std::move(a));
      }
      if (actions.empty()) continue;

      trace::Span point_span("search", "greedy-point");
      if (trace::active()) {
        point_span.at(ip0.time)
            .lasted(static_cast<Duration>(opt.confirmations) * sc.window)
            .arg("message", ip0.message_name)
            .arg("actions", static_cast<std::uint64_t>(actions.size()));
      }

      // Evaluate every action at `confirmations` consecutive injection
      // points; an attack must win (strongest damage, above Δ) every time.
      BranchExecutor::InjectionPoint ip = ip0;
      std::optional<std::size_t> winner;
      int streak = 0;
      WindowPerf winner_base;
      BranchExecutor::InjectionPoint winner_ip = ip0;
      for (int round = 0; round < opt.confirmations; ++round) {
        const std::optional<WindowPerf> base = exec.try_baseline(ip);
        if (!base) {
          streak = 0;
          break;  // baseline quarantined: this injection point is unusable
        }
        // One batch per round: greedy needs *every* action's damage at this
        // injection point before it can select, so the whole action set fans
        // out in parallel and the winner is picked from the merged results
        // (first index wins ties, matching the serial scan). Quarantined
        // branches sit the round out.
        const EvalSet es = evaluate_all(exec, ip, actions, *base);
        std::optional<std::size_t> best;
        double best_rank = 0;
        for (std::size_t i = 0; i < es.evals.size(); ++i) {
          if (!es.evals[i]) continue;
          if (!best || es.evals[i]->rank() > best_rank) {
            best = i;
            best_rank = es.evals[i]->rank();
          }
        }
        if (!best || best_rank <= sc.delta) {
          streak = 0;
          break;  // nothing effective at this injection point
        }
        if (winner && *winner == *best) {
          ++streak;
        } else {
          winner = best;
          streak = 1;
        }
        winner_base = *base;
        winner_ip = ip;
        if (round + 1 < opt.confirmations) {
          const std::optional<BranchExecutor::InjectionPoint> next =
              exec.try_continue_branch(ip, nullptr, sc.window);
          if (!next) {
            streak = 0;
            break;  // could not advance the benign branch: give up the point
          }
          ip = *next;
        }
      }

      if (winner && streak >= opt.confirmations) {
        // Two-window classification branch for the confirmed winner. If the
        // classification itself quarantines, the failure is already recorded;
        // marking the action reported keeps the scan from retrying it on
        // every later repetition.
        const BranchResult cls =
            exec.try_run_branch(winner_ip, &actions[*winner], 2);
        reported.insert(action_key(ip0.tag, actions[*winner]));
        if (cls.ok()) {
          AttackReport rep = make_report(sc, winner_ip, actions[*winner],
                                         winner_base, *cls.outcome);
          rep.found_after = exec.cost().total();
          rep.provenance_key =
              BranchExecutor::branch_key(winner_ip, &actions[*winner], 2);
          rep.baseline_key = exec.last_baseline_key(ip0.tag);
          TLOG_INFO("greedy: %s", rep.describe().c_str());
          if (trace::active()) {
            trace::instant(
                "search", "greedy-report", winner_ip.time,
                trace::Args()
                    .add("action", rep.action.describe())
                    .add("found_after",
                         static_cast<std::int64_t>(rep.found_after))
                    .take());
          }
          res.attacks.push_back(std::move(rep));
          found_new = true;
        }
      }

      // This point's branches are done; drop store pages only its transient
      // continuation snapshots referenced (live points stay pinned).
      exec.evict_unreferenced_pages();
    }
  }
  res.cost = exec.cost();
  res.failed = exec.failed();
  return res;
}

// ---------------------------------------------------------------------------
// Weighted greedy (Fig. 2c) — the paper's algorithm
// ---------------------------------------------------------------------------

SearchResult weighted_greedy_search(const Scenario& sc,
                                    const WeightedOptions& opt,
                                    ClusterWeights* learned, Journal* journal,
                                    ProvenanceStore* provenance,
                                    RemoteBackend* remote) {
  BranchExecutor exec(sc);
  exec.set_journal(journal);
  exec.set_provenance(provenance);
  exec.set_remote(remote);
  const auto& points = exec.discover();

  SearchResult res;
  res.algorithm = "weighted-greedy";
  res.baseline_performance = exec.benign_performance().value;

  ClusterWeights weights = opt.initial;

  for (const auto& ip : points) {
    const wire::MessageSpec* spec = sc.schema->by_tag(ip.tag);
    if (spec == nullptr) continue;
    const std::vector<proxy::MaliciousAction> actions =
        proxy::enumerate_actions(*spec, sc.actions);
    const std::optional<WindowPerf> base_opt = exec.try_baseline(ip);
    if (!base_opt) continue;  // baseline quarantined: skip the whole type
    const WindowPerf base = *base_opt;

    // The serial scan tries actions one at a time in descending cluster-
    // weight order. The *set* of branches it executes is order-independent:
    // every action is evaluated once, and every action whose damage exceeds
    // Δ is additionally classified. So both rounds fan out as batches, and
    // the weight-ordered scan below is a replay over precomputed outcomes —
    // report order, weight bumps and found_after are byte-identical to the
    // serial algorithm.
    const Duration cost_before = exec.cost().total();
    trace::Span scan_span("search", "weighted-scan");
    if (trace::active()) {
      scan_span.at(ip.time)
          .arg("message", spec->name)
          .arg("actions", static_cast<std::uint64_t>(actions.size()));
    }
    const EvalSet es = evaluate_all(exec, ip, actions, base);

    std::vector<const proxy::MaliciousAction*> qualifying;
    std::vector<std::size_t> qualifying_index(actions.size(), SIZE_MAX);
    for (std::size_t i = 0; i < actions.size(); ++i) {
      if (es.evals[i] && es.evals[i]->rank() > sc.delta) {
        qualifying_index[i] = qualifying.size();
        qualifying.push_back(&actions[i]);
      }
    }
    const std::vector<BranchResult> classified =
        exec.run_branches(ip, qualifying, 2);
    scan_span.lasted(exec.cost().total() - cost_before)
        .arg("qualifying", static_cast<std::uint64_t>(qualifying.size()));

    // Replay: pick the not-yet-tried action from the highest-weight cluster
    // (stable: enumeration order breaks ties), so learned weights steer both
    // this message type's scan and every later one. `running` reconstructs
    // the serial cost clock — each pick pays the charge of its evaluation
    // branch and, if it qualifies, of its classification branch, so
    // found_after is identical whether branches ran live or replayed from a
    // journal.
    Duration running = cost_before;
    std::vector<std::size_t> alive(actions.size());
    for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = i;
    while (!alive.empty()) {
      std::size_t pick = 0;
      for (std::size_t i = 1; i < alive.size(); ++i) {
        if (weights[actions[alive[i]].cluster()] >
            weights[actions[alive[pick]].cluster()])
          pick = i;
      }
      const std::size_t idx = alive[pick];
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));

      running += es.results[idx].charged;
      if (!es.evals[idx]) continue;  // evaluation quarantined
      if (es.evals[idx]->rank() <= sc.delta) continue;

      // The moment an action qualifies as an attack, report it and raise its
      // cluster's weight. (The paper stops the scan here and lets the user
      // repeat the search; in a deterministic platform re-running with the
      // found attacks excluded is identical to continuing the scan, so we
      // continue — found_after still records when each attack surfaced.)
      const std::size_t qi = qualifying_index[idx];
      running += classified[qi].charged;
      if (!classified[qi].ok()) continue;  // classification quarantined
      AttackReport rep =
          make_report(sc, ip, actions[idx], base, *classified[qi].outcome);
      rep.found_after = running;
      rep.provenance_key = BranchExecutor::branch_key(ip, &actions[idx], 2);
      rep.baseline_key = exec.last_baseline_key(ip.tag);
      weights[actions[idx].cluster()] += opt.bump;
      if (trace::active()) {
        trace::instant(
            "search", "weight-bump", ip.time,
            trace::Args()
                .add("cluster", proxy::cluster_name(actions[idx].cluster()))
                .add("weight", weights[actions[idx].cluster()])
                .add("found_after", static_cast<std::int64_t>(running))
                .take());
      }
      TLOG_INFO("weighted-greedy: %s", rep.describe().c_str());
      res.attacks.push_back(std::move(rep));
    }

    // Between injection points: evict store pages nothing references any
    // more, so occupancy tracks the live working set over a long search.
    exec.evict_unreferenced_pages();
  }

  res.cost = exec.cost();
  res.failed = exec.failed();
  if (learned != nullptr) *learned = weights;
  return res;
}

}  // namespace turret::search
