#include "search/provenance.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/check.h"
#include "common/trace.h"

namespace turret::search {
namespace {

using trace::json_escape;

// Row caps keep reports readable; totals are always printed alongside so a
// capped table never reads as complete coverage.
constexpr std::size_t kMaxMutationRows = 24;
constexpr std::size_t kMaxDecisionRows = 24;
constexpr std::size_t kMaxTimelineRows = 32;
constexpr int kSeriesBins = 12;

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// One flattened mutation: an audit record crossed with one of its diffs.
struct MutationRow {
  const proxy::AuditRecord* rec;
  const wire::FieldDiff* diff;
};

std::vector<MutationRow> mutation_rows(const BranchProvenance& p) {
  std::vector<MutationRow> rows;
  for (const proxy::AuditRecord& a : p.audit) {
    if (a.decision != proxy::AuditDecision::kMutated) continue;
    for (const wire::FieldDiff& d : a.diffs) rows.push_back({&a, &d});
  }
  return rows;
}

std::string message_name(const Scenario& sc, wire::TypeTag tag) {
  const wire::MessageSpec* spec =
      sc.schema != nullptr ? sc.schema->by_tag(tag) : nullptr;
  return spec != nullptr ? spec->name : "tag " + std::to_string(tag);
}

/// Bin a raw sample series over [t0, t0 + window) into kSeriesBins bins:
/// rate metrics sum event counts per bin (an empty bin is a true zero),
/// mean metrics average samples per bin (an empty bin has no value).
struct BinnedSeries {
  std::vector<double> value;
  std::vector<bool> has;
};

BinnedSeries bin_series(const MetricSpec& metric,
                        const std::vector<runtime::MetricPoint>& pts, Time t0,
                        Duration window) {
  BinnedSeries b;
  b.value.assign(kSeriesBins, 0.0);
  b.has.assign(kSeriesBins, metric.kind == MetricSpec::Kind::kRate);
  std::vector<std::uint64_t> count(kSeriesBins, 0);
  for (const runtime::MetricPoint& p : pts) {
    if (p.t < t0 || p.t >= t0 + window) continue;
    const auto idx = static_cast<std::size_t>(
        static_cast<std::uint64_t>(p.t - t0) * kSeriesBins /
        static_cast<std::uint64_t>(window));
    const std::size_t i = std::min<std::size_t>(idx, kSeriesBins - 1);
    b.value[i] += p.v;
    ++count[i];
  }
  if (metric.kind == MetricSpec::Kind::kMean) {
    for (std::size_t i = 0; i < kSeriesBins; ++i) {
      if (count[i] > 0) {
        b.value[i] /= static_cast<double>(count[i]);
        b.has[i] = true;
      }
    }
  }
  return b;
}

/// The joined view of one attack: its classification-branch provenance and
/// the matching baseline branch's.
struct Joined {
  std::shared_ptr<const BranchProvenance> attack;
  std::shared_ptr<const BranchProvenance> baseline;
};

Joined join(const AttackReport& rep, const ProvenanceStore& store) {
  Joined j;
  if (!rep.provenance_key.empty()) j.attack = store.find(rep.provenance_key);
  if (!rep.baseline_key.empty()) j.baseline = store.find(rep.baseline_key);
  return j;
}

void append_series_json(std::string& out, const Scenario& sc, const Joined& j,
                        Time t0) {
  const BinnedSeries attack =
      bin_series(sc.metric, j.attack->series, t0, sc.window);
  BinnedSeries base;
  if (j.baseline != nullptr)
    base = bin_series(sc.metric, j.baseline->series, t0, sc.window);
  out += "\"series\":{\"metric\":\"" + json_escape(sc.metric.name) + "\"";
  out += ",\"t0\":" + std::to_string(t0);
  out += ",\"bin_ns\":" + std::to_string(sc.window / kSeriesBins);
  out += ",\"baseline\":[";
  for (int i = 0; i < kSeriesBins; ++i) {
    if (i) out += ",";
    if (j.baseline != nullptr && base.has[i]) {
      out += num(base.value[i]);
    } else {
      out += "null";
    }
  }
  out += "],\"attack\":[";
  for (int i = 0; i < kSeriesBins; ++i) {
    if (i) out += ",";
    out += attack.has[i] ? num(attack.value[i]) : "null";
  }
  out += "]}";
}

}  // namespace

void ProvenanceStore::add(std::shared_ptr<const BranchProvenance> p) {
  TURRET_CHECK(p != nullptr && !p->key.empty());
  map_[p->key] = std::move(p);
}

std::shared_ptr<const BranchProvenance> ProvenanceStore::find(
    std::string_view key) const {
  auto it = map_.find(key);
  return it != map_.end() ? it->second : nullptr;
}

BranchProvenance harvest_provenance(const ScenarioWorld& w, const Scenario& sc,
                                    std::string key, Time t0, Time t1,
                                    int windows) {
  BranchProvenance p;
  p.key = std::move(key);
  p.injection_time = t0;
  p.windows = windows;
  p.window = sc.window;
  p.metric = sc.metric.name;
  p.nodes = sc.testbed.net.nodes;
  p.series = w.testbed->metrics().points(sc.metric.name, t0, t1);
  if (const netem::FlightRecorder* rec = w.testbed->emulator().recorder()) {
    for (const netem::PacketRecord& r : rec->records()) {
      if (r.t >= t0 && r.t < t1) p.packets.push_back(r);
    }
    p.capture = rec->summary();
    p.links = rec->links();
  }
  if (const proxy::AuditLog* log = w.proxy->audit()) {
    for (const proxy::AuditRecord& r : log->records()) {
      if (r.t >= t0) p.audit.push_back(r);
    }
  }
  return p;
}

std::string provenance_json(const Scenario& sc, const SearchResult& res,
                            const ProvenanceStore& store) {
  std::string out = "{\"provenance\":[";
  for (std::size_t ai = 0; ai < res.attacks.size(); ++ai) {
    const AttackReport& rep = res.attacks[ai];
    if (ai) out += ",";
    out += "{\"attack\":\"" + json_escape(rep.action.describe()) + "\"";
    out += ",\"effect\":\"" + std::string(attack_effect_name(rep.effect)) +
           "\"";
    out += ",\"key\":\"" + json_escape(rep.provenance_key) + "\"";
    out += ",\"baseline_key\":\"" + json_escape(rep.baseline_key) + "\"";
    out += ",\"injection_time\":" + std::to_string(rep.injection_time);
    const Joined j = join(rep, store);
    if (j.attack == nullptr) {
      out += ",\"available\":false";
      out += ",\"reason\":\"no harvested branch (journal replay or capture "
             "disabled)\"}";
      continue;
    }
    out += ",\"available\":true";
    const Time t0 = j.attack->injection_time;

    const std::vector<MutationRow> muts = mutation_rows(*j.attack);
    out += ",\"mutations_total\":" + std::to_string(muts.size());
    out += ",\"mutations\":[";
    for (std::size_t i = 0; i < muts.size() && i < kMaxMutationRows; ++i) {
      if (i) out += ",";
      const proxy::AuditRecord& a = *muts[i].rec;
      const wire::FieldDiff& d = *muts[i].diff;
      out += "{\"t\":" + std::to_string(a.t);
      out += ",\"src\":" + std::to_string(a.src);
      out += ",\"dst\":" + std::to_string(a.dst);
      out += ",\"message\":\"" + json_escape(message_name(sc, a.tag)) + "\"";
      out += ",\"field\":\"" + json_escape(d.field) + "\"";
      out += ",\"type\":\"" + json_escape(d.type) + "\"";
      out += ",\"original\":\"" + json_escape(d.before) + "\"";
      out += ",\"mutated\":\"" + json_escape(d.after) + "\"}";
    }
    out += "]";

    out += ",\"decisions_total\":" + std::to_string(j.attack->audit.size());
    out += ",\"decisions\":[";
    for (std::size_t i = 0;
         i < j.attack->audit.size() && i < kMaxDecisionRows; ++i) {
      if (i) out += ",";
      const proxy::AuditRecord& a = j.attack->audit[i];
      out += "{\"seq\":" + std::to_string(a.seq);
      out += ",\"t\":" + std::to_string(a.t);
      out += ",\"decision\":\"" +
             std::string(audit_decision_name(a.decision)) + "\"";
      out += ",\"message\":\"" + json_escape(message_name(sc, a.tag)) + "\"";
      out += ",\"src\":" + std::to_string(a.src);
      out += ",\"dst\":" + std::to_string(a.dst);
      out += ",\"new_dst\":" + std::to_string(a.new_dst);
      out += ",\"copies\":" + std::to_string(a.copies);
      out += ",\"old_delivery\":" + std::to_string(a.old_delivery);
      out += ",\"new_delivery\":" + std::to_string(a.new_delivery) + "}";
    }
    out += "]";

    out += ",\"timeline_total\":" + std::to_string(j.attack->packets.size());
    out += ",\"timeline\":[";
    for (std::size_t i = 0;
         i < j.attack->packets.size() && i < kMaxTimelineRows; ++i) {
      if (i) out += ",";
      const netem::PacketRecord& p = j.attack->packets[i];
      out += "{\"t\":" + std::to_string(p.t);
      out += ",\"src\":" + std::to_string(p.src);
      out += ",\"dst\":" + std::to_string(p.dst);
      out += ",\"msg_id\":" + std::to_string(p.msg_id);
      out += ",\"frag\":" + std::to_string(p.frag_index);
      out += ",\"frags\":" + std::to_string(p.frag_count);
      out += ",\"size\":" + std::to_string(p.size);
      out += ",\"disposition\":\"" +
             std::string(netem::disposition_name(p.disposition)) + "\"";
      out += ",\"delay\":" + std::to_string(p.delay) + "}";
    }
    out += "]";

    out += ",\"links\":[";
    bool first_link = true;
    for (std::uint32_t s = 0; s < j.attack->nodes; ++s) {
      for (std::uint32_t d = 0; d < j.attack->nodes; ++d) {
        const netem::LinkCounters& c =
            j.attack->links[static_cast<std::size_t>(s) * j.attack->nodes + d];
        if (c.packets == 0 && c.drops == 0) continue;
        if (!first_link) out += ",";
        first_link = false;
        out += "{\"src\":" + std::to_string(s);
        out += ",\"dst\":" + std::to_string(d);
        out += ",\"bytes\":" + std::to_string(c.bytes);
        out += ",\"packets\":" + std::to_string(c.packets);
        out += ",\"drops\":" + std::to_string(c.drops) + "}";
      }
    }
    out += "]";

    out += ",\"capture\":{\"total_records\":" +
           std::to_string(j.attack->capture.total_records);
    out += ",\"overwritten\":" +
           std::to_string(j.attack->capture.overwritten) + "}";

    out += ",";
    append_series_json(out, sc, j, t0);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string append_provenance(const std::string& result_json,
                              const Scenario& sc, const SearchResult& res,
                              const ProvenanceStore& store) {
  TURRET_CHECK_MSG(!result_json.empty() && result_json.back() == '}',
                   "append_provenance: result_json is not a JSON object");
  std::string block = provenance_json(sc, res, store);
  // {"provenance":[...]} -> ,"provenance":[...] spliced before the final }.
  std::string out = result_json;
  out.pop_back();
  out += ",";
  out += std::string_view(block).substr(1, block.size() - 2);
  out += "}";
  return out;
}

std::string provenance_markdown(const Scenario& sc, const SearchResult& res,
                                const ProvenanceStore& store) {
  std::string md = "# Turret attack provenance report\n\n";
  md += "- system: `" + sc.system_name + "`\n";
  md += "- algorithm: `" + res.algorithm + "`\n";
  md += "- metric: `" + sc.metric.name + "` (" +
        (sc.metric.kind == MetricSpec::Kind::kRate ? "rate" : "mean") + ", " +
        (sc.metric.higher_is_better ? "higher" : "lower") + " is better)\n";
  md += "- delta: " + num(sc.delta) +
        ", window: " + format_duration(sc.window) + "\n";
  md += "- baseline performance: " + num(res.baseline_performance) + "\n";
  md += "- attacks: " + std::to_string(res.attacks.size()) +
        ", quarantined branches: " + std::to_string(res.failed.size()) + "\n";
  if (const auto discover = store.find("discover")) {
    md += "- discovery capture: " +
          std::to_string(discover->capture.total_records) +
          " packet records (" + std::to_string(discover->capture.overwritten) +
          " overwritten by the bounded ring)\n";
  }

  for (std::size_t ai = 0; ai < res.attacks.size(); ++ai) {
    const AttackReport& rep = res.attacks[ai];
    md += "\n## Attack " + std::to_string(ai + 1) + ": " +
          rep.action.describe() + "\n\n";
    md += "- effect: " + std::string(attack_effect_name(rep.effect)) + "\n";
    md += "- injection at " + format_time(rep.injection_time) + "; damage " +
          num(rep.damage * 100.0) + "% (baseline " +
          num(rep.baseline_performance) + " -> attacked " +
          num(rep.attacked_performance) + ", recovery " +
          num(rep.recovery_performance) + ")\n";
    if (rep.crashed_nodes > 0) {
      md += "- benign nodes crashed: " + std::to_string(rep.crashed_nodes) +
            "\n";
    }
    md += "- found after " + format_duration(rep.found_after) +
          " of search time\n";

    const Joined j = join(rep, store);
    if (j.attack == nullptr) {
      md += "\nProvenance unavailable for this attack (journal replay or "
            "capture disabled).\n";
      continue;
    }
    const Time t0 = j.attack->injection_time;

    const std::vector<MutationRow> muts = mutation_rows(*j.attack);
    if (!muts.empty()) {
      md += "\n### Mutated messages\n\n";
      md += "| time | src -> dst | message | field | original | mutated |\n";
      md += "|---|---|---|---|---|---|\n";
      for (std::size_t i = 0; i < muts.size() && i < kMaxMutationRows; ++i) {
        const proxy::AuditRecord& a = *muts[i].rec;
        const wire::FieldDiff& d = *muts[i].diff;
        md += "| " + format_time(a.t) + " | " + std::to_string(a.src) +
              " -> " + std::to_string(a.dst) + " | " +
              message_name(sc, a.tag) + " | " + d.field + " (" + d.type +
              ") | `" + d.before + "` | `" + d.after + "` |\n";
      }
      md += "\n" + std::to_string(muts.size()) + " mutation(s) total";
      if (muts.size() > kMaxMutationRows) {
        md += "; first " + std::to_string(kMaxMutationRows) + " shown";
      }
      md += ".\n";
    }

    md += "\n### Proxy decisions\n\n";
    md += "| time | decision | message | src -> dst | detail |\n";
    md += "|---|---|---|---|---|\n";
    for (std::size_t i = 0;
         i < j.attack->audit.size() && i < kMaxDecisionRows; ++i) {
      const proxy::AuditRecord& a = j.attack->audit[i];
      std::string detail;
      switch (a.decision) {
        case proxy::AuditDecision::kDropped:
          detail = "never delivered";
          break;
        case proxy::AuditDecision::kDelayed:
        case proxy::AuditDecision::kHeld:
          detail = "delivery " + format_time(a.old_delivery) + " -> " +
                   format_time(a.new_delivery);
          break;
        case proxy::AuditDecision::kDiverted:
          detail = "destination " + std::to_string(a.dst) + " -> " +
                   std::to_string(a.new_dst);
          break;
        case proxy::AuditDecision::kDuplicated:
          detail = "+" + std::to_string(a.copies) + " copies";
          break;
        case proxy::AuditDecision::kMutated:
          detail = std::to_string(a.diffs.size()) + " field(s) forged";
          break;
        case proxy::AuditDecision::kUndecodable:
          detail = "decode failed; passed through";
          break;
        case proxy::AuditDecision::kObserved:
          detail = "passed through";
          break;
      }
      md += "| " + format_time(a.t) + " | " +
            std::string(audit_decision_name(a.decision)) + " | " +
            message_name(sc, a.tag) + " | " + std::to_string(a.src) + " -> " +
            std::to_string(a.dst) + " | " + detail + " |\n";
    }
    md += "\n" + std::to_string(j.attack->audit.size()) +
          " decision(s) since injection";
    if (j.attack->audit.size() > kMaxDecisionRows) {
      md += "; first " + std::to_string(kMaxDecisionRows) + " shown";
    }
    md += ".\n";

    if (!j.attack->packets.empty()) {
      md += "\n### Delivery timeline\n\n";
      md += "| time | src -> dst | frag | bytes | disposition | delay |\n";
      md += "|---|---|---|---|---|---|\n";
      for (std::size_t i = 0;
           i < j.attack->packets.size() && i < kMaxTimelineRows; ++i) {
        const netem::PacketRecord& p = j.attack->packets[i];
        md += "| " + format_time(p.t) + " | " + std::to_string(p.src) +
              " -> " + std::to_string(p.dst) + " | " +
              (p.frag_count == 0
                   ? std::string("msg")
                   : std::to_string(p.frag_index) + "/" +
                         std::to_string(p.frag_count)) +
              " | " + std::to_string(p.size) + " | " +
              std::string(netem::disposition_name(p.disposition)) + " | " +
              (p.delay > 0 ? format_duration(p.delay) : std::string("-")) +
              " |\n";
      }
      md += "\n" + std::to_string(j.attack->packets.size()) +
            " packet record(s) in the window";
      if (j.attack->packets.size() > kMaxTimelineRows) {
        md += "; first " + std::to_string(kMaxTimelineRows) + " shown";
      }
      if (j.attack->capture.overwritten > 0) {
        md += " (ring overwrote " +
              std::to_string(j.attack->capture.overwritten) +
              " older records)";
      }
      md += ".\n";
    }

    md += "\n### Metric series: baseline vs attack\n\n";
    const BinnedSeries attack =
        bin_series(sc.metric, j.attack->series, t0, sc.window);
    BinnedSeries base;
    if (j.baseline != nullptr)
      base = bin_series(sc.metric, j.baseline->series, t0, sc.window);
    md += "| window offset | baseline | attack |\n";
    md += "|---|---|---|\n";
    const Duration bin = sc.window / kSeriesBins;
    for (int i = 0; i < kSeriesBins; ++i) {
      md += "| " + format_duration(i * bin) + " - " +
            format_duration((i + 1) * bin) + " | " +
            (j.baseline != nullptr && base.has[i] ? num(base.value[i])
                                                  : std::string("-")) +
            " | " + (attack.has[i] ? num(attack.value[i]) : std::string("-")) +
            " |\n";
    }
    md += "\n`" + sc.metric.name + "` ";
    md += sc.metric.kind == MetricSpec::Kind::kRate
              ? "events per bin over [injection, injection + w)"
              : "mean per bin over [injection, injection + w)";
    if (j.baseline == nullptr) {
      md += "; baseline branch provenance unavailable";
    }
    md += ".\n";
  }
  return md;
}

void write_capture_artifacts(const std::string& dir, const Scenario& sc,
                             const SearchResult& res,
                             const ProvenanceStore& store) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const std::uint32_t snaplen = sc.testbed.net.capture.snaplen;

  const std::string json = provenance_json(sc, res, store);
  const fs::path json_path = fs::path(dir) / "provenance.json";
  std::FILE* f = std::fopen(json_path.string().c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("cannot write " + json_path.string());
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);

  if (const auto discover = store.find("discover")) {
    netem::write_pcapng((fs::path(dir) / "discover.pcapng").string(),
                        discover->packets, snaplen);
  }
  for (std::size_t ai = 0; ai < res.attacks.size(); ++ai) {
    const auto p = store.find(res.attacks[ai].provenance_key);
    if (p == nullptr) continue;
    netem::write_pcapng(
        (fs::path(dir) / ("attack-" + std::to_string(ai + 1) + ".pcapng"))
            .string(),
        p->packets, snaplen);
  }
}

}  // namespace turret::search
