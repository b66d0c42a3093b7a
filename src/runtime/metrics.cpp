#include "runtime/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace turret::runtime {

void MetricsCollector::count(std::string_view metric, Time t, double increment) {
  auto it = counts_.find(metric);
  if (it == counts_.end())
    it = counts_.emplace(std::string(metric), Series{}).first;
  TURRET_CHECK_MSG(it->second.empty() || it->second.back().t <= t,
                   "metric samples must be time-ordered");
  it->second.push_back({t, increment});
}

void MetricsCollector::record(std::string_view metric, Time t, double value) {
  auto it = values_.find(metric);
  if (it == values_.end())
    it = values_.emplace(std::string(metric), Series{}).first;
  TURRET_CHECK_MSG(it->second.empty() || it->second.back().t <= t,
                   "metric samples must be time-ordered");
  it->second.push_back({t, value});
}

metrics::Histogram MetricsCollector::window_histogram(std::string_view metric,
                                                      Time t0, Time t1) const {
  metrics::Histogram h;
  if (t1 <= t0) return h;
  auto it = values_.find(metric);
  if (it == values_.end()) return h;
  const Series& s = it->second;
  auto lo = std::lower_bound(s.begin(), s.end(), t0,
                             [](const Sample& a, Time t) { return a.t < t; });
  for (; lo != s.end() && lo->t < t1; ++lo) h.add(metrics::to_fixed(lo->v));
  return h;
}

const MetricsCollector::Series* MetricsCollector::find(
    std::string_view metric) const {
  auto it = counts_.find(metric);
  if (it != counts_.end()) return &it->second;
  auto iv = values_.find(metric);
  if (iv != values_.end()) return &iv->second;
  return nullptr;
}

double MetricsCollector::total(std::string_view metric, Time t0, Time t1) const {
  if (t1 <= t0) return 0;  // empty or inverted window: nothing can fall in it
  auto it = counts_.find(metric);
  if (it == counts_.end()) return 0;
  const Series& s = it->second;
  auto lo = std::lower_bound(s.begin(), s.end(), t0,
                             [](const Sample& a, Time t) { return a.t < t; });
  double sum = 0;
  for (; lo != s.end() && lo->t < t1; ++lo) sum += lo->v;
  return sum;
}

double MetricsCollector::rate(std::string_view metric, Time t0, Time t1) const {
  if (t1 <= t0) return 0;
  const double secs = static_cast<double>(t1 - t0) / kSecond;
  return total(metric, t0, t1) / secs;
}

SeriesSummary MetricsCollector::summary(std::string_view metric, Time t0,
                                        Time t1) const {
  SeriesSummary out;
  if (t1 <= t0) return out;  // empty or inverted window
  auto it = values_.find(metric);
  if (it == values_.end()) return out;
  const Series& s = it->second;
  auto lo = std::lower_bound(s.begin(), s.end(), t0,
                             [](const Sample& a, Time t) { return a.t < t; });
  for (; lo != s.end() && lo->t < t1; ++lo) {
    if (out.count == 0) {
      out.min = out.max = lo->v;
    } else {
      out.min = std::min(out.min, lo->v);
      out.max = std::max(out.max, lo->v);
    }
    out.sum += lo->v;
    ++out.count;
  }
  return out;
}

std::vector<MetricPoint> MetricsCollector::points(std::string_view metric,
                                                  Time t0, Time t1) const {
  std::vector<MetricPoint> out;
  if (t1 <= t0) return out;
  const Series* s = find(metric);
  if (s == nullptr) return out;
  auto lo = std::lower_bound(s->begin(), s->end(), t0,
                             [](const Sample& a, Time t) { return a.t < t; });
  for (; lo != s->end() && lo->t < t1; ++lo) out.push_back({lo->t, lo->v});
  return out;
}

std::vector<std::string> MetricsCollector::metric_names() const {
  std::vector<std::string> names;
  for (const auto& [k, _] : counts_) names.push_back(k);
  for (const auto& [k, _] : values_) names.push_back(k);
  return names;
}

void MetricsCollector::save(serial::Writer& w) const {
  auto save_map = [&w](const std::map<std::string, Series, std::less<>>& m) {
    w.u32(static_cast<std::uint32_t>(m.size()));
    for (const auto& [name, series] : m) {
      w.str(name);
      w.u32(static_cast<std::uint32_t>(series.size()));
      for (const Sample& s : series) {
        w.i64(s.t);
        w.f64(s.v);
      }
    }
  };
  save_map(counts_);
  save_map(values_);
}

void MetricsCollector::load(serial::Reader& r) {
  auto load_map = [&r](std::map<std::string, Series, std::less<>>& m) {
    m.clear();
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string name = r.str();
      const std::uint32_t len = r.u32();
      Series series;
      series.reserve(len);
      for (std::uint32_t j = 0; j < len; ++j) {
        Sample s;
        s.t = r.i64();
        s.v = r.f64();
        series.push_back(s);
      }
      m.emplace(std::move(name), std::move(series));
    }
  };
  load_map(counts_);
  load_map(values_);
}

}  // namespace turret::runtime
