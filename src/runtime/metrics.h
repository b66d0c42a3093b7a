// Application-performance metric collection.
//
// Guests report progress ("updates" completions, request latencies) through
// GuestContext::count/record; the controller evaluates a malicious action by
// comparing a metric over the observation window [injection, injection + w)
// against the baseline branch over the same window. Series keep their full
// timestamped history so window queries are exact, and the collector is part
// of testbed snapshots so a restored branch sees the identical history.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "serial/serial.h"

namespace turret::runtime {

/// One raw metric sample, exported for provenance reports.
struct MetricPoint {
  Time t;
  double v;
};

struct SeriesSummary {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  double mean() const { return count ? sum / static_cast<double>(count) : 0; }
};

class MetricsCollector {
 public:
  /// Add `increment` occurrences of an event metric at time t.
  void count(std::string_view metric, Time t, double increment = 1.0);

  /// Record a sampled value (e.g. a latency) at time t.
  void record(std::string_view metric, Time t, double value);

  /// Events per second of a count metric over [t0, t1).
  double rate(std::string_view metric, Time t0, Time t1) const;

  /// Total of a count metric over [t0, t1).
  double total(std::string_view metric, Time t0, Time t1) const;

  /// min/mean/max of a value metric over [t0, t1).
  SeriesSummary summary(std::string_view metric, Time t0, Time t1) const;

  /// Raw samples of a metric (count or value series) over [t0, t1), in time
  /// order — the series export provenance reports plot against a baseline.
  std::vector<MetricPoint> points(std::string_view metric, Time t0,
                                  Time t1) const;

  /// Histogram of a value metric's samples inside [t0, t1) — the window
  /// query behind WindowPerf percentiles. Empty histogram for count metrics
  /// and unknown names. Deterministic: bucket adds commute, and the series
  /// itself is time-ordered.
  metrics::Histogram window_histogram(std::string_view metric, Time t0,
                                      Time t1) const;

  std::vector<std::string> metric_names() const;

  void save(serial::Writer& w) const;
  void load(serial::Reader& r);

 private:
  struct Sample {
    Time t;
    double v;
  };
  using Series = std::vector<Sample>;

  const Series* find(std::string_view metric) const;

  std::map<std::string, Series, std::less<>> counts_;
  std::map<std::string, Series, std::less<>> values_;
};

}  // namespace turret::runtime
