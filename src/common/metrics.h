// Deterministic percentile metrics: fixed-bucket log2 histograms
// (DESIGN.md §5i).
//
// The platform's determinism contract extends to every reported number, so
// quantiles cannot come from sampling sketches or merge-order-sensitive
// digests. A BasicHistogram is a fixed array of log2 buckets: add() is one
// increment of bucket min(bit_width(v), N-1), merge() is element-wise
// addition, and quantile() walks the buckets to the requested rank and
// returns the bucket's *exact lower bound* — a pure function of the sample
// multiset, so p50/p95/p99/p999 are byte-identical across --jobs and
// worker counts. The price is log2 resolution: the reported
// quantile q satisfies quantile(q) <= true_q < 2*quantile(q) (+1 for the
// bucket-0/1 boundary), which the property tests pin down.
//
// BasicHistogram<16> is layout- and serialization-compatible with the
// original netem::DelayHistogram (N raw u64 buckets), which now derives from
// it — one log2 implementation, byte-identical capture snapshots.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "serial/serial.h"

namespace turret::metrics {

template <std::size_t N>
struct BasicHistogram {
  static_assert(N >= 2, "a log2 histogram needs at least two buckets");
  static constexpr std::size_t kBuckets = N;

  std::array<std::uint64_t, N> bucket{};

  /// Bucket of value v: 0 holds v == 0, bucket i holds [2^(i-1), 2^i), the
  /// last bucket saturates (everything >= 2^(N-2)).
  static constexpr std::size_t bucket_index(std::uint64_t v) {
    const std::size_t b = static_cast<std::size_t>(std::bit_width(v));
    return b < N - 1 ? b : N - 1;
  }

  /// Smallest value that lands in bucket b (0 for bucket 0, else 2^(b-1)).
  static constexpr std::uint64_t bucket_lower_bound(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  void add(std::uint64_t v) { ++bucket[bucket_index(v)]; }

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t b : bucket) sum += b;
    return sum;
  }

  /// Element-wise sum: merging per-shard histograms commutes and associates,
  /// so fleet-wide quantiles are independent of merge order.
  void merge(const BasicHistogram& other) {
    for (std::size_t i = 0; i < N; ++i) bucket[i] += other.bucket[i];
  }

  /// Exact lower bound of the q-quantile (q in (0, 1]): the lower bound of
  /// the bucket holding the ceil(q * total)'th smallest sample. 0 when empty.
  /// Deterministic: integer rank arithmetic plus one bucket walk.
  std::uint64_t quantile(double q) const {
    const std::uint64_t count = total();
    if (count == 0) return 0;
    // rank = ceil(q * count), clamped into [1, count]. The multiply is IEEE
    // double and identical on every run of the same build.
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count));
    if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
    if (rank < 1) rank = 1;
    if (rank > count) rank = count;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < N; ++i) {
      cum += bucket[i];
      if (cum >= rank) return bucket_lower_bound(i);
    }
    return bucket_lower_bound(N - 1);  // unreachable: cum == count >= rank
  }

  /// N raw u64s — for N == 16 this is byte-identical to the flight
  /// recorder's historical DelayHistogram snapshot format.
  void save(serial::Writer& w) const {
    for (const std::uint64_t b : bucket) w.u64(b);
  }

  void load(serial::Reader& r) {
    for (std::uint64_t& b : bucket) b = r.u64();
  }

  bool operator==(const BasicHistogram&) const = default;
};

/// The metric-value histogram: 64 buckets cover the full u64 range, so
/// fixed-point metric values never saturate into a lossy last bucket.
using Histogram = BasicHistogram<64>;

/// Fixed-point scale for double-valued metrics: 1/1000ths of the metric's
/// native unit (latency_ms samples bucket at microsecond granularity).
inline constexpr double kValueScale = 1000.0;

/// Double metric value -> fixed-point histogram domain (negatives clamp to 0;
/// truncation, not rounding, so the mapping is monotone and exact).
std::uint64_t to_fixed(double v);

/// Histogram-domain value -> metric units (inverse of to_fixed's scaling).
double from_fixed(std::uint64_t v);

/// quantile() in metric units.
double quantile_value(const Histogram& h, double q);

}  // namespace turret::metrics
