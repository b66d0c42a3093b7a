// Percentile metrics layer (DESIGN.md §5i): fixed-bucket log2 histograms
// whose quantiles are exact bucket lower bounds — pure functions of the
// sample multiset, hence byte-identical across --jobs and worker counts. The
// property tests here pin the quantile-vs-ground-truth relationship against
// sorted vectors, merge associativity, the fixed-point
// domain mapping, serialization round-trips (MetricsCollector snapshots,
// the netem DelayHistogram byte format), the --metric spec
// parser, and the headline behavior: a p99 damage metric flags tail attacks
// the mean ranks below threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "netem/capture.h"
#include "runtime/metrics.h"
#include "search/algorithms.h"
#include "search/executor.h"
#include "search/scenario.h"
#include "serial/serial.h"
#include "systems/pbft/pbft_scenario.h"
#include "wire/schema.h"

namespace turret {
namespace {

using metrics::Histogram;

TEST(Histogram, BucketGeometry) {
  // Bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i); the last bucket
  // saturates.
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    // The lower bound is the smallest value mapping into its own bucket.
    const std::uint64_t lb = Histogram::bucket_lower_bound(b);
    EXPECT_EQ(Histogram::bucket_index(lb), b) << "bucket " << b;
    if (lb > 0) EXPECT_EQ(Histogram::bucket_index(lb - 1), b - 1);
  }
}

TEST(Histogram, QuantileIsLowerBoundOfRankSampleAgainstSortedGroundTruth) {
  Rng rng(20260810);
  for (int round = 0; round < 50; ++round) {
    Histogram h;
    std::vector<std::uint64_t> sorted;
    const std::size_t n = 1 + rng.next_below(2000);
    for (std::size_t i = 0; i < n; ++i) {
      // Mixed magnitudes: shift a random u64 by a random amount so every
      // bucket (tiny and huge) gets exercised.
      const std::uint64_t v = rng.next_u64() >> rng.next_below(64);
      h.add(v);
      sorted.push_back(v);
    }
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(h.total(), sorted.size());
    for (const double q : {0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
      std::uint64_t rank =
          static_cast<std::uint64_t>(q * static_cast<double>(n));
      if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
      if (rank < 1) rank = 1;
      const std::uint64_t ground = sorted[rank - 1];
      // The reported quantile is EXACTLY the lower bound of the bucket that
      // holds the rank'th smallest sample — and therefore never above it.
      EXPECT_EQ(h.quantile(q),
                Histogram::bucket_lower_bound(Histogram::bucket_index(ground)))
          << "round " << round << " q " << q;
      EXPECT_LE(h.quantile(q), ground);
    }
  }
  Histogram empty;
  EXPECT_EQ(empty.quantile(0.99), 0u);
}

TEST(Histogram, MergeIsAssociativeCommutativeAndMatchesPooledSamples) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    Histogram a, b, c, pooled;
    for (Histogram* h : {&a, &b, &c}) {
      const std::size_t n = rng.next_below(500);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t v = rng.next_u64() >> rng.next_below(64);
        h->add(v);
        pooled.add(v);
      }
    }
    Histogram ab_c = a;  // (a ⊕ b) ⊕ c
    ab_c.merge(b);
    ab_c.merge(c);
    Histogram bc = b;  // a ⊕ (b ⊕ c)
    bc.merge(c);
    Histogram a_bc = a;
    a_bc.merge(bc);
    Histogram cba = c;  // reversed order
    cba.merge(b);
    cba.merge(a);
    EXPECT_EQ(ab_c, a_bc);
    EXPECT_EQ(ab_c, cba);
    // Sharded-and-merged equals one histogram over the pooled samples, so
    // fleet-wide quantiles are independent of how work was split.
    EXPECT_EQ(ab_c, pooled);
    EXPECT_EQ(ab_c.quantile(0.99), pooled.quantile(0.99));
  }
}

TEST(Histogram, SaveLoadRoundTripIsRawBuckets) {
  Histogram h;
  Rng rng(42);
  for (int i = 0; i < 300; ++i) h.add(rng.next_u64() >> rng.next_below(64));
  serial::Writer w;
  h.save(w);
  const Bytes bytes = w.take();
  EXPECT_EQ(bytes.size(), Histogram::kBuckets * sizeof(std::uint64_t));
  serial::Reader r{BytesView(bytes)};
  Histogram h2;
  h2.load(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(h, h2);
}

TEST(FixedPoint, MonotoneClampedAndScaled) {
  EXPECT_EQ(metrics::to_fixed(-5.0), 0u);
  EXPECT_EQ(metrics::to_fixed(0.0), 0u);
  EXPECT_EQ(metrics::to_fixed(1.0), 1000u);
  EXPECT_EQ(metrics::to_fixed(0.0004), 0u);  // truncation, not rounding
  EXPECT_EQ(metrics::to_fixed(12.345), 12345u);
  EXPECT_DOUBLE_EQ(metrics::from_fixed(1000), 1.0);
  // Values beyond the u64 fixed-point range saturate instead of wrapping.
  EXPECT_EQ(metrics::to_fixed(1e30), ~std::uint64_t{0});
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double a = static_cast<double>(rng.next_below(1u << 20)) / 7.0;
    const double b = static_cast<double>(rng.next_below(1u << 20)) / 7.0;
    if (a <= b) {
      EXPECT_LE(metrics::to_fixed(a), metrics::to_fixed(b));
    } else {
      EXPECT_GE(metrics::to_fixed(a), metrics::to_fixed(b));
    }
  }
}

TEST(MetricsCollector, HistogramsSurviveSnapshotRoundTrip) {
  runtime::MetricsCollector mc;
  for (int i = 0; i < 100; ++i) {
    mc.count("updates", i * kSecond / 10);
    mc.record("latency_ms", i * kSecond / 10, 10.0 + (i % 7));
  }
  serial::Writer w;
  mc.save(w);
  const Bytes bytes = w.take();
  serial::Reader r{BytesView(bytes)};
  runtime::MetricsCollector restored;
  restored.load(r);
  EXPECT_TRUE(r.exhausted());
  // Histograms are computed from the restored samples on demand, so a
  // restored branch reports the original's percentiles over any window.
  const Histogram whole =
      restored.window_histogram("latency_ms", 0, 100 * kSecond);
  EXPECT_EQ(whole.total(), 100u);
  EXPECT_EQ(whole, mc.window_histogram("latency_ms", 0, 100 * kSecond));
  EXPECT_EQ(restored.window_histogram("latency_ms", 2 * kSecond, 5 * kSecond),
            mc.window_histogram("latency_ms", 2 * kSecond, 5 * kSecond));
}

TEST(MetricsCollector, WindowHistogramMatchesWindowSamples) {
  runtime::MetricsCollector mc;
  for (int i = 0; i < 10; ++i) {
    mc.record("latency_ms", i * kSecond, static_cast<double>(1 << i));
  }
  Histogram expected;
  for (int i = 3; i < 7; ++i) {
    expected.add(metrics::to_fixed(static_cast<double>(1 << i)));
  }
  EXPECT_EQ(mc.window_histogram("latency_ms", 3 * kSecond, 7 * kSecond),
            expected);
  // Empty for unknown series and count metrics alike.
  mc.count("updates", kSecond);
  EXPECT_EQ(mc.window_histogram("updates", 0, 10 * kSecond).total(), 0u);
  EXPECT_EQ(mc.window_histogram("nope", 0, 10 * kSecond).total(), 0u);
}

TEST(MetricSpecParser, SelectorsQuantilesAndRejects) {
  using search::MetricSpec;
  const auto rate = search::parse_metric_spec("updates");
  ASSERT_TRUE(rate.has_value());
  EXPECT_EQ(rate->kind, MetricSpec::Kind::kRate);
  EXPECT_EQ(rate->name, "updates");
  EXPECT_TRUE(rate->higher_is_better);

  const auto mean = search::parse_metric_spec("mean(latency_ms)");
  ASSERT_TRUE(mean.has_value());
  EXPECT_EQ(mean->kind, MetricSpec::Kind::kMean);
  EXPECT_EQ(mean->name, "latency_ms");
  EXPECT_FALSE(mean->higher_is_better);

  const struct {
    const char* spec;
    double q;
  } quantiles[] = {{"p50(latency_ms)", 0.50},
                   {"p95(latency_ms)", 0.95},
                   {"p99(latency_ms)", 0.99},
                   {"p999(latency_ms)", 0.999}};
  for (const auto& [spec, q] : quantiles) {
    const auto m = search::parse_metric_spec(spec);
    ASSERT_TRUE(m.has_value()) << spec;
    EXPECT_EQ(m->kind, MetricSpec::Kind::kQuantile) << spec;
    EXPECT_EQ(m->name, "latency_ms") << spec;
    EXPECT_DOUBLE_EQ(m->quantile, q) << spec;
    EXPECT_FALSE(m->higher_is_better) << spec;
    EXPECT_EQ(search::metric_spec_name(*m), spec);  // round-trips
  }
  EXPECT_EQ(search::metric_spec_name(*rate), "updates");
  EXPECT_EQ(search::metric_spec_name(*mean), "mean(latency_ms)");

  for (const char* bad :
       {"", "p99(", "p99()", "p99latency)", "mean()", "(latency)", "p98(x)"}) {
    EXPECT_EQ(search::parse_metric_spec(bad), std::nullopt) << "'" << bad
                                                            << "'";
  }
}

// The headline property: a 1%-of-requests tail attack moves p99 damage past
// any reasonable threshold while mean damage stays below it — the class of
// attack a mean-ranked search reports as harmless.
TEST(TailDamage, P99FlagsAttacksTheMeanRanksBelowThreshold) {
  runtime::MetricsCollector baseline_mc;
  runtime::MetricsCollector attacked_mc;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const Time t = i * (kSecond / 100);
    baseline_mc.record("latency_ms", t, 10.0);
    // Attacked run: 2% of requests take 200ms instead of 10ms — enough to
    // own the p99 rank (the 990th of 1000 sorted samples) but a rounding
    // error on the mean.
    attacked_mc.record("latency_ms", t, i % 50 == 0 ? 200.0 : 10.0);
  }
  const auto perf = [&](const runtime::MetricsCollector& mc,
                        const search::MetricSpec& m) {
    search::WindowPerf p;
    const runtime::SeriesSummary s = mc.summary(m.name, 0, 10 * kSecond);
    p.samples = s.count;
    const Histogram h = mc.window_histogram(m.name, 0, 10 * kSecond);
    p.value = m.kind == search::MetricSpec::Kind::kQuantile
                  ? metrics::quantile_value(h, m.quantile)
                  : s.mean();
    return p;
  };
  const search::MetricSpec mean = *search::parse_metric_spec("mean(latency_ms)");
  const search::MetricSpec p99 = *search::parse_metric_spec("p99(latency_ms)");
  const double mean_damage = search::compute_damage(
      mean, perf(baseline_mc, mean), perf(attacked_mc, mean));
  const double p99_damage = search::compute_damage(
      p99, perf(baseline_mc, p99), perf(attacked_mc, p99));
  const double delta = 0.8;  // a threshold the mean cannot reach here
  // Mean damage ≈ (13.8 - 10) / 10 ≈ 0.38; p99 jumps several log2 buckets.
  EXPECT_LT(mean_damage, delta);
  EXPECT_GT(p99_damage, delta);
  EXPECT_GT(p99_damage, mean_damage * 2);
}

// The netem flight recorder's DelayHistogram is now the common BasicHistogram
// — its 16-raw-u64 snapshot byte format and microsecond bucket mapping must
// be exactly what the historical capture format wrote.
TEST(DelayHistogram, ByteFormatAndBucketMappingAreUnchanged) {
  netem::DelayHistogram h;
  h.add(0);
  h.add(kMicrosecond);          // 1us -> bucket 1
  h.add(3 * kMicrosecond);      // 3us -> bucket 2
  h.add(kSecond);               // 1e6 us -> bucket min(bit_width, 15) = 15
  EXPECT_EQ(h.bucket[0], 1u);
  EXPECT_EQ(h.bucket[1], 1u);
  EXPECT_EQ(h.bucket[2], 1u);
  EXPECT_EQ(h.bucket[15], 1u);
  EXPECT_EQ(h.total(), 4u);
  serial::Writer w;
  h.save(w);
  const Bytes bytes = w.take();
  ASSERT_EQ(bytes.size(), 16 * sizeof(std::uint64_t));
  serial::Reader r{BytesView(bytes)};
  netem::DelayHistogram h2;
  h2.load(r);
  EXPECT_TRUE(r.exhausted());
  for (std::size_t i = 0; i < netem::DelayHistogram::kBuckets; ++i) {
    EXPECT_EQ(h2.bucket[i], h.bucket[i]) << "bucket " << i;
  }
}

// ---------------------------------------------------------------------------
// End-to-end acceptance: a weighted search ranked by p99(latency_ms) reports
// a PBFT tail attack as degradation while the same search ranked by
// mean(latency_ms) leaves the identical action below threshold. A malicious
// primary that drops 10% of PrePrepares makes one request in ten wait out the
// 500 ms client retry timer — a two-log2-decade p99 excursion the mean
// dilutes by the 90% of unaffected requests.

search::Scenario tail_attack_scenario(const char* metric) {
  systems::pbft::PbftScenarioOptions opt;
  opt.malicious_primary = true;
  search::Scenario sc = systems::pbft::make_pbft_scenario(opt);
  static const wire::Schema schema = wire::parse_schema(R"(
protocol pbft;
message PrePrepare = 2 {
  u32   view;
  u64   seq;
  u32   primary;
  i32   batch_size;
  bytes digest;
  bytes payload;
}
)");
  sc.schema = &schema;
  sc.warmup = 2 * kSecond;
  sc.duration = 12 * kSecond;
  sc.window = 4 * kSecond;
  sc.actions.drop_probabilities = {0.1};
  sc.actions.delays = {};
  sc.actions.duplicate_counts = {};
  sc.actions.divert = false;
  sc.actions.lie_random = false;
  sc.actions.relative_operands = {};
  sc.metric = *search::parse_metric_spec(metric);
  sc.delta = 8.0;
  return sc;
}

TEST(TailSearch, P99SearchFindsTheDropAttackTheMeanRanksBelowThreshold) {
  const search::Scenario p99_sc = tail_attack_scenario("p99(latency_ms)");
  const search::SearchResult by_p99 = search::weighted_greedy_search(p99_sc);
  const search::AttackReport* tail = nullptr;
  for (const search::AttackReport& a : by_p99.attacks) {
    if (a.effect == search::AttackEffect::kDegradation &&
        a.action.kind == proxy::ActionKind::kDrop) {
      tail = &a;
    }
  }
  ASSERT_NE(tail, nullptr)
      << "p99 ranking missed the tail attack: " << by_p99.to_json();
  EXPECT_GT(tail->damage, p99_sc.delta);
  // The report carries the baseline-vs-attack percentile table, and the
  // attack visibly lives in the tail: p99 degrades by far more than p50.
  ASSERT_TRUE(tail->has_percentiles);
  EXPECT_GT(tail->attacked_p99, tail->baseline_p99 * (1 + p99_sc.delta));
  EXPECT_LT(tail->attacked_p50 - tail->baseline_p50,
            tail->attacked_p99 - tail->baseline_p99);

  // Identical scenario, mean ranking: the same drop action stays below
  // threshold, so a mean-ranked search never reports it as degradation.
  const search::Scenario mean_sc = tail_attack_scenario("mean(latency_ms)");
  const search::SearchResult by_mean = search::weighted_greedy_search(mean_sc);
  for (const search::AttackReport& a : by_mean.attacks) {
    if (a.action.kind != proxy::ActionKind::kDrop) continue;
    EXPECT_NE(a.effect, search::AttackEffect::kDegradation) << a.describe();
    EXPECT_LT(a.damage, mean_sc.delta) << a.describe();
  }
}

}  // namespace
}  // namespace turret
