// Self-tests for the benchmark harness: the decorators change no result,
// the self-time arithmetic is right, and every emitted metric name is valid
// and declared in BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"
#include "metrics.h"
#include "profile.h"
#include "replay.h"
#include "report.h"
#include "search/algorithms.h"
#include "systems/registry.h"
#include "timed.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace turret;

TEST(SpanStack, SelfTimeIsDurationMinusDirectChildren) {
  SpanStack s;
  s.enter(Layer::kRunUntil, 0);
  s.enter(Layer::kHandler, 10);
  s.enter(Layer::kSend, 12);
  s.enter(Layer::kProxy, 13);
  s.exit(15);      // proxy: 2
  s.exit(18, 64);  // send: 6, self 4
  s.exit(30);      // handler: 20, self 14
  s.enter(Layer::kProxy, 40);
  s.exit(45);      // proxy directly under run_until: 5
  s.exit(100);     // run_until: 100, self 100 - 20 - 5
  EXPECT_EQ(s.depth(), 0u);

  const Profile& p = s.totals();
  EXPECT_EQ(p[Layer::kRunUntil].incl_ns, 100);
  EXPECT_EQ(p[Layer::kRunUntil].self_ns, 75);
  EXPECT_EQ(p[Layer::kHandler].incl_ns, 20);
  EXPECT_EQ(p[Layer::kHandler].self_ns, 14);
  EXPECT_EQ(p[Layer::kSend].self_ns, 4);
  EXPECT_EQ(p[Layer::kSend].bytes, 64u);
  EXPECT_EQ(p[Layer::kProxy].calls, 2u);
  EXPECT_EQ(p[Layer::kProxy].incl_ns, 7);
  EXPECT_EQ(p[Layer::kProxy].self_ns, 7);

  // Self times partition the outermost span.
  std::int64_t self_sum = 0;
  for (const LayerTotals& t : p.layers) self_sum += t.self_ns;
  EXPECT_EQ(self_sum, 100);

  EXPECT_THROW(s.exit(101), std::logic_error);
}

TEST(SpanStack, CollectSumsEveryThreadAndResets) {
  collect();
  const auto work = [] {
    ScopedSpan outer(Layer::kHandler);
    ScopedSpan inner(Layer::kMetric);
  };
  std::thread a(work), b(work);
  a.join();
  b.join();
  work();
  const Profile p = collect();
  EXPECT_EQ(p[Layer::kHandler].calls, 3u);
  EXPECT_EQ(p[Layer::kMetric].calls, 3u);
  EXPECT_GE(p[Layer::kHandler].incl_ns, p[Layer::kHandler].self_ns);
  EXPECT_EQ(collect()[Layer::kHandler].calls, 0u);
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_EQ(quantile({}, 0.5), 0);
  EXPECT_EQ(quantile({3, 1, 2}, 0.5), 2);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.9), 9);
}

TEST(TimedFactory, WrappedAndUnwrappedSearchesAgree) {
  const Workload w{"test", "pbft", Algorithm::kWeighted, 4, 2, false};
  const search::Scenario sc = make_scenario(w, 7);
  search::Scenario timed = sc;
  timed.factory = timed_factory(sc.factory);

  const SearchRun plain = run_search(w, sc);
  collect();
  const SearchRun traced = run_search(w, timed);
  const Profile p = collect();
  set_default_jobs(0);

  ASSERT_FALSE(plain.result.attacks.empty());
  EXPECT_EQ(plain.json, traced.json);
  EXPECT_GT(p[Layer::kHandler].calls, 0u);
  EXPECT_GT(p[Layer::kSend].calls, 0u);
  EXPECT_GT(p[Layer::kGuestLoad].calls, 0u);

  // The replay reproduces every reported window through the decorators.
  const ReplayResult rp = replay_branches(w, timed, plain.result, 1);
  EXPECT_TRUE(rp.mismatches.empty()) << rp.mismatches.front();
  EXPECT_GT(rp.samples, plain.result.attacks.size());
  EXPECT_GT(rp.profile[Layer::kRunUntil].self_ns, 0);
  EXPECT_GT(rp.events, 0u);
}

TEST(MetricNames, ValidityRules) {
  EXPECT_TRUE(valid_metric_name("search.branch_ms_p50"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("CPU-s"));
  EXPECT_FALSE(valid_unit("emulated s"));
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 1, "s"}, {"a", 2, "s"}}),
               std::invalid_argument);
}

TEST(MetricNames, EveryEmittedNameIsValidAndDeclared) {
  Measured m;
  m.wall_s = {1.0};
  m.traced_wall_s = 1.5;
  m.result.cost.branches = 10;

  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string declared = ss.str();

  std::size_t emitted = 0;
  for (const auto& metrics : {end_to_end_metrics(m), per_layer_metrics(m)}) {
    EXPECT_NO_THROW(result_json(true, 1, 0, metrics));
    for (const Metric& x : metrics) {
      EXPECT_TRUE(valid_metric_name(x.name)) << x.name;
      EXPECT_TRUE(valid_unit(x.unit)) << x.unit;
      EXPECT_NE(declared.find("\"name\": \"" + x.name + "\""), std::string::npos)
          << x.name << " is not declared in BENCHMARK.json";
      EXPECT_NE(declared.find("\"unit\": \"" + x.unit + "\""), std::string::npos)
          << x.unit;
      ++emitted;
    }
  }
  for (const Workload& w : workloads()) {
    EXPECT_NE(declared.find("\"name\": \"" + std::string(w.name) + "\""),
              std::string::npos);
    ++emitted;
  }
  std::size_t names = 0;
  for (std::size_t at = declared.find("\"name\":"); at != std::string::npos;
       at = declared.find("\"name\":", at + 1))
    ++names;
  EXPECT_EQ(names, emitted) << "BENCHMARK.json declares names nothing emits";
}

}  // namespace
}  // namespace perfbench
