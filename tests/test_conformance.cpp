// Cross-system conformance: every message any guest emits in a live run must
// decode against the schema handed to Turret, on every system. This is the
// contract the malicious proxy depends on — if a guest's hand-written codec
// drifted from the `.msg` description, lying actions would corrupt rather
// than mutate. Also checks the determinism property on every system at once.
//
// The suite is parameterized over the system registry: a guest that registers
// there is conformance-tested automatically, with no edits here. Systems with
// an authenticated wire layer are audited through the adapter (the MAC
// trailer is stripped before decoding, exactly as the proxy does). A short
// weighted search per system guards the guest boundary.
#include <gtest/gtest.h>

#include "search/algorithms.h"
#include "search/executor.h"
#include "systems/registry.h"
#include "wire/signed_adapter.h"

namespace turret {
namespace {

search::Scenario scenario_for(const std::string& name) {
  const systems::SystemEntry* entry = systems::find_system(name);
  if (entry == nullptr) throw std::runtime_error("unregistered system: " + name);
  return entry->make({});
}

std::vector<std::string> registered_names() {
  std::vector<std::string> names;
  for (const systems::SystemEntry& e : systems::system_registry())
    names.emplace_back(e.name);
  return names;
}

/// Decodes every message crossing the network against the schema, looking
/// through the signed adapter's trailer when the scenario ships one.
struct SchemaAudit : netem::IngressInterceptor {
  const wire::Schema* schema = nullptr;
  bool has_adapter = false;
  std::uint64_t decoded = 0;
  std::uint64_t sealed = 0;
  std::vector<std::string> failures;

  std::vector<Delivery> on_send(Time, NodeId /*src*/, NodeId dst,
                                const MessageBuf& message) override {
    BytesView body = message;
    if (has_adapter && wire::SignedAdapter::looks_sealed(message)) {
      body = wire::SignedAdapter::inner_view(message);
      ++sealed;
    }
    try {
      const auto msg = wire::decode(*schema, body);
      (void)msg;
      ++decoded;
    } catch (const wire::WireError& e) {
      if (failures.size() < 5) failures.push_back(e.what());
    }
    return {{dst, message, 0}};
  }
};

class SystemConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(SystemConformance, EveryMessageDecodesAgainstTheSchema) {
  const auto sc = scenario_for(GetParam());
  runtime::Testbed tb(sc.testbed, sc.factory);
  SchemaAudit audit;
  audit.schema = sc.schema;
  audit.has_adapter = sc.signed_adapter != nullptr;
  tb.emulator().set_interceptor(&audit);
  tb.start();
  tb.run_for(8 * kSecond);
  EXPECT_GT(audit.decoded, 1000u) << "system barely ran";
  EXPECT_TRUE(audit.failures.empty())
      << "first failure: " << audit.failures.front();
  if (sc.signed_adapter) {
    EXPECT_EQ(audit.sealed, audit.decoded)
        << "signed system sent unsealed messages";
  }
}

TEST_P(SystemConformance, MakesProgressAndNobodyCrashes) {
  const auto sc = scenario_for(GetParam());
  auto w = search::make_scenario_world(sc);
  w.testbed->start();
  w.testbed->run_for(10 * kSecond);
  EXPECT_TRUE(w.testbed->crashed_nodes().empty());
  // Every system's client counts "updates" (Zyzzyva's search metric is
  // latency, but completions still tick).
  EXPECT_GT(w.testbed->metrics().total("updates", 0, 10 * kSecond), 10.0);
}

TEST_P(SystemConformance, HonestRunNeverTripsTamperDetection) {
  // An un-attacked fleet must never count a tampered message: every MAC the
  // guests produce verifies at every honest receiver.
  const auto sc = scenario_for(GetParam());
  auto w = search::make_scenario_world(sc);
  w.testbed->start();
  w.testbed->run_for(10 * kSecond);
  EXPECT_EQ(
      w.testbed->metrics().total(search::kTamperMetric, 0, 10 * kSecond), 0.0);
}

TEST_P(SystemConformance, SnapshotRoundTripsByteExact) {
  // save → load into a fresh testbed → save again must be byte-identical.
  const auto sc = scenario_for(GetParam());
  auto a = search::make_scenario_world(sc);
  a.testbed->start();
  a.testbed->run_for(4 * kSecond);
  const Bytes snap1 = a.testbed->save_snapshot();

  auto b = search::make_scenario_world(sc);
  b.testbed->load_snapshot(snap1);
  const Bytes snap2 = b.testbed->save_snapshot();
  EXPECT_EQ(snap1, snap2);
}

TEST_P(SystemConformance, BranchedExecutionMatchesOriginal) {
  const auto sc = scenario_for(GetParam());
  auto a = search::make_scenario_world(sc);
  a.testbed->start();
  a.testbed->run_for(4 * kSecond);
  const Bytes snap = a.testbed->save_snapshot();
  a.testbed->run_until(8 * kSecond);

  auto b = search::make_scenario_world(sc);
  b.testbed->load_snapshot(snap);
  b.testbed->run_until(8 * kSecond);

  EXPECT_EQ(a.testbed->metrics().total(sc.metric.name, 0, 8 * kSecond),
            b.testbed->metrics().total(sc.metric.name, 0, 8 * kSecond));
  EXPECT_EQ(a.testbed->save_snapshot(), b.testbed->save_snapshot());
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SystemConformance,
                         ::testing::ValuesIn(registered_names()),
                         [](const auto& info) { return info.param; });

// The guest boundary (common/check.h): whatever a guest does with hostile
// input — crash, stall, reply to a lied node id — is a guest outcome. A
// TURRET_CHECK in a quarantine record means a guest's reaction to a lie
// tripped a platform invariant instead.
class GuestBoundaryGuard : public ::testing::TestWithParam<std::string> {};

TEST_P(GuestBoundaryGuard, NoActionTripsAPlatformInvariant) {
  search::Scenario sc = scenario_for(GetParam());
  sc.duration = 4 * kSecond;
  sc.window = kSecond;
  const search::SearchResult res = search::weighted_greedy_search(sc);
  EXPECT_GT(res.cost.branches, 0u);
  for (const search::FailedBranch& f : res.failed) {
    EXPECT_EQ(f.error.find("TURRET_CHECK"), std::string::npos)
        << f.describe() << ": " << f.error;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, GuestBoundaryGuard,
                         ::testing::ValuesIn(registered_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace turret
