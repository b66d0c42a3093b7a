// Snapshot golden: the content digest of every discovery snapshot of every
// registered system, in the run `turret-run --system <name> --duration 4
// --window 1` makes. A snapshot holds each guest's protocol state — vote and
// reply sets included — and each VM's queued inputs, so this pins their save
// encodings byte for byte: a container swap that reorders a set or drops a
// queued input shows up as a changed digest here before any search result
// moves.
//
// Regenerate with TURRET_UPDATE_GOLDEN=1 only for an intended format change.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.h"
#include "golden_lines.h"
#include "search/executor.h"
#include "systems/registry.h"

namespace turret {
namespace {

constexpr char kGoldenFile[] = "snapshot_digests.json";

std::string system_key(std::string_view name) {
  return "\"system\":\"" + std::string(name) + "\"";
}

std::vector<std::string> discovery_digests(const systems::SystemEntry& entry) {
  search::Scenario sc = entry.make({});
  sc.duration = 4 * kSecond;
  sc.window = kSecond;
  search::BranchExecutor ex(sc);
  std::vector<std::string> lines;
  for (const auto& ip : ex.discover()) {
    Hasher128 h;
    h.update(BytesView{*ip.snapshot});
    const Digest128 d = h.digest();
    char digest[40];
    std::snprintf(digest, sizeof digest, "%016" PRIx64 "%016" PRIx64, d.hi,
                  d.lo);
    lines.push_back("{" + system_key(entry.name) + ",\"message\":\"" +
                    ip.message_name + "\",\"tag\":" + std::to_string(ip.tag) +
                    ",\"time\":" + std::to_string(ip.time) + ",\"bytes\":" +
                    std::to_string(ip.snapshot->size()) + ",\"digest\":\"" +
                    digest + "\"}");
  }
  return lines;
}

std::vector<std::string> system_names() {
  std::vector<std::string> names;
  for (const systems::SystemEntry& e : systems::system_registry())
    names.emplace_back(e.name);
  return names;
}

class SnapshotGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotGolden, DiscoverySnapshotsMatchGoldenFile) {
  if (golden::updating()) {
    std::vector<std::string> all;
    for (const systems::SystemEntry& e : systems::system_registry())
      for (std::string& line : discovery_digests(e))
        all.push_back(std::move(line));
    golden::write_lines(kGoldenFile, all);
    GTEST_SKIP() << "golden file regenerated: "
                 << golden::path_of(kGoldenFile);
  }
  const systems::SystemEntry* entry = systems::find_system(GetParam());
  ASSERT_NE(entry, nullptr);
  const std::vector<std::string> got = discovery_digests(*entry);
  ASSERT_FALSE(got.empty()) << GetParam() << ": discovery found no point";
  EXPECT_EQ(golden::joined(got),
            golden::joined(golden::lines_with(kGoldenFile,
                                              system_key(GetParam()))))
      << GetParam()
      << ": a discovery snapshot's bytes changed; if intentional, "
         "regenerate with TURRET_UPDATE_GOLDEN=1";
}

INSTANTIATE_TEST_SUITE_P(, SnapshotGolden, ::testing::ValuesIn(system_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace turret
