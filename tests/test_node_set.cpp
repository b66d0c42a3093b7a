// NodeSet against std::set<std::uint32_t>: the guests' quorum sets swapped
// one for the other, so every observable — insert's result, size,
// membership, iteration order and the bytes a save loop writes — must match
// for any u32, lied ids (0xffffffff, random words) included.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.h"
#include "serial/serial.h"
#include "systems/replication/node_set.h"

namespace turret::systems {
namespace {

/// The save loop every guest runs over a vote set.
template <typename Set>
Bytes saved(const Set& s) {
  serial::Writer w;
  w.u32(static_cast<std::uint32_t>(s.size()));
  for (const std::uint32_t id : s) w.u32(id);
  return w.take();
}

std::uint32_t draw_id(Rng& rng) {
  switch (rng.next_below(10)) {
    case 0: return std::numeric_limits<std::uint32_t>::max();
    case 1:
    case 2: return static_cast<std::uint32_t>(rng.next_u64());
    default: return static_cast<std::uint32_t>(rng.next_below(71));
  }
}

void expect_same(const NodeSet& got, const std::set<std::uint32_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
            std::vector<std::uint32_t>(want.begin(), want.end()));
  EXPECT_EQ(saved(got), saved(want));
}

TEST(NodeSet, MatchesStdSetOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    NodeSet got;
    std::set<std::uint32_t> want;
    for (int op = 0; op < 300; ++op) {
      if (rng.next_below(50) == 0) {
        got.clear();
        want.clear();
      } else {
        const std::uint32_t id = draw_id(rng);
        ASSERT_EQ(got.insert(id), want.insert(id).second)
            << "seed " << seed << " op " << op << " id " << id;
      }
      const std::uint32_t probe = draw_id(rng);
      ASSERT_EQ(got.contains(probe), want.count(probe) != 0)
          << "seed " << seed << " probe " << probe;
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " op " << op;
    }
    expect_same(got, want);
  }
}

TEST(NodeSet, MaskAndOverflowIdsIterateAscending) {
  NodeSet s;
  std::set<std::uint32_t> want;
  for (const std::uint32_t id :
       {std::numeric_limits<std::uint32_t>::max(), 64u, 63u, 0u, 70u, 1u,
        0x80000000u, 63u, 64u}) {
    EXPECT_EQ(s.insert(id), want.insert(id).second) << id;
  }
  expect_same(s, want);
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_FALSE(s.contains(62));
  EXPECT_FALSE(s.contains(65));
  s.clear();
  expect_same(s, {});
}

TEST(NodeSet, CopiesAreIndependent) {
  NodeSet a;
  a.insert(3);
  a.insert(100);
  NodeSet b = a;
  b.insert(4);
  b.insert(200);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_FALSE(a.contains(4));
  EXPECT_FALSE(a.contains(200));
}

}  // namespace
}  // namespace turret::systems
