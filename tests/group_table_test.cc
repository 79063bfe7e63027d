#include "engine/group_table.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/rng.h"
#include "engine/executor.h"

namespace olapidx {
namespace {

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

using Oracle = std::map<uint64_t, AggregateState>;

// Feeds the same stream to a GroupTable and a std::map, then checks the
// sorted drain against the map group by group, bit for bit.
void ExpectMatchesOracle(const std::vector<uint64_t>& keys,
                         const std::vector<double>& measures) {
  GroupTable table;
  Oracle oracle;
  for (size_t i = 0; i < keys.size(); ++i) {
    const AggregateState s = AggregateState::OfMeasure(measures[i]);
    table.Merge(keys[i], s);
    oracle[keys[i]].Merge(s);
  }
  ASSERT_EQ(table.size(), oracle.size());
  auto it = oracle.begin();
  size_t visited = 0;
  table.ForEachSorted([&](uint64_t key, const AggregateState& state) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(key, it->first);
    EXPECT_TRUE(BitEq(state.sum, it->second.sum)) << "key " << key;
    EXPECT_EQ(state.count, it->second.count);
    EXPECT_TRUE(BitEq(state.min, it->second.min));
    EXPECT_TRUE(BitEq(state.max, it->second.max));
    ++it;
    ++visited;
  });
  EXPECT_EQ(visited, oracle.size());
}

// Measures with inexact binary fractions, so a group's sum bits depend on
// the order its rows merge in.
std::vector<double> Measures(Pcg32& rng, size_t n) {
  std::vector<double> out(n);
  for (double& m : out) {
    m = static_cast<double>(rng.NextBounded(1u << 24)) / 1000.0 - 8000.0;
  }
  return out;
}

TEST(GroupTableTest, EmptyTableDrainsNothing) {
  GroupTable table;
  EXPECT_EQ(table.size(), 0u);
  size_t visited = 0;
  table.ForEachSorted([&](uint64_t, const AggregateState&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(GroupTableTest, MergesEachGroupInAddOrder) {
  // (1e16 + 1) - 1e16 rounds to 0, while (1e16 - 1e16) + 1 is exactly 1:
  // the sum shows which order the three rows merged in.
  GroupTable table;
  for (double m : {1e16, 1.0, -1e16}) {
    table.Merge(7, AggregateState::OfMeasure(m));
  }
  for (double m : {1e16, -1e16, 1.0}) {
    table.Merge(9, AggregateState::OfMeasure(m));
  }
  std::vector<double> sums;
  table.ForEachSorted([&](uint64_t, const AggregateState& state) {
    sums.push_back(state.sum);
  });
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0], 0.0);
  EXPECT_EQ(sums[1], 1.0);
}

TEST(GroupTableTest, RandomStreamsMatchMapOracle) {
  Pcg32 rng(1234);
  for (uint32_t domain : {1u, 3u, 100u, 5000u, 1u << 30}) {
    const size_t n = 20000;
    std::vector<uint64_t> keys(n);
    for (uint64_t& k : keys) {
      // Skewed toward small keys, so groups repeat and interleave.
      k = rng.NextBounded(rng.NextBounded(domain) + 1);
    }
    SCOPED_TRACE(domain);
    ExpectMatchesOracle(keys, Measures(rng, n));
  }
}

TEST(GroupTableTest, FullWidthRandomKeysMatchMapOracle) {
  Pcg32 rng(99);
  std::vector<uint64_t> keys(30000);
  for (size_t i = 0; i < keys.size(); ++i) {
    // Every third key repeats an earlier one.
    keys[i] = (i % 3 == 2)
                  ? keys[rng.NextBounded(static_cast<uint32_t>(i))]
                  : (static_cast<uint64_t>(rng.Next()) << 32) | rng.Next();
  }
  ExpectMatchesOracle(keys, Measures(rng, keys.size()));
}

TEST(GroupTableTest, GrowsAcrossManyRehashes) {
  // 2^18 distinct keys take the slot array from 16 to 2^19 slots: fifteen
  // doublings, each re-slotting every group seen so far.
  const uint64_t n = uint64_t{1} << 18;
  GroupTable table;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t k = 0; k < n; ++k) {
      table.Merge(k * 0x9e3779b97f4a7c15ULL,
                  AggregateState::OfMeasure(static_cast<double>(pass)));
    }
  }
  ASSERT_EQ(table.size(), n);
  uint64_t prev = 0;
  size_t visited = 0;
  table.ForEachSorted([&](uint64_t key, const AggregateState& state) {
    if (visited > 0) {
      EXPECT_LT(prev, key);
    }
    EXPECT_EQ(state.count, 2u);
    EXPECT_EQ(state.sum, 1.0);
    prev = key;
    ++visited;
  });
  EXPECT_EQ(visited, n);
}

TEST(GroupTableTest, ExtremeKeysStayDistinct) {
  const std::vector<uint64_t> keys = {~0ULL, 0, 1, ~0ULL, 0, ~0ULL - 1,
                                      uint64_t{1} << 63, 0};
  ExpectMatchesOracle(keys, {1, 2, 3, 4, 5, 6, 7, 8});
  GroupTable table;
  for (uint64_t k : keys) table.Merge(k, AggregateState::OfMeasure(1.0));
  std::vector<uint64_t> order;
  table.ForEachSorted(
      [&](uint64_t key, const AggregateState&) { order.push_back(key); });
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, uint64_t{1} << 63,
                                          ~0ULL - 1, ~0ULL}));
}

TEST(GroupTableTest, KeysSharingLowBitsMatchMapOracle) {
  // Composite keys put the least-significant attribute in the low bits; a
  // group-by over high attributes only varies the top bits.
  Pcg32 rng(5);
  std::vector<uint64_t> keys;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < 4000; ++i) keys.push_back(i << 40);
    for (uint64_t i = 0; i < 4000; ++i) keys.push_back((i << 32) | 0xabcdu);
  }
  ExpectMatchesOracle(keys, Measures(rng, keys.size()));
}

TEST(GroupKeysTest, RowsCompareAndIndexLikeVectors) {
  GroupKeys a(2, 3);
  GroupKeys b(2, 3);
  for (size_t r = 0; r < 3; ++r) {
    a.MutableRow(r)[0] = b.MutableRow(r)[0] = static_cast<uint32_t>(r);
    a.MutableRow(r)[1] = b.MutableRow(r)[1] = static_cast<uint32_t>(10 * r);
  }
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[2], b[2]);
  EXPECT_EQ(a[2].size(), 2u);
  EXPECT_EQ(a[2][1], 20u);
  EXPECT_EQ(std::vector<uint32_t>(a[1].begin(), a[1].end()),
            (std::vector<uint32_t>{1, 10}));
  b.MutableRow(1)[1] = 11;
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a[1] == b[1]);
  EXPECT_EQ(::testing::PrintToString(b[1]), "{1, 11}");
}

TEST(GroupKeysTest, GrandTotalHasOneEmptyRow) {
  GroupKeys total(0, 1);
  EXPECT_EQ(total.size(), 1u);
  EXPECT_EQ(total[0].size(), 0u);
  EXPECT_FALSE(total == GroupKeys());
  EXPECT_EQ(::testing::PrintToString(total[0]), "{}");
}

}  // namespace
}  // namespace olapidx
