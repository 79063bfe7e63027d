// Pins the exact bits every aggregation entry point produces on one seeded
// dim-8 catalog: the group keys and the sum/count/min/max bits of every
// group, folded into one FNV-1a digest per entry point. The constants were
// captured from the node-based hash-map accumulator; any change to group
// order, key decoding or per-group merge order changes a digest.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "engine/batch_executor.h"
#include "engine/executor.h"

namespace olapidx {
namespace {

constexpr size_t kRows = 20000;

class Fnv64 {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t Digest(const std::vector<GroupedResult>& results) {
  Fnv64 h;
  for (const GroupedResult& r : results) {
    h.U64(r.group_attrs.size());
    for (int a : r.group_attrs) h.U64(static_cast<uint64_t>(a));
    h.U64(r.num_rows());
    h.U64(r.keys.size());
    for (size_t row = 0; row < r.num_rows(); ++row) {
      h.U64(r.keys[row].size());
      for (size_t i = 0; i < r.keys[row].size(); ++i) h.U64(r.keys[row][i]);
      const AggregateState& s = r.aggregates[row];
      h.Double(r.sums[row]);
      h.Double(s.sum);
      h.U64(s.count);
      h.Double(s.min);
      h.Double(s.max);
    }
  }
  return h.value();
}

// Eight dimensions, 51 key bits in all; attributes 0-3 alone take 36.
CubeSchema DigestSchema() {
  return CubeSchema({Dimension{"a", 1000}, Dimension{"b", 600},
                     Dimension{"c", 300}, Dimension{"d", 120},
                     Dimension{"e", 40}, Dimension{"f", 12},
                     Dimension{"g", 6}, Dimension{"h", 3}});
}

// Integer-only generation, so the data does not depend on libm: skewed
// dimension values (small codes are likelier) and measures with inexact
// binary fractions, so per-group sums depend on merge order.
FactTable DigestFacts() {
  const CubeSchema schema = DigestSchema();
  FactTable fact(schema);
  fact.Reserve(kRows);
  Pcg32 rng(20260417);
  std::vector<uint32_t> dims(8);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t a = 0; a < dims.size(); ++a) {
      const uint32_t card =
          static_cast<uint32_t>(schema.dimensions()[a].cardinality);
      dims[a] = rng.NextBounded(rng.NextBounded(card) + 1);
    }
    fact.Append(dims, static_cast<double>(rng.NextBounded(1u << 20)) / 1000.0);
  }
  return fact;
}

class AggregationDigestTest : public ::testing::Test {
 protected:
  AggregationDigestTest() : fact_(DigestFacts()), catalog_(&fact_) {
    catalog_.MaterializeView(AttributeSet::Of({0, 1, 2, 3}));
    catalog_.MaterializeView(AttributeSet::Of({0, 1, 2}));
    catalog_.MaterializeView(AttributeSet::Of({2, 3, 4, 5}));
    catalog_.MaterializeView(AttributeSet::Of({4, 5, 6, 7}));
    catalog_.MaterializeView(AttributeSet::Of({1, 5}));
    OLAPIDX_CHECK(
        catalog_.BuildIndex(AttributeSet::Of({0, 1, 2}), IndexKey({2, 0}))
            .ok());
    OLAPIDX_CHECK(
        catalog_.BuildIndex(AttributeSet::Of({4, 5, 6, 7}), IndexKey({7, 4}))
            .ok());
    catalog_.CompressAllViews();

    const CubeSchema schema = DigestSchema();
    // Wide group-bys where groups ≈ rows: from the view, from the raw
    // table, and the whole fact key; plus the grand total.
    Add(AttributeSet::Of({0, 1, 2, 3}), AttributeSet(), {});
    Add(AttributeSet::Of({0, 1, 2, 3, 4}), AttributeSet(), {});
    Add(AttributeSet::Of({0, 1, 2, 3, 4, 5, 6, 7}), AttributeSet(), {});
    Add(AttributeSet::Of({0, 1, 3}), AttributeSet::Of({7}), {1});
    Add(AttributeSet(), AttributeSet(), {});
    Pcg32 rng(77);
    for (int q = 0; q < 80; ++q) {
      uint32_t group = 0;
      uint32_t select = 0;
      std::vector<uint32_t> values;
      for (int a = 0; a < 8; ++a) {
        const uint32_t roll = rng.NextBounded(8);
        if (roll < 2) {
          group |= 1u << a;
        } else if (roll < 3) {
          select |= 1u << a;
          const uint32_t card = static_cast<uint32_t>(
              schema.dimensions()[static_cast<size_t>(a)].cardinality);
          values.push_back(rng.NextBounded(rng.NextBounded(card) + 1));
        }
      }
      Add(AttributeSet::FromMask(group), AttributeSet::FromMask(select),
          std::move(values));
    }
  }

  void Add(AttributeSet group, AttributeSet select,
           std::vector<uint32_t> values) {
    queries_.emplace_back(group, select);
    values_.push_back(std::move(values));
  }

  uint64_t SerialDigest(bool columnar) const {
    Executor exec(&catalog_);
    exec.set_use_column_store(columnar);
    std::vector<GroupedResult> out;
    for (size_t i = 0; i < queries_.size(); ++i) {
      out.push_back(exec.Execute(queries_[i], values_[i]));
    }
    return Digest(out);
  }

  uint64_t BatchDigest(size_t threads, bool columnar) const {
    BatchExecutor batch(&catalog_, threads);
    batch.set_use_column_store(columnar);
    return Digest(batch.ExecuteBatch(queries_, values_));
  }

  FactTable fact_;
  Catalog catalog_;
  std::vector<SliceQuery> queries_;
  std::vector<std::vector<uint32_t>> values_;
};

// Serial and batched execution over the same storage agree bit for bit,
// so each storage kind has one digest; the naive raw scan and the
// columnar store visit rows in other orders and so have their own.
constexpr uint64_t kNaiveDigest = 0x94993532530b6b74ULL;
constexpr uint64_t kRowDigest = 0xfc8825f56737d710ULL;
constexpr uint64_t kColumnarDigest = 0xd24b32a3bbfca264ULL;

TEST_F(AggregationDigestTest, WideGroupByHasAboutOneGroupPerRow) {
  Executor exec(&catalog_);
  GroupedResult r = exec.Execute(queries_[0], values_[0]);
  EXPECT_GT(r.num_rows(), kRows * 9 / 10);
  EXPECT_EQ(r.keys.size(), r.num_rows());
  ASSERT_GT(r.num_rows(), 0u);
  EXPECT_EQ(r.keys[0].size(), 4u);
}

TEST_F(AggregationDigestTest, ExecuteNaive) {
  Executor exec(&catalog_);
  std::vector<GroupedResult> out;
  for (size_t i = 0; i < queries_.size(); ++i) {
    out.push_back(exec.ExecuteNaive(queries_[i], values_[i]));
  }
  EXPECT_EQ(Digest(out), kNaiveDigest);
}

TEST_F(AggregationDigestTest, ExecuteRowStore) {
  EXPECT_EQ(SerialDigest(/*columnar=*/false), kRowDigest);
}

TEST_F(AggregationDigestTest, ExecuteColumnar) {
  EXPECT_EQ(SerialDigest(/*columnar=*/true), kColumnarDigest);
}

TEST_F(AggregationDigestTest, ExecuteBatchRowStore) {
  EXPECT_EQ(BatchDigest(1, /*columnar=*/false), kRowDigest);
  EXPECT_EQ(BatchDigest(8, /*columnar=*/false), kRowDigest);
}

TEST_F(AggregationDigestTest, ExecuteBatchColumnar) {
  EXPECT_EQ(BatchDigest(1, /*columnar=*/true), kColumnarDigest);
  EXPECT_EQ(BatchDigest(8, /*columnar=*/true), kColumnarDigest);
}

}  // namespace
}  // namespace olapidx
