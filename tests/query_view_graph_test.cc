#include "core/query_view_graph.h"

#include <cmath>

#include <gtest/gtest.h>

namespace olapidx {
namespace {

TEST(QueryViewGraphTest, BuildAndIntrospect) {
  QueryViewGraph g;
  uint32_t v0 = g.AddView("V0", 10.0);
  uint32_t v1 = g.AddView("V1", 5.0);
  int32_t i0 = g.AddIndex(v0, "I0", 10.0);
  uint32_t q0 = g.AddQuery("Q0", 100.0, 2.0);
  uint32_t q1 = g.AddQuery("Q1", 50.0);
  g.AddViewEdge(q0, v0, 10.0);
  g.AddIndexEdge(q0, v0, i0, 2.0);
  g.AddViewEdge(q1, v1, 5.0);
  g.Finalize();

  EXPECT_EQ(g.num_views(), 2u);
  EXPECT_EQ(g.num_queries(), 2u);
  EXPECT_EQ(g.num_structures(), 3u);
  EXPECT_EQ(g.view_name(v0), "V0");
  EXPECT_EQ(g.view_space(v0), 10.0);
  EXPECT_EQ(g.num_indexes(v0), 1);
  EXPECT_EQ(g.num_indexes(v1), 0);
  EXPECT_EQ(g.index_space(v0, i0), 10.0);
  EXPECT_EQ(g.query_default_cost(q0), 100.0);
  EXPECT_EQ(g.query_frequency(q0), 2.0);
  EXPECT_EQ(g.query_frequency(q1), 1.0);
  // τ(G, ∅) = 2·100 + 1·50.
  EXPECT_NEAR(g.DefaultTotalCost(), 250.0, 1e-12);

  ASSERT_EQ(g.ViewQueries(v0).size(), 1u);
  EXPECT_EQ(g.ViewQueries(v0)[0], q0);
  EXPECT_EQ(g.ViewCostAt(v0, 0), 10.0);
  EXPECT_EQ(g.IndexCostAt(v0, i0, 0), 2.0);
  ASSERT_EQ(g.ViewQueries(v1).size(), 1u);
  EXPECT_EQ(g.ViewCostAt(v1, 0), 5.0);
}

TEST(QueryViewGraphTest, MissingEdgesAreInfinite) {
  QueryViewGraph g;
  uint32_t v = g.AddView("V", 1.0);
  int32_t i = g.AddIndex(v, "I", 1.0);
  uint32_t q = g.AddQuery("Q", 10.0);
  // Only an index edge, no view edge.
  g.AddIndexEdge(q, v, i, 3.0);
  g.Finalize();
  ASSERT_EQ(g.ViewQueries(v).size(), 1u);
  EXPECT_TRUE(std::isinf(g.ViewCostAt(v, 0)));
  EXPECT_EQ(g.IndexCostAt(v, i, 0), 3.0);
}

TEST(QueryViewGraphTest, MultigraphKeepsCheapestLabel) {
  QueryViewGraph g;
  uint32_t v = g.AddView("V", 1.0);
  uint32_t q = g.AddQuery("Q", 10.0);
  g.AddViewEdge(q, v, 7.0);
  g.AddViewEdge(q, v, 4.0);
  g.AddViewEdge(q, v, 9.0);
  g.Finalize();
  EXPECT_EQ(g.ViewCostAt(v, 0), 4.0);
}

TEST(QueryViewGraphTest, StructureNames) {
  QueryViewGraph g;
  uint32_t v = g.AddView("ps", 1.0);
  int32_t i = g.AddIndex(v, "I_sp", 1.0);
  g.Finalize();
  EXPECT_EQ(g.StructureName(StructureRef{v, StructureRef::kNoIndex}), "ps");
  EXPECT_EQ(g.StructureName(StructureRef{v, i}), "I_sp(ps)");
  EXPECT_EQ(g.structure_space(StructureRef{v, i}), 1.0);
}

TEST(QueryViewGraphTest, ViewsWithNoEdgesHaveEmptyQueryLists) {
  QueryViewGraph g;
  g.AddView("V0", 1.0);
  uint32_t v1 = g.AddView("V1", 1.0);
  uint32_t q = g.AddQuery("Q", 10.0);
  g.AddViewEdge(q, v1, 1.0);
  g.Finalize();
  EXPECT_TRUE(g.ViewQueries(0).empty());
  EXPECT_EQ(g.ViewQueries(v1).size(), 1u);
}

TEST(QueryViewGraphDeathTest, EdgesAfterFinalizeRejected) {
  QueryViewGraph g;
  uint32_t v = g.AddView("V", 1.0);
  uint32_t q = g.AddQuery("Q", 1.0);
  g.Finalize();
  EXPECT_DEATH(g.AddViewEdge(q, v, 1.0), "CHECK");
}

TEST(QueryViewGraphDeathTest, BadIndexPositionRejected) {
  QueryViewGraph g;
  uint32_t v = g.AddView("V", 1.0);
  uint32_t q = g.AddQuery("Q", 1.0);
  EXPECT_DEATH(g.AddIndexEdge(q, v, 0, 1.0), "CHECK");
}

TEST(QueryViewGraphTest, LazyIndexesRenderNamesOnDemand) {
  QueryViewGraph g;
  g.SetNameDictionary({"p", "s", "c"});
  uint32_t v = g.AddView("psc", 6.0);
  g.AddIndexes(v, {IndexKey({0, 1}), IndexKey({1, 0}), IndexKey({2})}, 6.0,
               0.5);
  EXPECT_EQ(g.num_indexes(v), 3);
  EXPECT_EQ(g.num_structures(), 4u);
  EXPECT_EQ(g.index_name(v, 0), "I_ps");
  EXPECT_EQ(g.index_name(v, 1), "I_sp");
  EXPECT_EQ(g.index_name(v, 2), "I_c");
  EXPECT_EQ(g.StructureName(StructureRef{v, 1}), "I_sp(psc)");
  EXPECT_EQ(g.index_space(v, 0), 6.0);
  EXPECT_EQ(g.index_space(v, 2), 6.0);
  EXPECT_EQ(g.structure_maintenance(StructureRef{v, 1}), 0.5);
  EXPECT_EQ(g.index_key(v, 1), IndexKey({1, 0}));
}

TEST(QueryViewGraphTest, IndexEdgeRunExpandsToEveryIndexInRange) {
  QueryViewGraph g;
  g.SetNameDictionary({"a", "b"});
  uint32_t v = g.AddView("ab", 4.0);
  g.AddIndexes(v, {IndexKey({0}), IndexKey({1}), IndexKey({0, 1}),
                   IndexKey({1, 0})},
               4.0);
  uint32_t q = g.AddQuery("Q", 10.0);
  g.AddViewEdge(q, v, 4.0);
  g.AddIndexEdgeRun(q, v, 1, 3, 2.0);  // indexes 1 and 2, not 0 or 3
  g.Finalize();
  ASSERT_EQ(g.ViewQueries(v).size(), 1u);
  EXPECT_EQ(g.ViewCostAt(v, 0), 4.0);
  EXPECT_TRUE(std::isinf(g.IndexCostAt(v, 0, 0)));
  EXPECT_EQ(g.IndexCostAt(v, 1, 0), 2.0);
  EXPECT_EQ(g.IndexCostAt(v, 2, 0), 2.0);
  EXPECT_TRUE(std::isinf(g.IndexCostAt(v, 3, 0)));
}

TEST(QueryViewGraphTest, FinalizeMergesDuplicateAndOutOfOrderEdges) {
  QueryViewGraph g;
  uint32_t v0 = g.AddView("V0", 1.0);
  uint32_t v1 = g.AddView("V1", 1.0);
  int32_t i0 = g.AddIndex(v1, "I0", 1.0);
  uint32_t q0 = g.AddQuery("Q0", 10.0);
  uint32_t q1 = g.AddQuery("Q1", 10.0);
  // Deliberately interleaved across views, descending query order, with
  // duplicates on both view and index labels.
  g.AddViewEdge(q1, v1, 7.0);
  g.AddIndexEdge(q0, v1, i0, 5.0);
  g.AddViewEdge(q1, v0, 3.0);
  g.AddViewEdge(q0, v0, 2.0);
  g.AddIndexEdge(q0, v1, i0, 4.0);  // cheaper duplicate wins
  g.AddViewEdge(q1, v1, 9.0);       // more expensive duplicate loses
  g.Finalize();
  ASSERT_EQ(g.ViewQueries(v0), (std::vector<uint32_t>{q0, q1}));
  EXPECT_EQ(g.ViewCostAt(v0, 0), 2.0);
  EXPECT_EQ(g.ViewCostAt(v0, 1), 3.0);
  ASSERT_EQ(g.ViewQueries(v1), (std::vector<uint32_t>{q0, q1}));
  EXPECT_TRUE(std::isinf(g.ViewCostAt(v1, 0)));
  EXPECT_EQ(g.ViewCostAt(v1, 1), 7.0);
  EXPECT_EQ(g.IndexCostAt(v1, i0, 0), 4.0);
  EXPECT_TRUE(std::isinf(g.IndexCostAt(v1, i0, 1)));
  EXPECT_EQ(g.QueryViews(q0), (std::vector<uint32_t>{v0, v1}));
  EXPECT_EQ(g.QueryViews(q1), (std::vector<uint32_t>{v0, v1}));
}

TEST(QueryViewGraphTest, ShardMergedBatchesMatchDirectEdges) {
  // The same edges delivered as two ConsumeEdgeRuns shard batches (as the
  // parallel builder does) and as direct calls must finalize identically.
  auto build_direct = [] {
    QueryViewGraph g;
    g.SetNameDictionary({"a", "b"});
    uint32_t v0 = g.AddView("V0", 1.0);
    uint32_t v1 = g.AddView("V1", 2.0);
    g.AddIndexes(v1, {IndexKey({0}), IndexKey({1})}, 2.0);
    g.AddQuery("Q0", 10.0);
    g.AddQuery("Q1", 10.0);
    g.AddViewEdge(0, v0, 1.0);
    g.AddViewEdge(0, v1, 2.0);
    g.AddIndexEdgeRun(0, v1, 0, 2, 0.5);
    g.AddViewEdge(1, v1, 2.0);
    g.AddIndexEdgeRun(1, v1, 1, 2, 0.25);
    g.Finalize();
    return g;
  };
  auto build_sharded = [] {
    QueryViewGraph g;
    g.SetNameDictionary({"a", "b"});
    uint32_t v0 = g.AddView("V0", 1.0);
    uint32_t v1 = g.AddView("V1", 2.0);
    g.AddIndexes(v1, {IndexKey({0}), IndexKey({1})}, 2.0);
    g.AddQuery("Q0", 10.0);
    g.AddQuery("Q1", 10.0);
    std::vector<EdgeRun> batch = {
        EdgeRun{0, v0, StructureRef::kNoIndex, StructureRef::kNoIndex, 1.0},
        EdgeRun{0, v1, StructureRef::kNoIndex, StructureRef::kNoIndex, 2.0},
        EdgeRun{0, v1, 0, 2, 0.5},
    };
    g.ConsumeEdgeRuns(batch);
    EXPECT_TRUE(batch.empty());
    batch = {
        EdgeRun{1, v1, StructureRef::kNoIndex, StructureRef::kNoIndex, 2.0},
        EdgeRun{1, v1, 1, 2, 0.25},
    };
    g.ConsumeEdgeRuns(batch);
    g.Finalize();
    return g;
  };
  QueryViewGraph direct = build_direct();
  QueryViewGraph sharded = build_sharded();
  for (uint32_t v = 0; v < direct.num_views(); ++v) {
    ASSERT_EQ(direct.ViewQueries(v), sharded.ViewQueries(v));
    for (size_t pos = 0; pos < direct.ViewQueries(v).size(); ++pos) {
      EXPECT_EQ(direct.ViewCostAt(v, pos), sharded.ViewCostAt(v, pos));
      for (int32_t k = 0; k < direct.num_indexes(v); ++k) {
        EXPECT_EQ(direct.IndexCostAt(v, k, pos),
                  sharded.IndexCostAt(v, k, pos));
      }
    }
  }
  for (uint32_t q = 0; q < direct.num_queries(); ++q) {
    EXPECT_EQ(direct.QueryViews(q), sharded.QueryViews(q));
  }
  EXPECT_EQ(direct.Fingerprint(), sharded.Fingerprint());
}

TEST(QueryViewGraphDeathTest, MixingEagerAndLazyIndexesRejected) {
  QueryViewGraph g;
  uint32_t v = g.AddView("V", 1.0);
  g.AddIndex(v, "I", 1.0);
  EXPECT_DEATH(g.AddIndexes(v, {IndexKey({0})}, 1.0), "CHECK");
}

TEST(QueryViewGraphDeathTest, BadRunRangeRejected) {
  QueryViewGraph g;
  g.SetNameDictionary({"a"});
  uint32_t v = g.AddView("V", 1.0);
  g.AddIndexes(v, {IndexKey({0})}, 1.0);
  uint32_t q = g.AddQuery("Q", 1.0);
  EXPECT_DEATH(g.AddIndexEdgeRun(q, v, 0, 2, 1.0), "CHECK");
}

}  // namespace
}  // namespace olapidx
