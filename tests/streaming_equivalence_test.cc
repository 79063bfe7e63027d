// Differential tests for the edge sink (QueryViewGraph::ConsumeEdgeRuns):
// the finalized graph must not depend on how its edge runs were split
// into batches, in which order the batches arrived, or from how many
// threads — builds at every thread count, runs fed in random batches
// (one-run batches included) in shuffled order, and hand-built edges in
// random insertion order must all match a single-batch build bit for bit,
// on Fingerprint() and on every accessor. Also the unpruned
// sparse-hierarchical contract: with nothing pruned,
// TryBuildSparseHierarchicalCubeGraph must reproduce
// TryBuildHierarchicalCubeGraph exactly on random multi-level schemas.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cube_graph.h"
#include "core/sparse_cube_graph.h"
#include "data/synthetic.h"
#include "hierarchy/hierarchical_graph.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

// Exact equality through the public accessors (both builds must perform
// the same double divisions in the same order). Works for flat and
// hierarchical graphs alike — it only touches QueryViewGraph.
void ExpectIdenticalQvg(const QueryViewGraph& a, const QueryViewGraph& b,
                        const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.num_views(), b.num_views());
  ASSERT_EQ(a.num_queries(), b.num_queries());
  ASSERT_EQ(a.num_structures(), b.num_structures());
  for (uint32_t q = 0; q < a.num_queries(); ++q) {
    ASSERT_EQ(a.query_name(q), b.query_name(q)) << "query " << q;
    ASSERT_EQ(a.query_default_cost(q), b.query_default_cost(q));
    ASSERT_EQ(a.query_frequency(q), b.query_frequency(q));
    ASSERT_EQ(a.QueryViews(q), b.QueryViews(q)) << "query " << q;
  }
  for (uint32_t v = 0; v < a.num_views(); ++v) {
    SCOPED_TRACE("view " + std::to_string(v));
    ASSERT_EQ(a.view_name(v), b.view_name(v));
    ASSERT_EQ(a.view_space(v), b.view_space(v));
    ASSERT_EQ(a.num_indexes(v), b.num_indexes(v));
    for (int32_t k = 0; k < a.num_indexes(v); ++k) {
      ASSERT_EQ(a.index_name(v, k), b.index_name(v, k)) << "index " << k;
      ASSERT_EQ(a.index_space(v, k), b.index_space(v, k));
    }
    ASSERT_EQ(a.ViewQueries(v), b.ViewQueries(v));
    const size_t nq = a.ViewQueries(v).size();
    for (size_t pos = 0; pos < nq; ++pos) {
      ASSERT_EQ(a.ViewCostAt(v, pos), b.ViewCostAt(v, pos)) << "pos " << pos;
      for (int32_t k = 0; k < a.num_indexes(v); ++k) {
        ASSERT_EQ(a.IndexCostAt(v, k, pos), b.IndexCostAt(v, k, pos))
            << "index " << k << " pos " << pos;
      }
    }
  }
  ASSERT_EQ(a.DefaultTotalCost(), b.DefaultTotalCost());
}

TEST(StreamingEquivalenceTest, FlatSparseMatchesAcrossThreadCounts) {
  // 12 dimensions with the default max_fat_dim = 6: narrow views carry
  // fat index families, wide views carry workload-derived candidate
  // families, so both ForEachIndexCostClass branches stream. Each thread
  // count splits the queries differently, so the sink sees a different
  // batch interleaving.
  SyntheticCube cube = UniformSyntheticCube(12, 100, 0.05);
  CubeLattice lattice(cube.schema);
  Workload workload = SampledZipfSliceQueries(lattice, 1.1, 150, 7);

  SparseCubeGraphOptions serial;
  serial.raw_scan_penalty = 2.0;
  serial.num_threads = 1;
  StatusOr<SparseCubeGraph> baseline =
      TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, serial);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(baseline->stats.candidate_views, 0u);
  EXPECT_GT(baseline->stats.fat_views, 0u);

  for (size_t threads : {size_t{2}, size_t{3}, size_t{8}}) {
    SparseCubeGraphOptions options = serial;
    options.num_threads = threads;
    StatusOr<SparseCubeGraph> run =
        TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectIdenticalQvg(run->cube.graph, baseline->cube.graph,
                       "threads=" + std::to_string(threads));
    EXPECT_EQ(run->cube.graph.Fingerprint(),
              baseline->cube.graph.Fingerprint());
    ASSERT_EQ(run->cube.view_attrs, baseline->cube.view_attrs);
    ASSERT_EQ(run->cube.index_keys, baseline->cube.index_keys);
  }
}

// An empty graph with `g`'s views, eagerly named indexes, and queries.
QueryViewGraph CopyStructures(const QueryViewGraph& g) {
  QueryViewGraph out;
  for (uint32_t v = 0; v < g.num_views(); ++v) {
    out.AddView(g.view_name(v), g.view_space(v));
    for (int32_t k = 0; k < g.num_indexes(v); ++k) {
      out.AddIndex(v, g.index_name(v, k), g.index_space(v, k));
    }
  }
  for (uint32_t q = 0; q < g.num_queries(); ++q) {
    out.AddQuery(g.query_name(q), g.query_default_cost(q),
                 g.query_frequency(q));
  }
  return out;
}

template <typename T>
void Shuffle(std::vector<T>& items, Pcg32& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1],
              items[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
}

// Re-derives `g`'s edges as the builder would emit them, in query order:
// per (query, view) a view edge, then one run per maximal range of equal
// finite index costs, tagged with a per-view class id shared by queries
// whose index-cost columns are identical. Every fifth (query, view) also
// gets costlier duplicates, which the sink's min-merge must drop.
std::vector<EdgeRun> DeriveRuns(const QueryViewGraph& g) {
  std::vector<std::map<std::vector<double>, uint32_t>> classes(
      g.num_views());
  std::vector<EdgeRun> runs;
  size_t pair = 0;
  for (uint32_t q = 0; q < g.num_queries(); ++q) {
    for (uint32_t v : g.QueryViews(q)) {
      const std::vector<uint32_t>& vq = g.ViewQueries(v);
      const size_t pos = static_cast<size_t>(
          std::lower_bound(vq.begin(), vq.end(), q) - vq.begin());
      const bool dup = pair++ % 5 == 0;
      const double scan = g.ViewCostAt(v, pos);
      if (scan != QueryViewGraph::kInfiniteCost) {
        runs.push_back(EdgeRun{q, v, StructureRef::kNoIndex,
                               StructureRef::kNoIndex, scan});
        if (dup) {
          runs.push_back(EdgeRun{q, v, StructureRef::kNoIndex,
                                 StructureRef::kNoIndex, scan + 1.0});
        }
      }
      std::vector<double> column;
      for (int32_t k = 0; k < g.num_indexes(v); ++k) {
        column.push_back(g.IndexCostAt(v, k, pos));
      }
      const uint32_t col =
          classes[v]
              .emplace(column, static_cast<uint32_t>(classes[v].size() + 1))
              .first->second;
      int32_t k = 0;
      while (k < g.num_indexes(v)) {
        int32_t end = k + 1;
        while (end < g.num_indexes(v) &&
               column[static_cast<size_t>(end)] ==
                   column[static_cast<size_t>(k)]) {
          ++end;
        }
        const double cost = column[static_cast<size_t>(k)];
        if (cost != QueryViewGraph::kInfiniteCost) {
          runs.push_back(EdgeRun{q, v, k, end, cost, col});
          if (dup) runs.push_back(EdgeRun{q, v, k, end, cost + 1.0, col});
        }
        k = end;
      }
    }
  }
  return runs;
}

TEST(StreamingEquivalenceTest, SinkIgnoresBatchSplitsAndOrder) {
  SyntheticCube cube = UniformSyntheticCube(5, 60, 0.1);
  CubeLattice lattice(cube.schema);
  Workload workload = ZipfSliceQueries(lattice, 1.1, 11);
  CubeGraphOptions graph_options;
  graph_options.raw_scan_penalty = 2.0;
  StatusOr<CubeGraph> built =
      TryBuildCubeGraph(cube.schema, cube.sizes, workload, graph_options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const QueryViewGraph& source = built->graph;
  const std::vector<EdgeRun> runs = DeriveRuns(source);
  ASSERT_GT(runs.size(), 1000u);

  QueryViewGraph single = CopyStructures(source);
  std::vector<EdgeRun> all = runs;
  single.ConsumeEdgeRuns(all);
  single.Finalize();
  ExpectIdenticalQvg(single, source, "single batch vs builder");

  for (uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    Pcg32 rng(seed);
    // Cut the query-ordered runs into batches of 1 to 64 runs (a third of
    // them single runs), so a (query, view)'s runs often straddle batches.
    std::vector<std::vector<EdgeRun>> batches;
    for (size_t i = 0; i < runs.size();) {
      const size_t len = rng.NextBounded(3) == 0
                             ? 1
                             : 1 + rng.NextBounded(64);
      const size_t end = std::min(runs.size(), i + len);
      batches.emplace_back(runs.begin() + static_cast<std::ptrdiff_t>(i),
                           runs.begin() + static_cast<std::ptrdiff_t>(end));
      i = end;
    }
    Shuffle(batches, rng);
    const size_t num_threads = seed == 1 ? 1 : 4;
    QueryViewGraph split = CopyStructures(source);
    std::vector<std::thread> feeders;
    for (size_t t = 0; t < num_threads; ++t) {
      feeders.emplace_back([&, t] {
        for (size_t b = t; b < batches.size(); b += num_threads) {
          split.ConsumeEdgeRuns(batches[b]);
        }
      });
    }
    for (std::thread& f : feeders) f.join();
    split.Finalize();
    const std::string label = "seed=" + std::to_string(seed) +
                              " batches=" + std::to_string(batches.size()) +
                              " threads=" + std::to_string(num_threads);
    ExpectIdenticalQvg(split, single, label);
    EXPECT_EQ(split.Fingerprint(), single.Fingerprint()) << label;
  }
}

TEST(StreamingEquivalenceTest, HandBuiltEdgesIgnoreInsertionOrder) {
  SyntheticCube cube = UniformSyntheticCube(5, 60, 0.1);
  CubeLattice lattice(cube.schema);
  Workload workload = ZipfSliceQueries(lattice, 1.1, 12);
  StatusOr<CubeGraph> built =
      TryBuildCubeGraph(cube.schema, cube.sizes, workload, {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const QueryViewGraph& source = built->graph;
  // Hand-built edges carry no column class: one per index, as the
  // reference builders add them, with the runs' costlier duplicates.
  std::vector<EdgeRun> edges;
  for (const EdgeRun& r : DeriveRuns(source)) {
    if (r.index_begin == StructureRef::kNoIndex) {
      edges.push_back(r);
      continue;
    }
    for (int32_t k = r.index_begin; k < r.index_end; ++k) {
      edges.push_back(EdgeRun{r.query, r.view, k, k + 1, r.cost});
    }
  }
  // More edges than one hand-built batch (2^14 runs), so shuffled edges of
  // one (query, view) land in different batches.
  ASSERT_GT(edges.size(), size_t{1} << 14);
  auto build = [&](const std::vector<EdgeRun>& order) {
    QueryViewGraph g = CopyStructures(source);
    for (const EdgeRun& e : order) {
      if (e.index_begin == StructureRef::kNoIndex) {
        g.AddViewEdge(e.query, e.view, e.cost);
      } else {
        g.AddIndexEdge(e.query, e.view, e.index_begin, e.cost);
      }
    }
    g.Finalize();
    return g;
  };
  QueryViewGraph in_order = build(edges);
  ExpectIdenticalQvg(in_order, source, "hand-built vs builder");
  for (uint64_t seed : {uint64_t{5}, uint64_t{6}}) {
    Pcg32 rng(seed);
    std::vector<EdgeRun> shuffled = edges;
    Shuffle(shuffled, rng);
    QueryViewGraph g = build(shuffled);
    const std::string label = "seed=" + std::to_string(seed);
    ExpectIdenticalQvg(g, in_order, label);
    EXPECT_EQ(g.Fingerprint(), in_order.Fingerprint()) << label;
  }
}

HierarchicalSchema ThreeLevelSchema() {
  return HierarchicalSchema(
      {HierarchicalDimension{
           "store",
           {HierarchyLevel{"store", 200}, HierarchyLevel{"city", 40},
            HierarchyLevel{"region", 6}}},
       HierarchicalDimension{"product",
                             {HierarchyLevel{"product", 150},
                              HierarchyLevel{"category", 12}}},
       HierarchicalDimension{"time",
                             {HierarchyLevel{"day", 365},
                              HierarchyLevel{"month", 12}}}});
}

TEST(StreamingEquivalenceTest, HierarchicalSparseMatchesAcrossThreadCounts) {
  HierarchicalSchema schema = ThreeLevelSchema();
  std::vector<WeightedHQuery> workload =
      SampledZipfHWorkload(schema, 120, 1.1, 5);

  SparseHierarchicalGraphOptions serial;
  serial.raw_scan_penalty = 2.0;
  serial.num_threads = 1;
  StatusOr<SparseHierarchicalCubeGraph> baseline =
      TryBuildSparseHierarchicalCubeGraph(schema, 1e6, workload, serial);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (size_t threads : {size_t{2}, size_t{3}, size_t{8}}) {
    SparseHierarchicalGraphOptions options = serial;
    options.num_threads = threads;
    StatusOr<SparseHierarchicalCubeGraph> run =
        TryBuildSparseHierarchicalCubeGraph(schema, 1e6, workload, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->hgraph.view_levels, baseline->hgraph.view_levels);
    const std::string label = "threads=" + std::to_string(threads);
    ExpectIdenticalQvg(run->hgraph.graph, baseline->hgraph.graph, label);
    EXPECT_EQ(run->hgraph.graph.Fingerprint(),
              baseline->hgraph.graph.Fingerprint())
        << label;
  }
}

// A reproducible schema with 2–4 dimensions, 1–3 levels each, and
// strictly non-increasing per-level cardinalities.
HierarchicalSchema RandomSchema(uint64_t seed) {
  Pcg32 rng(seed);
  const int n = 2 + static_cast<int>(rng.NextBounded(3));
  std::vector<HierarchicalDimension> dims;
  for (int d = 0; d < n; ++d) {
    HierarchicalDimension dim;
    dim.name = "d" + std::to_string(d);
    const int levels = 1 + static_cast<int>(rng.NextBounded(3));
    uint64_t card = 20 + rng.NextBounded(200);
    for (int l = 0; l < levels; ++l) {
      dim.levels.push_back(HierarchyLevel{
          l == 0 ? dim.name : dim.name + "_l" + std::to_string(l), card});
      card = 1 + card / (2 + rng.NextBounded(4));
    }
    dims.push_back(std::move(dim));
  }
  return HierarchicalSchema(std::move(dims));
}

TEST(StreamingEquivalenceTest, SparseHierarchicalUnprunedMatchesDense) {
  for (uint64_t seed : {uint64_t{1}, uint64_t{17}, uint64_t{90210}}) {
    HierarchicalSchema schema = RandomSchema(seed);
    std::vector<WeightedHQuery> workload = UniformHWorkload(schema);

    HierarchicalGraphOptions dense_options;
    dense_options.raw_scan_penalty = 1.5;
    StatusOr<HierarchicalCubeGraph> dense =
        TryBuildHierarchicalCubeGraph(schema, 5e5, workload, dense_options);
    ASSERT_TRUE(dense.ok()) << dense.status().ToString();

    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SparseHierarchicalGraphOptions options;
      options.raw_scan_penalty = 1.5;
      options.max_fat_dim = 8;  // every view fat: same family as dense
      options.num_threads = threads;
      StatusOr<SparseHierarchicalCubeGraph> sparse =
          TryBuildSparseHierarchicalCubeGraph(schema, 5e5, workload,
                                              options);
      ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
      const std::string label = "seed=" + std::to_string(seed) +
                                " threads=" + std::to_string(threads);
      SCOPED_TRACE(label);
      EXPECT_EQ(sparse->stats.retained_queries, workload.size());
      EXPECT_EQ(sparse->stats.retained_views,
                static_cast<size_t>(dense->graph.num_views()));
      EXPECT_FALSE(sparse->stats.view_cap_hit);
      ASSERT_EQ(sparse->hgraph.view_levels, dense->view_levels);
      ASSERT_EQ(sparse->hgraph.view_sizes, dense->view_sizes);
      ExpectIdenticalQvg(sparse->hgraph.graph, dense->graph, label);
    }
  }
}

}  // namespace
}  // namespace olapidx
