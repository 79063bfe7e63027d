#include "core/cube_graph.h"

#include <string>
#include <utility>
#include <vector>

#include "core/lattice_graph_builder.h"

namespace olapidx {

namespace {

// The flat-cube LatticeProvider: views are attribute-set masks (graph view
// id == lattice ViewId == mask), a query's answering views are the
// supersets of A ∪ B, and index costs come from the paper's
// c(Q,V,J) = |C| / |E| with E the maximal selection-only key prefix.
// This is the one-level-per-dimension special case of the generic path —
// the hierarchical provider in hierarchy/hierarchical_graph.cc degenerates
// to exactly this graph when every dimension has a single level.
struct CubeLatticeProvider {
  const CubeSchema* schema;
  const ViewSizes* sizes;
  const Workload* workload;
  const CubeGraphOptions* options;
  const CubeLattice* lattice;
  CubeGraph* out;

  struct Ctx {
    const SliceQuery* query = nullptr;
    uint32_t sel = 0;
    AttributeSet full;
  };

  uint32_t num_views() const { return lattice->num_views(); }
  uint32_t BaseView() const { return lattice->BaseView(); }
  double ViewSizeOf(uint32_t v) const {
    return sizes->SizeOf(AttributeSet::FromMask(v));
  }

  void InitGraph(QueryViewGraph& g) const {
    g.SetNameDictionary(schema->names());
  }

  void AddStructures(QueryViewGraph& g, uint32_t v, double size,
                     double maintenance) const {
    AttributeSet attrs = lattice->AttrsOf(v);
    uint32_t gv = g.AddView(attrs.ToString(schema->names()), size);
    OLAPIDX_CHECK(gv == v);
    out->view_attrs.push_back(attrs);
    if (maintenance > 0.0) g.SetViewMaintenance(gv, maintenance);
    std::vector<IndexKey> keys = options->fat_indexes_only
                                     ? lattice->FatIndexes(v)
                                     : lattice->AllIndexes(v);
    g.AddIndexes(gv, keys, size, maintenance);
    out->index_keys.push_back(std::move(keys));
  }

  size_t num_queries() const { return workload->queries().size(); }

  void AddQuery(QueryViewGraph& g, size_t qi, double default_cost) const {
    const WeightedQuery& wq = workload->queries()[qi];
    g.AddQuery(wq.query.ToString(schema->names()), default_cost,
               wq.frequency);
    out->queries.push_back(wq.query);
  }

  Ctx MakeQueryContext() const {
    Ctx ctx;
    ctx.full = AttributeSet::Full(schema->num_dimensions());
    return ctx;
  }

  void BeginQuery(Ctx& ctx, size_t qi) const {
    ctx.query = &workload->queries()[qi].query;
    ctx.sel = ctx.query->selection().mask();
  }

  template <typename Visit>
  void ForEachAnsweringView(Ctx& ctx, Visit&& visit) const {
    for (AttributeSet cset :
         ctx.query->AllAttributes().SupersetsWithin(ctx.full)) {
      visit(cset.mask());
    }
  }

  uint32_t IndexColumnClass(const Ctx& ctx, uint32_t v) const {
    if (v == 0) return 0;  // the apex view has no indexes
    // A query's index costs from view C depend only on B ∩ C (every prefix
    // E is a subset of C), so queries agreeing on that intersection share
    // one cost column; tag runs with it so the graph stores each
    // distinct column once per view.
    return (ctx.sel & v) + 1;
  }

  template <typename Emit>
  void ForEachIndexCostClass(const Ctx& ctx, uint32_t v,
                             const double* view_size, Emit&& emit) const {
    const int m = AttributeSet::FromMask(v).size();
    auto cost_emit = [&](int64_t rb, int64_t re, uint32_t prefix) {
      emit(rb, re, view_size[prefix]);  // |E| rows; the builder applies the model
    };
    if (options->fat_indexes_only) {
      WalkPrefixClasses(v, m, m, ctx.sel, 0, cost_emit);
    } else {
      int64_t offset = 0;
      int64_t arrangements = 1;
      for (int r = 1; r <= m; ++r) {
        arrangements *= m - (r - 1);  // A(m, r)
        WalkPrefixClasses(v, m, r, ctx.sel, offset, cost_emit);
        offset += arrangements;
      }
    }
  }
};

}  // namespace

StatusOr<CubeGraph> TryBuildCubeGraph(const CubeSchema& schema,
                                      const ViewSizes& sizes,
                                      const Workload& workload,
                                      const CubeGraphOptions& options) {
  OLAPIDX_CHECK(sizes.num_dimensions() == schema.num_dimensions());
  OLAPIDX_CHECK(sizes.Complete());
  OLAPIDX_CHECK(options.raw_scan_penalty >= 1.0);
  const int n = schema.num_dimensions();
  if (options.fat_indexes_only && n > 8) {
    return Status::InvalidArgument(
        "fat-index cube graphs support at most 8 dimensions (got n = " +
        std::to_string(n) + "; a dim-8 base view already has 8! = 40320 "
        "fat indexes)");
  }
  if (!options.fat_indexes_only && n > 6) {
    return Status::InvalidArgument(
        "all-ordered-subset (fat-index-pruning ablation) cube graphs "
        "support at most 6 dimensions (got n = " +
        std::to_string(n) + ")");
  }

  CubeLattice lattice(schema);
  CubeGraph out;
  out.view_attrs.reserve(lattice.num_views());
  out.index_keys.reserve(lattice.num_views());

  CubeLatticeProvider provider{&schema,  &sizes,   &workload,
                               &options, &lattice, &out};
  LatticeGraphOptions build;
  build.default_query_cost = options.default_query_cost;
  build.raw_scan_penalty = options.raw_scan_penalty;
  build.maintenance_per_row = options.maintenance_per_row;
  build.num_threads = options.num_threads;
  build.cost_model = options.cost_model.get();
  BuildLatticeGraph(provider, build, out.graph);
  return out;
}

CubeGraph BuildCubeGraph(const CubeSchema& schema, const ViewSizes& sizes,
                         const Workload& workload,
                         const CubeGraphOptions& options) {
  StatusOr<CubeGraph> built =
      TryBuildCubeGraph(schema, sizes, workload, options);
  if (!built.ok()) {
    internal::CheckFailed(__FILE__, __LINE__,
                          built.status().ToString().c_str());
  }
  return *std::move(built);
}

// The pre-optimization builder, kept verbatim (modulo the Status wrapper
// around the dimension limits) as the differential oracle: every view is
// tested per query, every permutation is costed individually, and every
// index name is materialized eagerly.
CubeGraph BuildCubeGraphReference(const CubeSchema& schema,
                                  const ViewSizes& sizes,
                                  const Workload& workload,
                                  const CubeGraphOptions& options) {
  OLAPIDX_CHECK(sizes.num_dimensions() == schema.num_dimensions());
  OLAPIDX_CHECK(sizes.Complete());
  CubeLattice lattice(schema);
  LinearCostModel cost(&sizes);

  CubeGraph out;
  QueryViewGraph& g = out.graph;

  // Views and their indexes. Graph view ids coincide with lattice ViewIds
  // because we add them in mask order.
  for (ViewId v = 0; v < lattice.num_views(); ++v) {
    AttributeSet attrs = lattice.AttrsOf(v);
    uint32_t gv = g.AddView(attrs.ToString(schema.names()),
                            cost.ViewSpace(attrs));
    OLAPIDX_CHECK(gv == v);
    out.view_attrs.push_back(attrs);
    if (options.maintenance_per_row > 0.0) {
      g.SetViewMaintenance(gv,
                           options.maintenance_per_row *
                               cost.ViewSpace(attrs));
    }
    std::vector<IndexKey> keys = options.fat_indexes_only
                                     ? lattice.FatIndexes(v)
                                     : lattice.AllIndexes(v);
    for (const IndexKey& key : keys) {
      int32_t gi = g.AddIndex(gv, key.ToString(schema.names()),
                              cost.IndexSpace(attrs));
      if (options.maintenance_per_row > 0.0) {
        g.SetIndexMaintenance(gv, gi,
                              options.maintenance_per_row *
                                  cost.IndexSpace(attrs));
      }
    }
    out.index_keys.push_back(std::move(keys));
  }

  // Queries: default cost is a scan of the raw data, modelled as the base
  // view's row count (Section 5.1: "the cost incurred in answering the
  // query using the raw data table").
  OLAPIDX_CHECK(options.raw_scan_penalty >= 1.0);
  double default_cost =
      options.default_query_cost > 0.0
          ? options.default_query_cost
          : options.raw_scan_penalty * sizes[lattice.BaseView()];
  for (const WeightedQuery& wq : workload.queries()) {
    uint32_t q = g.AddQuery(wq.query.ToString(schema.names()), default_cost,
                            wq.frequency);
    out.queries.push_back(wq.query);

    // One k=0 edge per answering view, plus one edge per index whose
    // prefix actually reduces the cost below a scan.
    for (ViewId v = 0; v < lattice.num_views(); ++v) {
      AttributeSet view_attrs = lattice.AttrsOf(v);
      if (!wq.query.AnswerableFrom(view_attrs)) continue;
      double scan = cost.ScanCost(view_attrs);
      g.AddViewEdge(q, v, scan);
      const std::vector<IndexKey>& keys = out.index_keys[v];
      for (size_t k = 0; k < keys.size(); ++k) {
        double c = cost.QueryCost(wq.query, view_attrs, keys[k]);
        if (c < scan) {
          g.AddIndexEdge(q, v, static_cast<int32_t>(k), c);
        }
      }
    }
  }

  g.Finalize();
  return out;
}

}  // namespace olapidx
