#include "hierarchy/hierarchical_advisor.h"

#include <string>
#include <utility>

namespace olapidx {

namespace {

// Resolves a checkpoint's lattice-level picks (level vectors, dimension
// orders) to this graph's StructureRefs. Fails on any pick that does not
// exist in the graph — e.g. a checkpoint taken with a different schema or
// index family.
Status ResolveCheckpoint(const HSelectionCheckpoint& checkpoint,
                         const HierarchicalCubeGraph& cube_graph,
                         ResumePicks* out) {
  out->picks.clear();
  out->pick_benefits = checkpoint.pick_benefits;
  out->stages = checkpoint.stages;
  for (size_t i = 0; i < checkpoint.picks.size(); ++i) {
    const HRecommendedStructure& s = checkpoint.picks[i];
    auto fail = [&](const std::string& message) {
      return Status::InvalidArgument("checkpoint pick " +
                                     std::to_string(i + 1) + ": " + message);
    };
    uint32_t view = 0;
    bool view_found = false;
    for (uint32_t v = 0;
         v < static_cast<uint32_t>(cube_graph.view_levels.size()); ++v) {
      if (cube_graph.view_levels[v] == s.view) {
        view = v;
        view_found = true;
        break;
      }
    }
    if (!view_found) return fail("view not in the hierarchical lattice");
    if (s.is_view()) {
      out->picks.push_back(StructureRef{view, StructureRef::kNoIndex});
      continue;
    }
    const int32_t index = cube_graph.IndexPositionOf(view, s.index_order);
    if (index < 0) {
      return fail("index order not in the view's index family");
    }
    out->picks.push_back(StructureRef{view, index});
  }
  return Status::Ok();
}

HRecommendation RejectedRecommendation(Status status) {
  HRecommendation rec;
  rec.raw = SelectionResult::Rejected(std::move(status));
  rec.status = rec.raw.status;
  rec.completed = false;
  return rec;
}

}  // namespace

HierarchicalAdvisor::HierarchicalAdvisor(
    const HierarchicalSchema& schema, double raw_rows,
    const std::vector<WeightedHQuery>& workload,
    const HierarchicalGraphOptions& options)
    : schema_(schema),
      cube_graph_(
          BuildHierarchicalCubeGraph(schema, raw_rows, workload, options)) {
}

HierarchicalAdvisor::HierarchicalAdvisor(const HierarchicalSchema& schema,
                                         HierarchicalCubeGraph cube_graph)
    : schema_(schema),
      cube_graph_(std::move(cube_graph)),
      graph_fingerprint_(cube_graph_.graph.Fingerprint()) {}

StatusOr<HierarchicalAdvisor> HierarchicalAdvisor::Create(
    const HierarchicalSchema& schema, double raw_rows,
    const std::vector<WeightedHQuery>& workload,
    const HierarchicalGraphOptions& options) {
  StatusOr<HierarchicalCubeGraph> cube_graph =
      TryBuildHierarchicalCubeGraph(schema, raw_rows, workload, options);
  if (!cube_graph.ok()) {
    return cube_graph.status().WithContext("building the query-view graph");
  }
  return HierarchicalAdvisor(schema, *std::move(cube_graph));
}

StatusOr<HierarchicalAdvisor> HierarchicalAdvisor::CreateSparse(
    const HierarchicalSchema& schema, double raw_rows,
    const std::vector<WeightedHQuery>& workload,
    const SparseHierarchicalGraphOptions& options) {
  StatusOr<SparseHierarchicalCubeGraph> sparse =
      TryBuildSparseHierarchicalCubeGraph(schema, raw_rows, workload,
                                          options);
  if (!sparse.ok()) {
    return sparse.status().WithContext(
        "building the sparse hierarchical query-view graph");
  }
  HierarchicalAdvisor advisor(schema, std::move(sparse->hgraph));
  advisor.sparse_stats_ = std::move(sparse->stats);
  return advisor;
}

HRecommendation HierarchicalAdvisor::TryRecommend(
    const AdvisorConfig& config, const HSelectionCheckpoint* resume) const {
  const bool greedy = config.algorithm == Algorithm::kOneGreedy ||
                      config.algorithm == Algorithm::kRGreedy ||
                      config.algorithm == Algorithm::kInnerLevel;
  if (config.resume != nullptr) {
    return RejectedRecommendation(Status::InvalidArgument(
        "flat-cube checkpoints (AdvisorConfig::resume) cannot be resolved "
        "against a hierarchical lattice; pass an HSelectionCheckpoint"));
  }
  if (!greedy && !config.control.unlimited()) {
    return RejectedRecommendation(Status::Unimplemented(
        std::string(AlgorithmName(config.algorithm)) +
        " has no anytime contract; deadlines/cancellation require a greedy "
        "algorithm"));
  }
  if (!greedy && resume != nullptr) {
    return RejectedRecommendation(Status::InvalidArgument(
        std::string(AlgorithmName(config.algorithm)) +
        " cannot resume from a checkpoint"));
  }

  ResumePicks resume_picks;
  const ResumePicks* resume_ptr = nullptr;
  if (resume != nullptr) {
    if (resume->algorithm != AlgorithmName(config.algorithm)) {
      return RejectedRecommendation(Status::InvalidArgument(
          "checkpoint was taken by '" + resume->algorithm + "', not '" +
          AlgorithmName(config.algorithm) +
          "'; resuming would not reproduce the original pick sequence"));
    }
    if (resume->space_budget != config.space_budget) {
      return RejectedRecommendation(Status::InvalidArgument(
          "checkpoint budget " + std::to_string(resume->space_budget) +
          " does not match configured budget " +
          std::to_string(config.space_budget)));
    }
    if (resume->graph_fingerprint != 0 &&
        resume->graph_fingerprint != graph_fingerprint_) {
      return RejectedRecommendation(Status::FailedPrecondition(
          "checkpoint was taken against a different query-view graph "
          "(checkpoint graph fingerprint does not match this advisor's); "
          "rebuild with the same schema, row counts, workload, and "
          "options, or start a fresh selection"));
    }
    Status resolved = ResolveCheckpoint(*resume, cube_graph_, &resume_picks);
    if (!resolved.ok()) return RejectedRecommendation(std::move(resolved));
    resume_ptr = &resume_picks;
  }

  SelectionResult result =
      RunAlgorithm(cube_graph_.graph, config, resume_ptr);
  if (!result.status.ok() && !result.status.IsInterruption()) {
    return RejectedRecommendation(std::move(result.status));
  }

  HRecommendation rec;
  rec.raw = result;
  rec.status = result.status;
  rec.completed = result.completed;
  rec.space_used = result.space_used;
  rec.graph_fingerprint = graph_fingerprint_;
  rec.initial_average_cost =
      result.total_frequency > 0.0
          ? result.initial_cost / result.total_frequency
          : 0.0;
  rec.average_query_cost = result.AverageQueryCost();
  for (const StructureRef& s : result.picks) {
    HRecommendedStructure r;
    r.view = cube_graph_.view_levels[s.view];
    if (!s.is_view()) {
      r.index_order = cube_graph_.IndexOrderOf(s.view, s.index);
    }
    r.name = cube_graph_.graph.StructureName(s);
    r.space = cube_graph_.graph.structure_space(s);
    rec.structures.push_back(std::move(r));
  }
  return rec;
}

HSelectionCheckpoint HRecommendation::ToCheckpoint(
    const AdvisorConfig& config) const {
  HSelectionCheckpoint checkpoint;
  checkpoint.algorithm = AlgorithmName(config.algorithm);
  checkpoint.space_budget = config.space_budget;
  checkpoint.stages = raw.stats.stages;
  checkpoint.graph_fingerprint = graph_fingerprint;
  checkpoint.picks = structures;
  checkpoint.pick_benefits = raw.pick_benefits;
  return checkpoint;
}

}  // namespace olapidx
