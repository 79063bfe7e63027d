#include "core/inner_greedy.h"

#include <algorithm>
#include <vector>

#include "core/selection_state.h"
#include "core/stage_driver.h"

namespace olapidx {

namespace {

using stage_driver::ChunkCounters;
using stage_driver::ViewSlot;

// Grows IG = {view v} U indexes greedily (largest incremental benefit
// first) while S(IG) < budget, and stores the prefix with maximal benefit
// per unit space with respect to the current state into `slot`.
//
// The slot's bound: the grown bundle's own ratio is not a certified bound
// (re-growth can take a different order), but
//   max(view ratio, max_k marginal_k(view alone) / space_k)
// is: benefit(bundle) <= benefit(view) + sum of first-step marginals
// (submodularity), each term is monotone non-increasing in M, and a ratio
// of sums is at most the max of the per-term ratios (mediant inequality).
void GrowBundle(const QueryViewGraph& graph, const SelectionState& state,
                uint32_t v, double space_budget, ViewSlot* slot,
                uint64_t* evals) {
  const std::vector<uint32_t>& queries = graph.ViewQueries(v);
  const size_t nq = queries.size();

  // offered[pos]: cheapest cost IG currently offers for queries[pos].
  std::vector<double> offered(nq);
  double benefit = 0.0;
  for (size_t pos = 0; pos < nq; ++pos) {
    offered[pos] = graph.ViewCostAt(v, pos);
    double cur = state.QueryBestCost(queries[pos]);
    if (offered[pos] < cur) {
      benefit += graph.query_frequency(queries[pos]) * (cur - offered[pos]);
    }
  }
  benefit -= graph.structure_maintenance(
      StructureRef{v, StructureRef::kNoIndex});
  ++*evals;

  double space = graph.view_space(v);
  std::vector<int32_t> order;  // growth order of appended indexes

  slot->cand = Candidate{v, /*add_view=*/true, {}};
  slot->benefit = benefit;
  slot->ratio = benefit / space;
  slot->bound = slot->ratio;

  std::vector<int32_t> remaining;
  for (int32_t k = 0; k < graph.num_indexes(v); ++k) remaining.push_back(k);

  bool first_growth_step = true;
  while (space < space_budget && !remaining.empty()) {
    // Find the index with the largest incremental benefit w.r.t. M ∪ IG.
    double best_inc = 0.0;
    size_t best_at = 0;
    bool found = false;
    for (size_t i = 0; i < remaining.size();) {
      int32_t k = remaining[i];
      double inc = 0.0;
      for (size_t pos = 0; pos < nq; ++pos) {
        double c = graph.IndexCostAt(v, k, pos);
        if (c >= offered[pos]) continue;
        double cur = state.QueryBestCost(queries[pos]);
        double old_red = std::max(0.0, cur - offered[pos]);
        double new_red = std::max(0.0, cur - c);
        inc += graph.query_frequency(queries[pos]) * (new_red - old_red);
      }
      inc -= graph.structure_maintenance(StructureRef{v, k});
      ++*evals;
      if (first_growth_step && inc > 0.0) {
        // First-step marginals (w.r.t. the view alone) feed the certified
        // ratio bound documented above.
        slot->bound =
            std::max(slot->bound, inc / graph.index_space(v, k));
      }
      if (inc <= 0.0) {
        // Offered costs only decrease as IG grows, so a zero-increment
        // index stays at zero for the rest of this growth: drop it.
        // (best_at always refers to a position < i, so the swap from the
        // back cannot invalidate it.)
        remaining[i] = remaining.back();
        remaining.pop_back();
        continue;
      }
      if (!found || inc > best_inc) {
        best_inc = inc;
        best_at = i;
        found = true;
      }
      ++i;
    }
    first_growth_step = false;
    if (!found) break;
    int32_t k = remaining[best_at];
    remaining[best_at] = remaining.back();
    remaining.pop_back();

    for (size_t pos = 0; pos < nq; ++pos) {
      offered[pos] = std::min(offered[pos], graph.IndexCostAt(v, k, pos));
    }
    benefit += best_inc;
    space += graph.index_space(v, k);
    order.push_back(k);

    if (benefit / space > slot->ratio) {
      slot->cand.indexes = order;
      slot->benefit = benefit;
      slot->ratio = benefit / space;
    }
  }
}

// Recomputes `slot` for view v (the stage driver's evaluator): a grown
// bundle when v is unselected, the best single unselected index when v is
// selected. Runs concurrently across views — reads only const state,
// writes only its own slot.
void EvaluateView(const SelectionState& state, uint32_t v,
                  double space_budget, ViewSlot* slot, uint64_t* evals) {
  const QueryViewGraph& graph = state.graph();
  if (!state.ViewSelected(v)) {
    GrowBundle(graph, state, v, space_budget, slot, evals);
    slot->valid = slot->benefit > 0.0;
    return;
  }
  slot->bound = 0.0;
  for (int32_t k = 0; k < graph.num_indexes(v); ++k) {
    if (state.IndexSelected(v, k)) continue;
    Candidate c{v, /*add_view=*/false, {k}};
    double b = state.CandidateBenefit(c);
    ++*evals;
    if (b <= 0.0) continue;
    double ratio = b / state.CandidateSpace(c);
    if (!slot->valid || ratio > slot->ratio) {
      slot->cand = c;
      slot->benefit = b;
      slot->ratio = ratio;
      slot->valid = true;
    }
  }
  // Fixed candidate family: the best single-index ratio bounds every
  // later re-evaluation (benefits are monotone non-increasing).
  if (slot->valid) slot->bound = slot->ratio;
}

}  // namespace

SelectionResult InnerLevelGreedy(const QueryViewGraph& graph,
                                 double space_budget,
                                 const InnerGreedyOptions& options) {
  // Boundary-reachable misuse is rejected, not aborted on.
  if (!graph.finalized()) {
    return SelectionResult::Rejected(
        Status::FailedPrecondition("query-view graph is not finalized"));
  }
  if (!(space_budget >= 0.0)) {  // rejects negatives and NaN
    return SelectionResult::Rejected(Status::InvalidArgument(
        "space budget must be non-negative and finite"));
  }

  // Per-run registry delta (see SelectionResult::metrics): captured fresh
  // for every call so repeated runs never accumulate.
  MetricsRunScope metrics_scope;
  SelectionResult result = stage_driver::RunGreedyStages(
      graph, space_budget, options,
      {"inner_greedy.run", "inner_greedy.stage", "bundle growth"},
      [space_budget](const SelectionState& state, uint32_t v, ViewSlot* slot,
                     ChunkCounters* counters) {
        EvaluateView(state, v, space_budget, slot, &counters->evals);
      });
  result.metrics = metrics_scope.Delta();
  return result;
}

}  // namespace olapidx
