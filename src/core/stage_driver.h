// The stage driver shared by r-greedy (Algorithm 5.1) and inner-level
// greedy (Algorithm 5.2).
//
// Both algorithms run the same stages: each picks the candidate with the
// best benefit per unit of space, and the run stops at the space budget
// or when no candidate has positive benefit. They differ only in which
// candidate each view offers, so RunGreedyStages owns everything else —
// set-up and checkpoint replay, the thread pool, the memoized per-view
// slots with the CELF bound prune and the beam cap, stop and fault
// handling, the deterministic reduction, the pick and the per-stage
// telemetry — and each algorithm supplies only its per-view evaluator.
//
// Per stage:
//   1. Pass 1: clean slots (view version unchanged) are exact; the best
//      clean ratio becomes the prune threshold.
//   2. Pass 2: a dirty slot whose certified stale bound cannot reach the
//      threshold cannot win; its re-evaluation is skipped.
//   3. Beam cap: of the remaining dirty slots with a certified bound, only
//      the beam_width with the largest bounds are re-evaluated.
//   4. Evaluation of the dirty views, in parallel.
//   5. Reduction over all views in ascending view id, strictly-greater
//      ratio wins; if the beam hid every positive candidate the deferred
//      views are evaluated after all and the reduction repeats.
//   6. Apply the winner and record its picks.
// The reduction order is fixed and every per-view evaluation reads only
// const state, so picks and every counter are identical for every thread
// count.

#ifndef OLAPIDX_CORE_STAGE_DRIVER_H_
#define OLAPIDX_CORE_STAGE_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/selection_result.h"
#include "core/selection_state.h"

namespace olapidx::stage_driver {

using SteadyClock = std::chrono::steady_clock;

uint64_t ElapsedMicros(SteadyClock::time_point since);

// One view's cached stage evaluation: the best candidate rooted at the
// view under the algorithm's determinism contract, tagged with the
// SelectionState::ViewVersion it was computed at. While the version
// matches the slot is bit-exact; once the view is dirtied it is
// recomputed (or pruned, or deferred) before the next reduction.
struct ViewSlot {
  static constexpr uint64_t kNeverEvaluated = ~uint64_t{0};

  uint64_t version = kNeverEvaluated;
  bool valid = false;  // has a positive-benefit candidate
  // True when `bound` is a certified upper bound on the ratio of every
  // candidate rooted at this view at any later state (benefits are
  // monotone non-increasing as the selection grows). The evaluator clears
  // it when it cannot certify one; the driver clears it after a pick
  // changes the view's candidate family.
  bool bound_ok = false;
  // The only value the bound prune and the beam sort read.
  double bound = 0.0;
  double ratio = 0.0;  // benefit per unit space of `cand`
  double benefit = 0.0;
  Candidate cand;
};

// Per-chunk work counters, merged after each parallel evaluation so the
// totals are independent of thread count and schedule.
struct ChunkCounters {
  uint64_t evals = 0;
  uint64_t truncated = 0;
};

// The names an algorithm reports under, kept per algorithm so trace spans
// and error contexts stay distinguishable.
struct StageNames {
  const char* run_span;       // string literal (the trace ring keeps it)
  const char* stage_span;     // string literal
  const char* error_context;  // added to an evaluation fault's status
};

// Run set-up: seeds the initial cost and total frequency, then replays
// `resume` (if any) into `state`. A non-OK status rejects the run.
Status BeginRun(const ResumePicks* resume, SelectionState* state,
                SelectionResult* result);

// Polled before every stage: true (with the interruption status set) when
// the stage budget is spent or the control asks to stop.
bool StopBeforeStage(const RunControl& control, size_t steps_this_call,
                     SelectionResult* result);

// Run finish: wall time, final space/cost/maintenance, and the registry
// record of the run's telemetry.
void FinishRun(const SelectionState& state, SteadyClock::time_point run_start,
               size_t steps_this_call, SelectionResult* result);

// Runs greedy stages until the budget is reached, no view offers a
// positive-benefit candidate, or `options.control` stops the run.
//
// `options` is RGreedyOptions or InnerGreedyOptions (num_threads, memoize,
// beam_width, control, resume). `evaluate(state, v, &slot, &counters)`
// recomputes view v's slot against `state`: the driver has already set
// slot.version, valid = false and bound_ok = true; the evaluator fills
// ratio, benefit, cand and bound, sets valid when it found a positive
// candidate, and may clear bound_ok. It runs concurrently across views and
// must read only const state.
template <typename Options, typename Evaluate>
SelectionResult RunGreedyStages(const QueryViewGraph& graph,
                                double space_budget, const Options& options,
                                const StageNames& names, Evaluate&& evaluate) {
  OLAPIDX_TRACE_SPAN(names.run_span);
  SelectionState state(&graph);
  SelectionResult result;
  Status begun = BeginRun(options.resume, &state, &result);
  if (!begun.ok()) return SelectionResult::Rejected(begun);

  std::unique_ptr<ThreadPool> private_pool;
  if (options.num_threads != 0) {
    private_pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  ThreadPool& pool = private_pool ? *private_pool : ThreadPool::Shared();
  const size_t chunks = pool.num_threads();
  result.stats.threads_used = chunks;

  const RunControl& control = options.control;
  const uint32_t num_views = graph.num_views();
  std::vector<ViewSlot> slots(num_views);
  std::vector<uint32_t> dirty;
  dirty.reserve(num_views);
  std::vector<uint32_t> beamed;    // beam scratch: bounded dirty views
  std::vector<uint32_t> deferred;  // beam-skipped this stage
  std::vector<uint8_t> beam_out(num_views, 0);
  std::vector<ChunkCounters> counters(chunks);
  const auto run_start = SteadyClock::now();
  // Stages executed by *this call*; replayed checkpoint stages don't count
  // against the budget (so resume with the same max_steps makes progress).
  size_t steps_this_call = 0;

  while (state.SpaceUsed() < space_budget) {
    if (StopBeforeStage(control, steps_this_call, &result)) break;
    const auto stage_start = SteadyClock::now();
    OLAPIDX_TRACE_SPAN(names.stage_span);
    // Candidate evaluations this stage; every loop exit that accounts a
    // stage records wall time and candidate count together so the
    // per-stage vectors stay parallel (RecordRun folds them into the
    // registry histograms in one end-of-run batch).
    uint64_t stage_evals = 0;
    auto end_stage = [&] {
      result.stats.stage_wall_micros.push_back(ElapsedMicros(stage_start));
      result.stats.stage_candidates.push_back(stage_evals);
    };

    // Pass 1: clean slots are exact; the best clean ratio becomes the
    // lazy-skip threshold for the dirty ones.
    double prune_ratio = 0.0;
    for (uint32_t v = 0; v < num_views; ++v) {
      if (options.memoize && slots[v].version == state.ViewVersion(v)) {
        ++result.stats.cache_hits;
        if (slots[v].valid && slots[v].ratio > prune_ratio) {
          prune_ratio = slots[v].ratio;
        }
      }
    }

    // Pass 2: a dirty view whose certified stale bound cannot reach the
    // best clean ratio cannot win this stage, so its re-evaluation is
    // skipped. The slot stays stale and its bound stays valid, since
    // benefits are monotone non-increasing.
    dirty.clear();
    for (uint32_t v = 0; v < num_views; ++v) {
      if (options.memoize && slots[v].version == state.ViewVersion(v)) {
        continue;
      }
      const ViewSlot& s = slots[v];
      if (options.memoize && s.bound_ok && s.bound < prune_ratio) {
        ++result.stats.bound_prunes;
        continue;
      }
      dirty.push_back(v);
    }

    // Beam cap: of the dirty views with a certified stale bound, only the
    // beam_width with the largest bounds are re-evaluated; the rest are
    // deferred. A deferred slot must not enter the reduction — its stale
    // ratio is an *over*estimate — so it is masked out and accounted in
    // the a-posteriori guarantee instead. Views with no certified bound
    // (first touch, post-pick family change, truncated enumeration) are
    // always evaluated.
    deferred.clear();
    double deferred_bound = 0.0;
    if (options.memoize && options.beam_width > 0 &&
        dirty.size() > options.beam_width) {
      beamed.clear();
      for (uint32_t v : dirty) {
        if (slots[v].bound_ok) beamed.push_back(v);
      }
      if (beamed.size() > options.beam_width) {
        std::sort(beamed.begin(), beamed.end(),
                  [&](uint32_t a, uint32_t b) {
                    if (slots[a].bound != slots[b].bound) {
                      return slots[a].bound > slots[b].bound;
                    }
                    return a < b;
                  });
        deferred.assign(
            beamed.begin() + static_cast<std::ptrdiff_t>(options.beam_width),
            beamed.end());
        deferred_bound = slots[deferred.front()].bound;
        for (uint32_t v : deferred) beam_out[v] = 1;
        dirty.erase(std::remove_if(
                        dirty.begin(), dirty.end(),
                        [&](uint32_t v) { return beam_out[v] != 0; }),
                    dirty.end());
      }
    }

    // Evaluation crosses the pool's fault points and polls the stop inputs
    // between per-view evaluations. A view interrupted before evaluation
    // keeps kNeverEvaluated / its stale version, so a later resume
    // re-evaluates it — interruption never corrupts the memoization
    // invariant. Returns false (with the status set) when the stage must
    // end the run.
    std::atomic<bool> stop_requested{false};
    auto evaluate_list = [&](const std::vector<uint32_t>& list) -> bool {
      std::fill(counters.begin(), counters.end(), ChunkCounters{});
      Status st = pool.TryParallelFor(
          list.size(), [&](size_t begin, size_t end, size_t chunk) -> Status {
            for (size_t i = begin; i < end; ++i) {
              if (stop_requested.load(std::memory_order_relaxed)) break;
              if (control.StopRequested()) {
                stop_requested.store(true, std::memory_order_relaxed);
                break;
              }
              ViewSlot& slot = slots[list[i]];
              slot.version = state.ViewVersion(list[i]);
              slot.valid = false;
              slot.bound_ok = true;
              evaluate(state, list[i], &slot, &counters[chunk]);
            }
            return Status::Ok();
          });
      uint64_t evals = 0;
      for (const ChunkCounters& c : counters) {
        evals += c.evals;
        result.candidates_truncated += c.truncated;
      }
      stage_evals += evals;
      result.candidates_evaluated += evals;
      result.stats.cache_misses += list.size();
      if (!st.ok()) {
        result.status = st.WithContext(names.error_context);
      } else if (stop_requested.load(std::memory_order_relaxed)) {
        result.status = control.StopStatus();
      } else {
        return true;
      }
      result.completed = false;
      return false;
    };
    if (!evaluate_list(dirty)) {
      end_stage();
      break;
    }

    // Deterministic reduction over all views (cached and recomputed
    // alike): ascending view id with strictly-greater ratio implements
    // the documented candidate order. Bound-pruned stale slots are
    // harmless here: their cached ratio is at most their bound, strictly
    // below the best clean ratio, which itself participates, so they can
    // never win. Beam-deferred slots are masked out.
    const ViewSlot* best = nullptr;
    auto reduce = [&] {
      best = nullptr;
      for (uint32_t v = 0; v < num_views; ++v) {
        if (beam_out[v] != 0) continue;
        const ViewSlot& s = slots[v];
        if (s.valid && (best == nullptr || s.ratio > best->ratio)) {
          best = &s;
        }
      }
    };
    reduce();
    if (best == nullptr && !deferred.empty()) {
      // The beam hid every remaining positive candidate: evaluate the
      // deferred set after all, so a beam run never stops before the
      // exact one would.
      for (uint32_t v : deferred) beam_out[v] = 0;
      const bool fallback_ok = evaluate_list(deferred);
      deferred.clear();
      if (!fallback_ok) {
        end_stage();
        break;
      }
      reduce();
    }
    if (best == nullptr) {
      end_stage();
      break;  // Nothing left with positive benefit.
    }
    if (!deferred.empty()) {
      result.beam_skipped += deferred.size();
      result.beam_stage_factor =
          std::min(result.beam_stage_factor,
                   best->ratio / std::max(best->ratio, deferred_bound));
      for (uint32_t v : deferred) beam_out[v] = 0;
    }

    const Candidate c = best->cand;  // copy: Apply dirties the slot
    // Record per-structure incremental benefits (distributed equally, as
    // in the proof of Theorem 5.1) so analyses can replay the a_i
    // sequence.
    const double per_structure =
        best->benefit / static_cast<double>(c.NumStructures());
    state.Apply(c);
    // The picked view's candidate family changed (a view's bundles or
    // subsets give way to single indexes with smaller spaces, or an index
    // left the family), so its stale bound no longer applies: force
    // re-evaluation.
    slots[c.view].bound_ok = false;
    if (c.add_view) {
      result.picks.push_back(StructureRef{c.view, StructureRef::kNoIndex});
      result.pick_benefits.push_back(per_structure);
    }
    for (int32_t k : c.indexes) {
      result.picks.push_back(StructureRef{c.view, k});
      result.pick_benefits.push_back(per_structure);
    }
    ++result.stats.stages;
    ++steps_this_call;
    end_stage();
  }

  FinishRun(state, run_start, steps_this_call, &result);
  return result;
}

}  // namespace olapidx::stage_driver

#endif  // OLAPIDX_CORE_STAGE_DRIVER_H_
