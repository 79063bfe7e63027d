#include "core/stage_driver.h"

#include "core/selection_metrics.h"

namespace olapidx::stage_driver {

uint64_t ElapsedMicros(SteadyClock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - since)
          .count());
}

Status BeginRun(const ResumePicks* resume, SelectionState* state,
                SelectionResult* result) {
  const QueryViewGraph& graph = state->graph();
  result->initial_cost = state->TotalCost();
  for (uint32_t q = 0; q < graph.num_queries(); ++q) {
    result->total_frequency += graph.query_frequency(q);
  }
  if (resume == nullptr) return Status::Ok();
  return ReplayPicks(*resume, state, result);
}

bool StopBeforeStage(const RunControl& control, size_t steps_this_call,
                     SelectionResult* result) {
  if (steps_this_call >= control.max_steps) {
    result->status = Status::ResourceExhausted("stage budget reached");
  } else if (control.StopRequested()) {
    result->status = control.StopStatus();
  } else {
    return false;
  }
  result->completed = false;
  return true;
}

void FinishRun(const SelectionState& state, SteadyClock::time_point run_start,
               size_t steps_this_call, SelectionResult* result) {
  result->stats.total_wall_micros = ElapsedMicros(run_start);
  result->space_used = state.SpaceUsed();
  result->final_cost = state.TotalCost();
  result->total_maintenance = state.TotalMaintenance();
  selection_metrics::RecordRun(*result, steps_this_call);
}

}  // namespace olapidx::stage_driver
