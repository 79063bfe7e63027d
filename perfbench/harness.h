// The benchmark protocol shared by the three workloads.
//
// A run sets its workload up several times (set-up time is the median),
// checks the workload's outputs before any timing, then drives the
// workload's closed loop for the requested seconds and reports the
// end-to-end metrics. A traced run splits the seconds into an untraced and
// a traced half of the same loop, reports per-layer metrics from the spans
// (trace.h) and the workload's counters, and reports tracing overhead as
// the traced half's median CPU time per operation over the untraced half's.
//
// Gated times are CPU times: on a shared virtual machine the wall clock
// also counts time the host gave the CPUs to other guests (steal), which
// the kernel leaves out of a thread's CPU time. Wall-clock latency and
// throughput are printed beside them and reported by the traced run.

#ifndef OLAPIDX_PERFBENCH_HARNESS_H_
#define OLAPIDX_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lattice/schema.h"
#include "trace.h"

namespace olapidx {
class Advisor;
struct Recommendation;
}  // namespace olapidx

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Thread ceiling of the closed loop, the CPUs the process may run on:
  // client threads plus library pools never exceed it.
  size_t threads = 1;
  // Directory for files the workload writes (the service journal).
  std::string work_dir = ".";
};

// Attempts of one operation kind, and how many of them failed: were
// rejected, timed out, errored or dropped. A failure is never a completion.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// What one closed loop did.
struct LoopTally {
  // Counts `n` attempts of operation `kind` ("what-ifs", "observations",
  // ...), all failed unless `ok`.
  void Count(const std::string& kind, uint64_t n, bool ok);

  // Per operation kind. ok_frac is the worst kind's success share, so a
  // rare kind's failures cannot hide among a frequent kind's successes.
  std::map<std::string, OpCounts> ops;
  // Completed operations whose output differed from the checked reference.
  uint64_t mismatches = 0;
  std::string first_mismatch;
  // Operations that count toward throughput.
  uint64_t completed = 0;
  double elapsed_s = 0.0;
  // One wall-clock latency sample per completed operation (per batch when
  // serving), and the CPU time the operation took on all threads.
  std::vector<double> latencies_ms;
  std::vector<double> cpu_ms;
  // Per-layer counts, summed over the loop.
  std::map<std::string, double> counters;
  // τ(M)/τ(∅) of each design the loop produced or served; the run
  // reports their mean.
  std::vector<double> design_cost_ratios;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // The --workload name.
  virtual const char* name() const = 0;
  // Percentile reported as cpu_tail_ms (fixed per workload; see
  // README.md).
  virtual double tail_quantile() const = 0;
  // What one latency sample is ("calls", "batches", ...).
  virtual const char* sample_unit() const = 0;

  // Builds inputs from the seed and the state the loop needs, replacing
  // any earlier state. Timed; called several times.
  virtual void Setup() = 0;
  // Output checks on the set-up state, run before any timing. Returns the
  // first failed check, or "" when all pass.
  virtual std::string Check() = 0;
  // Drives the closed loop for `seconds` of wall time.
  virtual LoopTally Loop(double seconds) = 0;
  // Output checks on the state the loop left behind; "" when all pass.
  virtual std::string CheckAfterLoop() { return ""; }
  // Traced run only, after the loop: probes that time a layer in
  // isolation (parallel efficiency, serial baselines) plus the workload's
  // per-layer values, added to *out under their catalog names.
  virtual void LayerProbes(const LoopTally& traced,
                           std::map<std::string, double>* out) = 0;
};

// Adds `from`'s counts, samples and designs to `into`.
void MergeTally(LoopTally& into, const LoopTally& from);

std::unique_ptr<Workload> MakeAdviseD16(const RunConfig& config);
std::unique_ptr<Workload> MakeServeDashboard(const RunConfig& config);
std::unique_ptr<Workload> MakeServiceDrift(const RunConfig& config);

// Looks a workload up by its --workload name; nullptr when unknown.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& config);

// Adds the core layer's counts for one advise step (graph build +
// selection) to *sums under their catalog names (core.graph_build.*,
// core.select.*), and 1 to "core.calls".
void AddAdviceCounters(const olapidx::Advisor& advisor,
                       const olapidx::Recommendation& rec,
                       std::map<std::string, double>* sums);
// Writes the per-call means of those sums to *out.
void MeanAdviceCounters(const std::map<std::string, double>& sums,
                        std::map<std::string, double>* out);

// Helpers the workloads share.
double MsSince(std::chrono::steady_clock::time_point start);
// CPU time used so far by the whole process, and by the calling thread.
double ProcessCpuMs();
double ThreadCpuMs();
std::chrono::steady_clock::time_point DeadlineAfter(double seconds);
bool SameBits(double a, double b);
// E16's and E17's schema: `dims` dimensions cycling through eight mixed
// cardinalities, so view sizes do not collapse into powers of one base.
olapidx::CubeSchema MixedCardinalitySchema(int dims);

// Observations per service.observe span: Observe is too short to span
// one call at a time without the span dominating it.
inline constexpr size_t kObserveChunk = 100;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Samples behind the value (0 = not a sample statistic).
  size_t samples = 0;
};

struct RunReport {
  bool correct = true;
  std::string error;  // first failed output check
  // Totals over every operation kind, and the counts per kind.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, OpCounts> ops;
  std::vector<Metric> metrics;
  // Wall-clock latency and throughput of an untraced run, printed beside
  // the metrics but not part of the result line.
  std::vector<Metric> wall;
  // Metrics the run could not support (too few samples); a report with
  // any is incomplete and printed without a result line.
  std::vector<std::string> missing;
  std::vector<SpanRecord> spans;  // traced run only
};

// Runs the whole protocol on `workload`.
RunReport RunWorkload(Workload& workload, const RunConfig& config);

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunReport& report);

// Every per-layer metric a traced run reports, in output order.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
  // Span whose median duration gives the value ("" = a workload counter),
  // and the factor from span milliseconds to the metric's unit.
  const char* span;
  double scale;
};
const std::vector<LayerMetricSpec>& LayerCatalog();

}  // namespace perfbench

#endif  // OLAPIDX_PERFBENCH_HARNESS_H_
