#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

// Set-up repetitions per run; setup_s is the median of their CPU times.
constexpr int kSetupRepeats = 15;

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// A percentile metric, or a note in report->missing when the samples do
// not support it.
void AddPercentile(RunReport* report, const char* name,
                   const std::vector<double>& samples, double q) {
  std::optional<double> value = SupportedPercentile(samples, q);
  if (!value) {
    report->missing.push_back(std::string(name) + " (" +
                              std::to_string(samples.size()) + " samples)");
    return;
  }
  report->metrics.push_back(Metric{name, *value, "ms", samples.size()});
}

double OpsPerSecond(const LoopTally& tally) {
  return static_cast<double>(tally.completed) /
         (tally.elapsed_s > 0.0 ? tally.elapsed_s : 1.0);
}

double ClockMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

void AddLayerMetrics(const std::vector<SpanRecord>& setup_spans,
                     const std::vector<SpanRecord>& loop_spans,
                     const std::vector<SpanRecord>& probe_spans,
                     const LoopTally& untraced, const LoopTally& traced,
                     std::map<std::string, double> values,
                     RunReport* report) {
  std::vector<SpanRecord> all = setup_spans;
  all.insert(all.end(), loop_spans.begin(), loop_spans.end());
  all.insert(all.end(), probe_spans.begin(), probe_spans.end());

  // Where the loop's time went: each layer's self time as a share of all
  // self time inside the loop's spans.
  std::map<std::string, double> self_ms = LayerSelfMs(loop_spans);
  double total_ms = 0.0;
  for (const auto& [layer, ms] : self_ms) total_ms += ms;
  for (const auto& [layer, ms] : self_ms) {
    values[layer + ".self_frac"] = total_ms > 0.0 ? ms / total_ms : 0.0;
  }
  values["trace.spans"] = static_cast<double>(all.size());
  const double untraced_p50 = Median(untraced.cpu_ms);
  values["trace.overhead_p50_frac"] =
      untraced_p50 > 0.0 ? Median(traced.cpu_ms) / untraced_p50 - 1.0 : 0.0;
  // The wall-clock view of the untraced half.
  values["bench.wall_p50_ms"] = Median(untraced.latencies_ms);
  values["bench.ops_per_s"] = OpsPerSecond(untraced);

  for (const LayerMetricSpec& spec : LayerCatalog()) {
    double value = 0.0;
    size_t samples = 0;
    if (spec.span[0] != '\0') {
      std::vector<double> ms = DurationsMs(all, spec.span);
      samples = ms.size();
      value = Median(ms) * spec.scale;
    } else if (auto it = values.find(spec.name); it != values.end()) {
      value = it->second;
    }
    report->metrics.push_back(Metric{spec.name, value, spec.unit, samples});
  }
  report->spans = std::move(all);
}

}  // namespace

void LoopTally::Count(const std::string& kind, uint64_t n, bool ok) {
  OpCounts& counts = ops[kind];
  counts.attempted += n;
  if (!ok) counts.failed += n;
}

void MergeTally(LoopTally& into, const LoopTally& from) {
  for (const auto& [kind, counts] : from.ops) {
    into.ops[kind].attempted += counts.attempted;
    into.ops[kind].failed += counts.failed;
  }
  into.completed += from.completed;
  if (into.mismatches == 0) into.first_mismatch = from.first_mismatch;
  into.mismatches += from.mismatches;
  into.latencies_ms.insert(into.latencies_ms.end(), from.latencies_ms.begin(),
                           from.latencies_ms.end());
  into.cpu_ms.insert(into.cpu_ms.end(), from.cpu_ms.begin(), from.cpu_ms.end());
  into.design_cost_ratios.insert(into.design_cost_ratios.end(),
                                 from.design_cost_ratios.begin(),
                                 from.design_cost_ratios.end());
  for (const auto& [name, value] : from.counters) into.counters[name] += value;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double ProcessCpuMs() { return ClockMs(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuMs() { return ClockMs(CLOCK_THREAD_CPUTIME_ID); }

std::chrono::steady_clock::time_point DeadlineAfter(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

olapidx::CubeSchema MixedCardinalitySchema(int dims) {
  const uint64_t cards[] = {100, 200, 50, 80, 120, 60, 90, 40};
  std::vector<olapidx::Dimension> out;
  for (int i = 0; i < dims; ++i) {
    out.push_back(olapidx::Dimension{"d" + std::to_string(i), cards[i % 8]});
  }
  return olapidx::CubeSchema(out);
}

const std::vector<LayerMetricSpec>& LayerCatalog() {
  static const std::vector<LayerMetricSpec> catalog = {
      {"core.graph_build.ms", "ms", "core.graph_build", 1.0},
      {"core.graph_build.peak_bytes", "bytes", "", 1.0},
      {"core.graph_build.structures", "count", "", 1.0},
      {"core.graph_build.retained_views", "count", "", 1.0},
      {"core.graph_build.views_dropped", "count", "", 1.0},
      {"core.select.ms", "ms", "core.select", 1.0},
      {"core.select.candidates_evaluated", "count", "", 1.0},
      {"core.select.stages", "count", "", 1.0},
      {"core.select.cache_hit_rate", "fraction", "", 1.0},
      {"core.select.beam_skipped", "count", "", 1.0},
      {"core.select.beam_stage_factor", "ratio", "", 1.0},
      {"core.select.parallel_efficiency", "fraction", "", 1.0},
      {"engine.materialize.ms", "ms", "engine.materialize", 1.0},
      {"engine.compress.ms", "ms", "engine.compress", 1.0},
      {"engine.compress.ratio", "ratio", "", 1.0},
      {"engine.batch.ms", "ms", "engine.batch", 1.0},
      {"engine.batch.coalesce_ratio", "ratio", "", 1.0},
      {"engine.batch.rows_decoded_per_req", "rows", "", 1.0},
      {"engine.batch.bytes_scanned_per_req", "bytes", "", 1.0},
      {"engine.batch.scan_groups", "count", "", 1.0},
      {"engine.batch.probe_groups", "count", "", 1.0},
      {"engine.batch.parallel_efficiency", "fraction", "", 1.0},
      {"engine.execute.us", "us", "engine.execute", 1e3},
      {"service.whatif.ms", "ms", "service.whatif", 1.0},
      {"service.whatif.attempted", "count", "", 1.0},
      {"service.whatif.failed", "count", "", 1.0},
      {"service.whatif.ok", "count", "", 1.0},
      {"service.whatif.rejected", "count", "", 1.0},
      {"service.whatif.deadline_exceeded", "count", "", 1.0},
      {"service.whatif.retries", "count", "", 1.0},
      {"service.observe.ns", "ns", "service.observe",
       1e6 / static_cast<double>(kObserveChunk)},
      {"service.observe.attempted", "count", "", 1.0},
      {"service.observe.dropped", "count", "", 1.0},
      {"service.epoch.ms", "ms", "service.epoch", 1.0},
      {"service.epoch.attempted", "count", "", 1.0},
      {"service.epoch.failed", "count", "", 1.0},
      {"service.epoch.reselected", "count", "", 1.0},
      {"service.epoch.degraded", "count", "", 1.0},
      {"service.save.ms", "ms", "service.save", 1.0},
      {"data.facts.ms", "ms", "data.facts", 1.0},
      {"cost.view_sizes.ms", "ms", "cost.view_sizes", 1.0},
      {"workload.generate.ms", "ms", "workload.generate", 1.0},
      {"bench.self_frac", "fraction", "", 1.0},
      {"core.self_frac", "fraction", "", 1.0},
      {"engine.self_frac", "fraction", "", 1.0},
      {"service.self_frac", "fraction", "", 1.0},
      {"bench.wall_p50_ms", "ms", "", 1.0},
      {"bench.ops_per_s", "1/s", "", 1.0},
      {"trace.spans", "count", "", 1.0},
      {"trace.overhead_p50_frac", "fraction", "", 1.0},
  };
  return catalog;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& config) {
  if (name == "advise-d16") return MakeAdviseD16(config);
  if (name == "serve-dashboard") return MakeServeDashboard(config);
  if (name == "service-drift") return MakeServiceDrift(config);
  return nullptr;
}

RunReport RunWorkload(Workload& workload, const RunConfig& config) {
  RunReport report;
  Tracer& tracer = Tracer::Global();

  tracer.SetEnabled(config.trace);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double start_ms = ProcessCpuMs();
    {
      Span span("bench.setup");
      workload.Setup();
    }
    setup_s.push_back((ProcessCpuMs() - start_ms) / 1e3);
  }
  tracer.SetEnabled(false);
  std::vector<SpanRecord> setup_spans = tracer.Drain();

  if (std::string error = workload.Check(); !error.empty()) {
    report.correct = false;
    report.error = "output check failed before timing: " + error;
    report.attempted = 1;
    report.failed = 1;
    return report;
  }

  LoopTally totals;
  LoopTally tally;
  if (!config.trace) {
    tally = workload.Loop(config.seconds);
    MergeTally(totals, tally);
  } else {
    LoopTally untraced = workload.Loop(config.seconds / 2.0);
    tracer.SetEnabled(true);
    tally = workload.Loop(config.seconds / 2.0);
    std::vector<SpanRecord> loop_spans = tracer.Drain();
    std::map<std::string, double> values;
    workload.LayerProbes(tally, &values);
    tracer.SetEnabled(false);
    std::vector<SpanRecord> probe_spans = tracer.Drain();
    MergeTally(totals, untraced);
    MergeTally(totals, tally);
    AddLayerMetrics(setup_spans, loop_spans, probe_spans, untraced, tally,
                    std::move(values), &report);
  }

  report.ops = totals.ops;
  for (const auto& [kind, counts] : totals.ops) {
    report.attempted += counts.attempted;
    report.failed += counts.failed;
  }
  if (totals.mismatches > 0) {
    report.correct = false;
    report.error = std::to_string(totals.mismatches) +
                   " output(s) differed from the checked reference; first: " +
                   totals.first_mismatch;
  } else if (std::string error = workload.CheckAfterLoop(); !error.empty()) {
    report.correct = false;
    report.error = "output check failed after the loop: " + error;
  }
  if (config.trace) return report;

  report.metrics.push_back(
      Metric{"setup_s", Median(setup_s), "s", setup_s.size()});
  AddPercentile(&report, "cpu_p50_ms", tally.cpu_ms, 0.5);
  AddPercentile(&report, "cpu_tail_ms", tally.cpu_ms,
                workload.tail_quantile());
  report.metrics.push_back(Metric{"peak_rss_mib", PeakRssMiB(), "MiB", 0});
  double ok_frac = 1.0;
  for (const auto& [kind, counts] : tally.ops) {
    if (counts.attempted == 0) continue;
    ok_frac = std::min(ok_frac, 1.0 - static_cast<double>(counts.failed) /
                                          static_cast<double>(counts.attempted));
  }
  report.metrics.push_back(Metric{"ok_frac", ok_frac, "fraction", 0});
  if (tally.design_cost_ratios.empty()) {
    report.missing.push_back("design_cost_ratio (no design)");
  } else {
    double sum = 0.0;
    for (double ratio : tally.design_cost_ratios) sum += ratio;
    report.metrics.push_back(Metric{
        "design_cost_ratio",
        sum / static_cast<double>(tally.design_cost_ratios.size()), "ratio",
        tally.design_cost_ratios.size()});
  }
  for (const auto& [name, q] : {std::pair{"wall_p50_ms", 0.5},
                                 std::pair{"wall_tail_ms",
                                           workload.tail_quantile()}}) {
    if (std::optional<double> value =
            SupportedPercentile(tally.latencies_ms, q)) {
      report.wall.push_back(
          Metric{name, *value, "ms", tally.latencies_ms.size()});
    }
  }
  report.wall.push_back(Metric{"ops_per_s", OpsPerSecond(tally), "1/s", 0});
  return report;
}

std::string ResultJson(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
