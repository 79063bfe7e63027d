// serve-dashboard: E16's dim-8 Zipf fact table and its 64-shape Zipf
// request stream with Zipf value pools, served by one client issuing
// fixed-size batches through BatchExecutor::TryExecuteBatch over the
// compressed columnar catalog. The design is the advise step's output at a
// budget that materializes several views; core runs only in set-up.

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "cost/analytical_model.h"
#include "data/fact_generator.h"
#include "engine/batch_executor.h"
#include "engine/column_store.h"
#include "engine/physical_design.h"
#include "harness.h"
#include "stats.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using olapidx::GroupedResult;
using olapidx::SliceQuery;

constexpr size_t kRows = 40'000;
constexpr size_t kQueries = 64;
// The dashboard is E16's: its fact table, query shapes and slice pools are
// drawn with E16's seed, and so is the request stream (SampleStream);
// --seed draws the order the loop serves its batches in. Dashboards drawn
// per seed made the design and the hot slices, and with them every number,
// a lottery: p50 moved 8x between seeds.
constexpr uint64_t kDashboardSeed = 42;
constexpr double kSkew = 1.0;
// About 19 structures over 4 views, so plans spread over views, indexes
// and the raw table.
constexpr double kBudgetRows = 16.0;
constexpr size_t kBatch = 64;
// The stream's length in batches; a run serves about 400, so the loop
// rarely comes back to the start.
constexpr size_t kStreamBatches = 512;
// Each query shape draws its selection values from a Zipf-weighted pool of
// this many slices, so popular dashboard slices recur within a batch.
constexpr size_t kValuePool = 12;
// Stream batches the output check serves before timing; they repeat
// requests within a batch, so coalescing runs under the bit-exact check.
constexpr size_t kCheckedBatches = 32;

// Bit-identical results: same groups in the same order with the same
// aggregate bits.
bool SameResult(const GroupedResult& a, const GroupedResult& b) {
  if (a.num_rows() != b.num_rows() || a.group_attrs != b.group_attrs ||
      a.keys != b.keys) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (!SameBits(a.sums[r], b.sums[r])) return false;
    for (olapidx::AggregateKind kind :
         {olapidx::AggregateKind::kSum, olapidx::AggregateKind::kCount,
          olapidx::AggregateKind::kMin, olapidx::AggregateKind::kMax}) {
      if (!SameBits(a.Value(r, kind), b.Value(r, kind))) return false;
    }
  }
  return true;
}

struct Request {
  SliceQuery query;
  std::vector<uint32_t> values;
};

struct Batch {
  std::vector<SliceQuery> queries;
  std::vector<std::vector<uint32_t>> values;
  std::vector<size_t> distinct;  // index into the distinct requests
};

class ServeDashboard final : public Workload {
 public:
  explicit ServeDashboard(const RunConfig& config) : config_(config) {}

  const char* name() const override { return "serve-dashboard"; }
  double tail_quantile() const override { return 0.9; }
  const char* sample_unit() const override { return "batches"; }

  void Setup() override {
    executor_.reset();
    catalog_.reset();
    fact_.reset();
    setup_error_.clear();

    olapidx::CubeSchema schema = MixedCardinalitySchema(8);
    {
      Span span("data.facts");
      fact_ = std::make_unique<olapidx::FactTable>(
          olapidx::GenerateZipfFacts(schema, kRows, kSkew, kDashboardSeed));
    }
    std::optional<olapidx::ViewSizes> sizes;
    {
      Span span("cost.view_sizes");
      sizes.emplace(olapidx::AnalyticalViewSizes(
          schema, static_cast<double>(kRows)));
    }
    std::optional<olapidx::Workload> workload;
    {
      Span span("workload.generate");
      olapidx::CubeLattice lattice(schema);
      workload.emplace(olapidx::SampledZipfSliceQueries(
          lattice, kSkew, kQueries, kDashboardSeed));
    }
    SampleStream(*workload);

    // The advise step runs serial, so no library pool besides the batch
    // executor's exists while the loop runs.
    std::optional<olapidx::StatusOr<olapidx::Advisor>> advisor;
    {
      Span span("core.graph_build");
      olapidx::SparseCubeGraphOptions options;
      options.num_threads = 1;
      advisor.emplace(
          olapidx::Advisor::CreateSparse(schema, *sizes, *workload, options));
    }
    if (!advisor->ok()) {
      setup_error_ = "CreateSparse: " + advisor->status().ToString();
      return;
    }
    olapidx::Recommendation rec;
    {
      Span span("core.select");
      olapidx::AdvisorConfig config;
      config.algorithm = olapidx::Algorithm::kInnerLevel;
      config.space_budget = kBudgetRows * static_cast<double>(kRows);
      config.inner_greedy.num_threads = 1;
      rec = (*advisor)->Recommend(config);
    }
    if (!rec.status.ok()) {
      setup_error_ = "Recommend: " + rec.status.ToString();
      return;
    }
    design_ratio_ = rec.raw.final_cost / rec.raw.initial_cost;
    advice_counters_.clear();
    AddAdviceCounters(**advisor, rec, &advice_counters_);

    catalog_ = std::make_unique<olapidx::Catalog>(fact_.get());
    std::vector<olapidx::PhysicalDesignItem> items;
    for (const olapidx::RecommendedStructure& s : rec.structures) {
      items.push_back(olapidx::PhysicalDesignItem{s.view, s.index});
    }
    olapidx::Status applied;
    {
      Span span("engine.materialize");
      applied = olapidx::MaterializePhysicalDesign(*catalog_, items).status();
    }
    if (!applied.ok()) {
      setup_error_ = "MaterializePhysicalDesign: " + applied.ToString();
      return;
    }
    {
      Span span("engine.compress");
      catalog_->CompressAllViews();
    }
    uint64_t compressed = 0;
    uint64_t row_store = 0;
    for (olapidx::AttributeSet attrs : catalog_->materialized_views()) {
      compressed += catalog_->column_store(attrs)->CompressedBytes();
      row_store += olapidx::ColumnStore::RowStoreBytes(catalog_->view(attrs));
    }
    compression_ratio_ = static_cast<double>(compressed) /
                         static_cast<double>(std::max<uint64_t>(1, row_store));
    // The client thread is the pool's last worker, so the loop runs
    // config_.threads threads in all.
    executor_ =
        std::make_unique<olapidx::BatchExecutor>(catalog_.get(), config_.threads);
  }

  // Every distinct (query, values) request of the stream, batched, must be
  // bit-identical to serial Executor::Execute over the same storage: first
  // in batches of distinct requests, then in the stream's own first
  // batches, whose repeated requests go through coalescing. Serial answers
  // are recomputed, not kept: keeping one per distinct request would
  // triple peak_rss_mib.
  std::string Check() override {
    if (!setup_error_.empty()) return setup_error_;
    std::vector<Batch> distinct_batches;
    for (size_t i = 0; i < distinct_.size(); ++i) {
      if (i % kBatch == 0) distinct_batches.emplace_back();
      distinct_batches.back().queries.push_back(distinct_[i].query);
      distinct_batches.back().values.push_back(distinct_[i].values);
      distinct_batches.back().distinct.push_back(i);
    }
    olapidx::Executor serial(catalog_.get());
    expected_rows_.assign(distinct_.size(), 0);
    auto serve = [&](const std::vector<Batch>& batches, size_t count,
                     const std::string& label) -> std::string {
      for (size_t b = 0; b < count; ++b) {
        const Batch& batch = batches[b];
        std::vector<GroupedResult> batched;
        olapidx::Status status =
            executor_->TryExecuteBatch(batch.queries, batch.values, &batched);
        if (!status.ok()) return "TryExecuteBatch: " + status.ToString();
        if (batched.size() != batch.queries.size()) {
          return label + " " + std::to_string(b) + ": " +
                 std::to_string(batched.size()) + " results for " +
                 std::to_string(batch.queries.size()) + " requests";
        }
        for (size_t i = 0; i < batched.size(); ++i) {
          GroupedResult expected =
              serial.Execute(batch.queries[i], batch.values[i]);
          expected_rows_[batch.distinct[i]] = expected.num_rows();
          if (!SameResult(batched[i], expected)) {
            return label + " " + std::to_string(b) + ", request " +
                   std::to_string(i) +
                   ": batched result differs from serial Execute";
          }
        }
      }
      return "";
    };
    if (std::string error = serve(distinct_batches, distinct_batches.size(),
                                  "distinct-request batch");
        !error.empty()) {
      return error;
    }
    return serve(batches_, std::min(kCheckedBatches, batches_.size()),
                 "stream batch");
  }

  LoopTally Loop(double seconds) override {
    LoopTally tally;
    std::map<std::string, double>& c = tally.counters;
    std::vector<GroupedResult> results;
    olapidx::BatchStats stats;
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = DeadlineAfter(seconds);
    for (size_t next = 0; std::chrono::steady_clock::now() < deadline;
         ++next) {
      const Batch& batch = batches_[next % batches_.size()];
      const auto batch_start = std::chrono::steady_clock::now();
      const double cpu_start = ProcessCpuMs();
      olapidx::Status status;
      {
        Span root("bench.batch", Tracer::Global().NewRequest());
        Span span("engine.batch");
        stats = olapidx::BatchStats{};
        status = executor_->TryExecuteBatch(batch.queries, batch.values,
                                            &results, nullptr, &stats);
      }
      const double batch_ms = MsSince(batch_start);
      // The executor's pool works only inside TryExecuteBatch.
      const double batch_cpu_ms = ProcessCpuMs() - cpu_start;
      tally.Count("requests", batch.queries.size(), status.ok());
      if (!status.ok()) continue;
      tally.completed += batch.queries.size();
      tally.latencies_ms.push_back(batch_ms);
      tally.cpu_ms.push_back(batch_cpu_ms);
      c["batches"] += 1.0;
      c["queries"] += static_cast<double>(stats.queries);
      c["unique_queries"] += static_cast<double>(stats.unique_queries);
      c["rows_decoded"] += static_cast<double>(stats.rows_decoded);
      c["bytes_scanned"] += static_cast<double>(stats.bytes_scanned);
      c["scan_groups"] += static_cast<double>(stats.scan_groups);
      c["probe_groups"] += static_cast<double>(stats.probe_groups);
      for (size_t i = 0; i < results.size(); ++i) {
        if (results[i].num_rows() != expected_rows_[batch.distinct[i]] &&
            tally.mismatches++ == 0) {
          tally.first_mismatch = "batch " + std::to_string(next) +
                                 ", request " + std::to_string(i) +
                                 ": group count differs from serial Execute";
        }
      }
    }
    tally.elapsed_s = MsSince(start) / 1e3;
    tally.design_cost_ratios.push_back(design_ratio_);
    return tally;
  }

  void LayerProbes(const LoopTally& traced,
                   std::map<std::string, double>* out) override {
    auto counter = [&traced](const char* name) {
      auto it = traced.counters.find(name);
      return it == traced.counters.end() ? 0.0 : it->second;
    };
    const double queries = std::max(1.0, counter("queries"));
    const double batches = std::max(1.0, counter("batches"));
    (*out)["engine.batch.coalesce_ratio"] = counter("unique_queries") / queries;
    (*out)["engine.batch.rows_decoded_per_req"] =
        counter("rows_decoded") / queries;
    (*out)["engine.batch.bytes_scanned_per_req"] =
        counter("bytes_scanned") / queries;
    (*out)["engine.batch.scan_groups"] = counter("scan_groups") / batches;
    (*out)["engine.batch.probe_groups"] = counter("probe_groups") / batches;
    (*out)["engine.compress.ratio"] = compression_ratio_;
    MeanAdviceCounters(advice_counters_, out);

    // Serial baseline: each distinct request through Executor::Execute.
    olapidx::Executor serial(catalog_.get());
    for (const Request& req : distinct_) {
      Span span("engine.execute");
      (void)serial.Execute(req.query, req.values);
    }

    // The same batches on a 1-thread executor vs the loop's.
    olapidx::BatchExecutor one_thread(catalog_.get(), 1);
    const size_t probe_batches = std::min<size_t>(32, batches_.size());
    double elapsed_ms[2] = {0.0, 0.0};
    for (int which = 0; which < 2; ++which) {
      const olapidx::BatchExecutor& exec =
          which == 0 ? one_thread : *executor_;
      const auto start = std::chrono::steady_clock::now();
      for (size_t b = 0; b < probe_batches; ++b) {
        std::vector<GroupedResult> results;
        (void)exec.TryExecuteBatch(batches_[b].queries, batches_[b].values,
                                   &results);
      }
      elapsed_ms[which] = MsSince(start);
    }
    (*out)["engine.batch.parallel_efficiency"] =
        elapsed_ms[0] /
        (static_cast<double>(config_.threads) * elapsed_ms[1]);
  }

 private:
  // E16's traffic mix: a request picks a shape by workload frequency and
  // a slice Zipf(1) over the shape's pool of 12 slices, taken from random
  // fact rows so every slice is non-empty. The stream holds each (shape,
  // slice) request as often as its probability says, rounded by largest
  // remainders, shuffled with E16's seed and cut into batches; --seed
  // draws the order the loop visits the batches in. A run serves about 85%
  // of them. Four shapes, 48 of the 768 requests, cost 25-35 ms each where
  // most others cost under 1 ms, so a batch's cost hinges on how many of
  // them it holds: streams shuffled per seed moved the p90 batch by 25%
  // between seeds (counts drawn per seed, by 20% more).
  void SampleStream(const olapidx::Workload& workload) {
    olapidx::Pcg32 rng(kDashboardSeed + 1);
    std::vector<std::vector<std::vector<uint32_t>>> pools(workload.size());
    for (size_t q = 0; q < workload.size(); ++q) {
      for (size_t p = 0; p < kValuePool; ++p) {
        const size_t row =
            rng.NextBounded(static_cast<uint32_t>(fact_->num_rows()));
        std::vector<uint32_t> values;
        for (int a : workload[q].query.selection().ToVector()) {
          values.push_back(fact_->dim(row, a));
        }
        pools[q].push_back(std::move(values));
      }
    }

    const size_t length = kStreamBatches * kBatch;
    double pool_total = 0.0;
    for (size_t p = 0; p < kValuePool; ++p) {
      pool_total += 1.0 / static_cast<double>(p + 1);
    }
    struct Share {
      size_t q, p, count;
      double remainder;
    };
    std::vector<Share> shares;
    size_t assigned = 0;
    for (size_t q = 0; q < workload.size(); ++q) {
      for (size_t p = 0; p < kValuePool; ++p) {
        const double expected =
            static_cast<double>(length) * workload[q].frequency /
            workload.TotalFrequency() / static_cast<double>(p + 1) /
            pool_total;
        const size_t count = static_cast<size_t>(expected);
        shares.push_back(
            Share{q, p, count, expected - static_cast<double>(count)});
        assigned += count;
      }
    }
    std::vector<size_t> order(shares.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return shares[a].remainder > shares[b].remainder;
    });
    for (size_t i = 0; assigned < length; ++i, ++assigned) {
      ++shares[order[i % order.size()]].count;
    }

    distinct_.clear();
    std::vector<size_t> stream;
    for (const Share& share : shares) {
      if (share.count == 0) continue;
      stream.insert(stream.end(), share.count, distinct_.size());
      distinct_.push_back(
          Request{workload[share.q].query, pools[share.q][share.p]});
    }
    Shuffle(stream, kDashboardSeed + 2);
    batches_.assign(kStreamBatches, Batch{});
    for (size_t i = 0; i < stream.size(); ++i) {
      Batch& batch = batches_[i / kBatch];
      const Request& req = distinct_[stream[i]];
      batch.queries.push_back(req.query);
      batch.values.push_back(req.values);
      batch.distinct.push_back(stream[i]);
    }
    Shuffle(batches_, config_.seed);
  }

  template <typename T>
  static void Shuffle(std::vector<T>& items, uint64_t seed) {
    olapidx::Pcg32 rng(seed);
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1],
                items[rng.NextBounded(static_cast<uint32_t>(i))]);
    }
  }

  const RunConfig config_;
  std::string setup_error_;
  // Declared in dependency order: the executor reads the catalog, which
  // reads the fact table.
  std::unique_ptr<olapidx::FactTable> fact_;
  std::unique_ptr<olapidx::Catalog> catalog_;
  std::unique_ptr<olapidx::BatchExecutor> executor_;
  std::vector<Request> distinct_;
  std::vector<Batch> batches_;
  std::vector<size_t> expected_rows_;  // per distinct request
  double design_ratio_ = 0.0;
  double compression_ratio_ = 0.0;
  // The set-up advise step's core counts.
  std::map<std::string, double> advice_counters_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeDashboard(const RunConfig& config) {
  return std::make_unique<ServeDashboard>(config);
}

}  // namespace perfbench
