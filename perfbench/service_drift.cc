// service-drift: a resident AdvisorService on bench_service's dim-6 cube,
// journaled, with the service's own default deadline and admission limit.
// Two what-if clients issue 3-point budget sweeps while one feeder writes
// Zipf observations whose hot set rotates every epoch and closes the epoch
// on a fixed schedule, so each close detects drift and re-selects: reads
// beside writes, dense graph builds and many small serial selections.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "harness.h"
#include "service/advisor_service.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using olapidx::AdvisorService;
using olapidx::StatusCode;

constexpr int kDims = 6;
constexpr uint64_t kCardinality = 8;
constexpr double kSparsity = 0.3;
constexpr double kSkew = 1.1;
constexpr double kBudgetFraction = 0.25;  // of the total view space
constexpr size_t kWhatIfClients = 2;
// Each epoch the feeder writes kChunksPerEpoch chunks of kObserveChunk
// observations spread over kEpochPeriod, then closes the epoch.
constexpr size_t kChunksPerEpoch = 20;
constexpr std::chrono::milliseconds kEpochPeriod{250};
// Epoch e draws Zipf ranks over the query list rotated by e * kHotStride
// positions: consecutive epochs have disjoint hot sets, and the stride is
// coprime to the 729 queries, so a run sees a different hot set every
// epoch and its numbers average over many of them.
constexpr size_t kHotStride = 97;

class ServiceDrift final : public Workload {
 public:
  explicit ServiceDrift(const RunConfig& config)
      : config_(config),
        journal_(config.work_dir + "/service-drift.journal") {}

  ~ServiceDrift() override {
    service_.reset();
    RemoveJournal();
  }

  const char* name() const override { return "service-drift"; }
  double tail_quantile() const override { return 0.9; }
  const char* sample_unit() const override { return "what-ifs"; }

  void Setup() override {
    service_.reset();
    RemoveJournal();
    setup_error_.clear();
    next_epoch_ = 0;
    {
      Span span("data.facts");
      cube_.emplace(
          olapidx::UniformSyntheticCube(kDims, kCardinality, kSparsity));
    }
    {
      Span span("workload.generate");
      olapidx::CubeLattice lattice(cube_->schema);
      // The service starts from bench_service's uniform workload over all
      // 729 slice queries; --seed draws only the observation stream.
      // Re-selection warm-starts from the served picks, so a seeded
      // initial design would steer every later design of the run.
      initial_.emplace(olapidx::AllSliceQueries(lattice));
      // The observation stream's query order: a seeded shuffle.
      queries_.clear();
      for (const olapidx::WeightedQuery& wq : initial_->queries()) {
        queries_.push_back(wq.query);
      }
      olapidx::Pcg32 rng(config_.seed + 2);
      for (size_t i = queries_.size(); i > 1; --i) {
        std::swap(queries_[i - 1],
                  queries_[rng.NextBounded(static_cast<uint32_t>(i))]);
      }
      zipf_.emplace(static_cast<uint32_t>(queries_.size()), kSkew);
    }
    options_ = olapidx::ServiceOptions{};
    options_.base.algorithm = olapidx::Algorithm::kInnerLevel;
    options_.base.space_budget =
        kBudgetFraction * cube_->sizes.TotalViewSpace();
    options_.graph.raw_scan_penalty = 2.0;
    // Graph builds run inside the service beside the clients; serial
    // builds keep the run within its thread ceiling.
    options_.graph.num_threads = 1;
    options_.sparse.num_threads = 1;
    options_.journal_path = journal_;
    {
      Span span("service.create");
      auto created = AdvisorService::Create(cube_->schema, cube_->sizes,
                                            *initial_, options_);
      if (!created.ok()) {
        setup_error_ = "AdvisorService::Create: " + created.status().ToString();
        return;
      }
      service_ = std::move(*created);
    }
    sweep_.budgets = {0.5 * options_.base.space_budget,
                      options_.base.space_budget,
                      2.0 * options_.base.space_budget};
  }

  std::string Check() override {
    if (!setup_error_.empty()) return setup_error_;
    // A what-if at the served budget runs the served selection again.
    olapidx::WhatIfRequest at_served;
    at_served.budgets = {options_.base.space_budget};
    olapidx::WhatIfResult whatif = service_->WhatIf(at_served);
    if (!whatif.status.ok()) return "WhatIf: " + whatif.status.ToString();
    const double served =
        service_->Snapshot().recommendation.average_query_cost;
    if (!SameBits(whatif.points[0].average_query_cost, served)) {
      return "what-if at the served budget costs " +
             std::to_string(whatif.points[0].average_query_cost) +
             ", the served design " + std::to_string(served);
    }
    // Drift, then a journaled restart. The first close only sets the
    // drift baseline; every later one sees a new hot set.
    for (int i = 0; i < 3; ++i) {
      LoopTally unused;
      for (size_t chunk = 0; chunk < kChunksPerEpoch; ++chunk) {
        FeedChunk(next_epoch_, chunk, &unused);
      }
      olapidx::EpochResult epoch = service_->AdvanceEpoch();
      ++next_epoch_;
      if (!epoch.status.ok()) {
        return "AdvanceEpoch: " + epoch.status.ToString();
      }
      if (i > 0 && !epoch.reselected) {
        return "epoch " + std::to_string(epoch.epoch) +
               " closed without re-selecting (drift " +
               std::to_string(epoch.drift) + ")";
      }
    }
    return CheckRestart();
  }

  LoopTally Loop(double seconds) override {
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = DeadlineAfter(seconds);
    std::vector<LoopTally> tallies(kWhatIfClients + 1);
    {
      // The calling thread runs one client; with the other client, the
      // feeder and the service's re-selection worker the loop runs at most
      // 4 threads.
      std::vector<std::thread> threads;
      threads.emplace_back([&] { Feeder(deadline, &tallies[0]); });
      for (size_t c = 1; c < kWhatIfClients; ++c) {
        threads.emplace_back([&, c] { Client(deadline, &tallies[c + 1]); });
      }
      Client(deadline, &tallies[1]);
      for (std::thread& t : threads) t.join();
    }
    LoopTally tally;
    for (const LoopTally& t : tallies) MergeTally(tally, t);
    tally.elapsed_s = MsSince(start) / 1e3;
    return tally;
  }

  std::string CheckAfterLoop() override { return CheckRestart(); }

  void LayerProbes(const LoopTally& traced,
                   std::map<std::string, double>* out) override {
    for (const auto& [name, value] : traced.counters) (*out)[name] = value;
    struct OpMetrics {
      const char* kind;
      const char* attempted;
      const char* failed;
    };
    for (const OpMetrics& op :
         {OpMetrics{"what-ifs", "service.whatif.attempted",
                    "service.whatif.failed"},
          OpMetrics{"observations", "service.observe.attempted",
                    "service.observe.dropped"},
          OpMetrics{"epoch closes", "service.epoch.attempted",
                    "service.epoch.failed"}}) {
      auto it = traced.ops.find(op.kind);
      if (it == traced.ops.end()) continue;
      (*out)[op.attempted] = static_cast<double>(it->second.attempted);
      (*out)[op.failed] = static_cast<double>(it->second.failed);
    }
    for (int i = 0; i < 5; ++i) {
      Span span("service.save");
      (void)service_->Save();
    }
  }

 private:
  void RemoveJournal() const {
    std::remove(journal_.c_str());
    std::remove((journal_ + ".tmp").c_str());
  }

  // One chunk of epoch `epoch`'s observations: a fixed function of the
  // seed, the epoch and the chunk.
  void FeedChunk(uint64_t epoch, size_t chunk, LoopTally* tally) {
    olapidx::Pcg32 rng(config_.seed * 1'000'003 + epoch * kChunksPerEpoch +
                       chunk);
    const size_t shift = (epoch * kHotStride) % queries_.size();
    uint64_t dropped = 0;
    {
      Span span("service.observe");
      for (size_t i = 0; i < kObserveChunk; ++i) {
        const size_t rank = zipf_->Sample(rng);
        olapidx::Status status =
            service_->Observe(queries_[(rank + shift) % queries_.size()]);
        if (!status.ok()) ++dropped;
      }
    }
    tally->Count("observations", kObserveChunk - dropped, true);
    tally->Count("observations", dropped, false);
  }

  void Feeder(std::chrono::steady_clock::time_point deadline,
              LoopTally* tally) {
    while (std::chrono::steady_clock::now() < deadline) {
      const auto epoch_start = std::chrono::steady_clock::now();
      const uint64_t request = Tracer::Global().NewRequest();
      for (size_t chunk = 0; chunk < kChunksPerEpoch; ++chunk) {
        {
          Span root("bench.observe", request);
          FeedChunk(next_epoch_, chunk, tally);
        }
        const std::chrono::steady_clock::time_point chunk_end =
            epoch_start + kEpochPeriod * static_cast<int64_t>(chunk + 1) /
                              static_cast<int64_t>(kChunksPerEpoch);
        std::this_thread::sleep_until(std::min(deadline, chunk_end));
        if (std::chrono::steady_clock::now() >= deadline) return;
      }
      olapidx::EpochResult epoch;
      {
        Span root("bench.epoch", request);
        Span span("service.epoch");
        epoch = service_->AdvanceEpoch();
      }
      ++next_epoch_;
      tally->Count("epoch closes", 1, epoch.status.ok());
      if (!epoch.status.ok()) continue;
      tally->counters["service.epoch.reselected"] += epoch.reselected ? 1 : 0;
      tally->counters["service.epoch.degraded"] += epoch.degraded ? 1 : 0;
      const olapidx::SelectionResult& served =
          service_->Snapshot().recommendation.raw;
      tally->design_cost_ratios.push_back(served.final_cost /
                                          served.initial_cost);
    }
  }

  void Client(std::chrono::steady_clock::time_point deadline,
              LoopTally* tally) {
    while (std::chrono::steady_clock::now() < deadline) {
      const auto request_start = std::chrono::steady_clock::now();
      // WhatIf runs its selections on the calling thread.
      const double cpu_start = ThreadCpuMs();
      olapidx::WhatIfResult result;
      {
        Span root("bench.whatif", Tracer::Global().NewRequest());
        Span span("service.whatif");
        result = service_->WhatIf(sweep_);
      }
      const double ms = MsSince(request_start);
      const double cpu_ms = ThreadCpuMs() - cpu_start;
      tally->Count("what-ifs", 1, result.status.ok());
      tally->counters["service.whatif.retries"] +=
          static_cast<double>(result.retries);
      switch (result.status.code()) {
        case StatusCode::kOk:
          tally->counters["service.whatif.ok"] += 1.0;
          break;
        case StatusCode::kResourceExhausted:
          tally->counters["service.whatif.rejected"] += 1.0;
          break;
        case StatusCode::kDeadlineExceeded:
          tally->counters["service.whatif.deadline_exceeded"] += 1.0;
          break;
        default:
          break;
      }
      if (!result.status.ok()) continue;
      if (result.points.size() != sweep_.budgets.size() &&
          tally->mismatches++ == 0) {
        tally->first_mismatch = "what-if answered " +
                                std::to_string(result.points.size()) +
                                " of " +
                                std::to_string(sweep_.budgets.size()) +
                                " budget points";
      }
      ++tally->completed;
      tally->latencies_ms.push_back(ms);
      tally->cpu_ms.push_back(cpu_ms);
    }
  }

  // Journals the served state, restores a second service from the journal
  // and compares epoch and served design.
  std::string CheckRestart() {
    olapidx::Status saved = service_->Save();
    if (!saved.ok()) return "Save: " + saved.ToString();
    auto restarted = AdvisorService::Create(cube_->schema, cube_->sizes,
                                            *initial_, options_);
    if (!restarted.ok()) {
      return "journaled restart: " + restarted.status().ToString();
    }
    if ((*restarted)->epoch() != service_->epoch()) {
      return "journaled restart restored epoch " +
             std::to_string((*restarted)->epoch()) + ", served epoch is " +
             std::to_string(service_->epoch());
    }
    const olapidx::ServedSnapshot live = service_->Snapshot();
    const olapidx::ServedSnapshot restored = (*restarted)->Snapshot();
    std::vector<std::string> live_names;
    std::vector<std::string> restored_names;
    for (const auto& s : live.recommendation.structures) {
      live_names.push_back(s.name);
    }
    for (const auto& s : restored.recommendation.structures) {
      restored_names.push_back(s.name);
    }
    if (live.generation != restored.generation ||
        live.graph_fingerprint != restored.graph_fingerprint ||
        live_names != restored_names ||
        !SameBits(live.recommendation.average_query_cost,
                  restored.recommendation.average_query_cost)) {
      return "journaled restart restored a different served design";
    }
    return "";
  }

  const RunConfig config_;
  const std::string journal_;
  std::string setup_error_;
  std::optional<olapidx::SyntheticCube> cube_;
  std::optional<olapidx::Workload> initial_;
  std::vector<olapidx::SliceQuery> queries_;
  std::optional<olapidx::ZipfSampler> zipf_;
  olapidx::ServiceOptions options_;
  olapidx::WhatIfRequest sweep_;
  // Only the feeder thread advances it while the loop runs.
  uint64_t next_epoch_ = 0;
  std::unique_ptr<AdvisorService> service_;
};

}  // namespace

std::unique_ptr<Workload> MakeServiceDrift(const RunConfig& config) {
  return std::make_unique<ServiceDrift>(config);
}

}  // namespace perfbench
