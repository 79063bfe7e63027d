// AdvisorService: the resident advisor's contracts — initial serve,
// executor-fed observation, what-if sweeps with admission control and
// retry, drift-triggered re-selection, pending-selection resume, and
// crash-safe journaling (kill at any point, restart, get the same served
// state bit-identically).

#include "service/advisor_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/journal.h"
#include "data/fact_generator.h"
#include "data/synthetic.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

SliceQuery Q(uint32_t group_mask, uint32_t selection_mask = 0) {
  return SliceQuery(AttributeSet::FromMask(group_mask),
                    AttributeSet::FromMask(selection_mask));
}

class AdvisorServiceTest : public ::testing::Test {
 protected:
  AdvisorServiceTest() : cube_(UniformSyntheticCube(4, 8, 0.3)) {
    CubeLattice lattice(cube_.schema);
    initial_ = AllSliceQueries(lattice);
    options_.base.algorithm = Algorithm::kInnerLevel;
    options_.base.space_budget = 0.25 * cube_.sizes.TotalViewSpace();
    options_.graph.raw_scan_penalty = 2.0;
    options_.drift_threshold = 0.1;
  }

  ~AdvisorServiceTest() override {
#ifdef OLAPIDX_FAULT_INJECTION
    FaultInjector::Global().Reset();
#endif
    if (!journal_path_.empty()) std::remove(journal_path_.c_str());
  }

  std::string UseJournal(const std::string& name) {
    journal_path_ = ::testing::TempDir() + name;
    std::remove(journal_path_.c_str());
    options_.journal_path = journal_path_;
    return journal_path_;
  }

  std::unique_ptr<AdvisorService> MustCreate() {
    StatusOr<std::unique_ptr<AdvisorService>> service =
        AdvisorService::Create(cube_.schema, cube_.sizes, initial_,
                               options_);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return *std::move(service);
  }

  // Drive the observed distribution far from the baseline epoch so the
  // next AdvanceEpoch sees drift.
  void ObserveShifted(AdvisorService& service) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(service.Observe(Q(0b1100), 3.0).ok());
      ASSERT_TRUE(service.Observe(Q(0b0011, 0b0100), 1.0).ok());
    }
  }

  // A second distribution, disjoint from ObserveShifted's, so an epoch
  // whose baseline is the shifted stream still sees drift.
  void ObserveSkewed(AdvisorService& service) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(service.Observe(Q(0b0001, 0b0010), 5.0).ok());
    }
  }

  SyntheticCube cube_;
  Workload initial_;
  ServiceOptions options_;
  std::string journal_path_;
};

TEST_F(AdvisorServiceTest, ServesInitialDesignAtEpochZero) {
  std::unique_ptr<AdvisorService> service = MustCreate();
  ServedSnapshot snap = service->Snapshot();
  EXPECT_EQ(snap.epoch, 0u);
  EXPECT_EQ(snap.generation, 1u);
  EXPECT_FALSE(snap.pending);
  EXPECT_FALSE(snap.degraded);
  EXPECT_FALSE(snap.recommendation.structures.empty());
  EXPECT_NE(snap.graph_fingerprint, 0u);
  EXPECT_EQ(snap.checkpoint.graph_fingerprint, snap.graph_fingerprint);
}

TEST_F(AdvisorServiceTest, RejectsEmptyInitialWorkloadWithoutJournal) {
  Workload empty;
  StatusOr<std::unique_ptr<AdvisorService>> service =
      AdvisorService::Create(cube_.schema, cube_.sizes, empty, options_);
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AdvisorServiceTest, ExecutorObserverFeedsTheSketch) {
  std::unique_ptr<AdvisorService> service = MustCreate();

  // A real engine loop: build a catalog over a small synthetic fact
  // table, wire the executor's observer to the service, execute queries.
  FactTable fact = GenerateUniformFacts(cube_.schema, 500, /*seed=*/7);
  Catalog catalog(&fact);
  Executor executor(&catalog);
  executor.SetQueryObserver(service->ObserverCallback());

  GroupedResult result;
  ASSERT_TRUE(executor.TryExecute(Q(0b0011), {}, &result).ok());
  ASSERT_TRUE(executor.TryExecute(Q(0b0011), {}, &result).ok());
  ASSERT_TRUE(executor.TryExecute(Q(0b0100), {}, &result).ok());

  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.observations, 3u);
  EXPECT_EQ(stats.observations_dropped, 0u);
}

TEST_F(AdvisorServiceTest, WhatIfSweepsBudgetsAndDiffs) {
  std::unique_ptr<AdvisorService> service = MustCreate();
  double budget = options_.base.space_budget;
  WhatIfRequest request;
  request.budgets = {0.2 * budget, budget, 5.0 * budget};
  request.deadline_ms = 60'000;
  WhatIfResult result = service->WhatIf(request);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.points.size(), 3u);
  // Monotone: more space never raises the average query cost.
  EXPECT_GE(result.points[0].average_query_cost,
            result.points[1].average_query_cost);
  EXPECT_GE(result.points[1].average_query_cost,
            result.points[2].average_query_cost);
  // The served-budget point reproduces the served design: empty diff.
  EXPECT_TRUE(result.points[1].added.empty());
  EXPECT_TRUE(result.points[1].removed.empty());
  // The bigger budget materializes something new.
  EXPECT_FALSE(result.points[2].added.empty());
  EXPECT_EQ(service->Stats().whatif_ok, 1u);
}

TEST_F(AdvisorServiceTest, WhatIfHonorsItsDeadline) {
  std::unique_ptr<AdvisorService> service = MustCreate();
  WhatIfRequest request;
  request.budgets.assign(64, options_.base.space_budget);
  request.deadline_ms = 1;  // expires mid-sweep
  WhatIfResult result = service->WhatIf(request);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(result.points.size(), 64u);
  EXPECT_EQ(service->Stats().whatif_deadline_exceeded, 1u);
}

#ifdef OLAPIDX_FAULT_INJECTION
TEST_F(AdvisorServiceTest, AdmissionControlRejectsExcessRequests) {
  options_.max_concurrent_requests = 1;
  // Pin the holder inside its request: every selection attempt fails
  // transiently and the retry loop backs off ~1s in total, all while the
  // single admission slot stays held.
  options_.retry.max_attempts = 20;
  options_.retry.base_micros = 20'000;
  std::unique_ptr<AdvisorService> service = MustCreate();
  FaultInjector::Global().ArmAlways("service.whatif.run");
  std::atomic<bool> in_request{false};
  std::thread holder([&] {
    WhatIfRequest slow;
    slow.deadline_ms = 60'000;
    in_request.store(true);
    WhatIfResult held = service->WhatIf(slow);
    EXPECT_EQ(held.status.code(), StatusCode::kUnavailable);
  });
  while (!in_request.load()) std::this_thread::yield();
  // Give the holder a beat to pass admission; it then sleeps in backoff.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  WhatIfResult rejected = service->WhatIf(WhatIfRequest{});
  holder.join();
  FaultInjector::Global().Reset();
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(rejected.points.empty());
  EXPECT_EQ(service->Stats().whatif_rejected, 1u);
}

TEST_F(AdvisorServiceTest, WhatIfRetriesTransientFaults) {
  options_.retry.base_micros = 1;  // keep the test fast
  std::unique_ptr<AdvisorService> service = MustCreate();
  // The first attempt fails transiently; the retry succeeds.
  FaultInjector::Global().ArmNth("service.whatif.run", 1);
  WhatIfRequest request;
  request.deadline_ms = 60'000;
  WhatIfResult result = service->WhatIf(request);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.retries, 1u);
  EXPECT_EQ(service->Stats().whatif_retries, 1u);
}

TEST_F(AdvisorServiceTest, WhatIfReportsExhaustedRetries) {
  options_.retry.base_micros = 1;
  std::unique_ptr<AdvisorService> service = MustCreate();
  FaultInjector::Global().ArmAlways("service.whatif.run");
  WhatIfRequest request;
  request.deadline_ms = 60'000;
  WhatIfResult result = service->WhatIf(request);
  FaultInjector::Global().Reset();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service->Stats().whatif_failed, 1u);
}

TEST_F(AdvisorServiceTest, FailedReselectionKeepsServingPreviousDesign) {
  std::unique_ptr<AdvisorService> service = MustCreate();
  // Epoch 1 establishes the baseline distribution.
  ObserveShifted(*service);
  ASSERT_TRUE(service->AdvanceEpoch().status.ok());
  ServedSnapshot before = service->Snapshot();
  ObserveSkewed(*service);
  FaultInjector::Global().ArmAlways("service.worker.spawn");
  EpochResult result = service->AdvanceEpoch();
  FaultInjector::Global().Reset();
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.drift_detected);
  EXPECT_FALSE(result.reselected);
  // Epoch unadvanced, previous design still serving.
  EXPECT_EQ(service->epoch(), 1u);
  EXPECT_EQ(service->Snapshot().generation, before.generation);
  EXPECT_EQ(service->Stats().epoch_failures, 1u);
  // The retried epoch (fault cleared) succeeds against the same sketches.
  result = service->AdvanceEpoch();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.reselected);
  EXPECT_EQ(service->epoch(), 2u);
}
#endif  // OLAPIDX_FAULT_INJECTION

TEST_F(AdvisorServiceTest, QuietEpochDoesNotReselect) {
  std::unique_ptr<AdvisorService> service = MustCreate();
  EpochResult result = service->AdvanceEpoch();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_FALSE(result.drift_detected);
  EXPECT_FALSE(result.reselected);
  EXPECT_EQ(result.epoch, 1u);
  EXPECT_EQ(service->Snapshot().generation, 1u);
}

TEST_F(AdvisorServiceTest, DriftTriggersReselectionForObservedWorkload) {
  std::unique_ptr<AdvisorService> service = MustCreate();
  // Epoch 1 establishes the baseline; epoch 2 sees a shifted epoch.
  ObserveShifted(*service);
  EpochResult first = service->AdvanceEpoch();
  ASSERT_TRUE(first.status.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(service->Observe(Q(0b0001, 0b0010), 5.0).ok());
  }
  EpochResult second = service->AdvanceEpoch();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_TRUE(second.drift_detected);
  EXPECT_GT(second.drift, options_.drift_threshold);
  EXPECT_TRUE(second.reselected);
  ServedSnapshot snap = service->Snapshot();
  EXPECT_EQ(snap.generation, 2u);
  // The new advisor was built from the observed workload, not the
  // bootstrap workload.
  EXPECT_EQ(snap.workload.size(), 1u);
  EXPECT_EQ(snap.workload.queries()[0].query, Q(0b0001, 0b0010));
  EXPECT_EQ(service->Stats().reselections, 1u);
}

TEST_F(AdvisorServiceTest, PendingReselectionCompletesDeterministically) {
  // A stage-capped service never aborts: creation serves the valid
  // prefix design it managed within the stage budget and marks it
  // pending; each stage-capped re-selection does the same; and
  // CompletePendingReselection finishes the selection without ever
  // worsening the served design. Two identical flows must land on
  // bit-identical final designs.
  options_.reselect_max_stages = 1;
  auto run_flow = [this] {
    std::unique_ptr<AdvisorService> service = MustCreate();
    EXPECT_TRUE(service->Snapshot().pending);
    ObserveShifted(*service);
    EXPECT_TRUE(service->AdvanceEpoch().status.ok());
    ObserveSkewed(*service);
    EpochResult cut = service->AdvanceEpoch();
    EXPECT_TRUE(cut.status.ok()) << cut.status.ToString();
    EXPECT_TRUE(cut.reselected);
    EXPECT_TRUE(cut.pending);
    ServedSnapshot capped = service->Snapshot();
    EXPECT_TRUE(service->CompletePendingReselection().ok());
    ServedSnapshot done = service->Snapshot();
    EXPECT_FALSE(done.pending);
    // Completion only ever improves on the capped prefix design.
    EXPECT_LE(done.recommendation.average_query_cost,
              capped.recommendation.average_query_cost);
    EXPECT_GE(done.recommendation.structures.size(),
              capped.recommendation.structures.size());
    return done;
  };
  ServedSnapshot a = run_flow();
  ServedSnapshot b = run_flow();
  ASSERT_EQ(a.recommendation.structures.size(),
            b.recommendation.structures.size());
  for (size_t i = 0; i < a.recommendation.structures.size(); ++i) {
    EXPECT_EQ(a.recommendation.structures[i].name,
              b.recommendation.structures[i].name);
  }
  EXPECT_EQ(a.recommendation.space_used,
            b.recommendation.space_used);  // bit-exact
  EXPECT_EQ(a.recommendation.average_query_cost,
            b.recommendation.average_query_cost);
}

TEST_F(AdvisorServiceTest, RestartRestoresServedStateBitIdentically) {
  UseJournal("olapidx_service_restart.journal");
  ServedSnapshot before;
  {
    std::unique_ptr<AdvisorService> service = MustCreate();
    ObserveShifted(*service);
    ASSERT_TRUE(service->AdvanceEpoch().status.ok());
    ObserveSkewed(*service);
    EpochResult epoch = service->AdvanceEpoch();
    ASSERT_TRUE(epoch.status.ok()) << epoch.status.ToString();
    ASSERT_TRUE(epoch.reselected);
    before = service->Snapshot();
    // `service` is destroyed without any shutdown handshake — the "crash".
    // AdvanceEpoch already journaled; nothing after this point may matter.
  }
  std::unique_ptr<AdvisorService> restarted = MustCreate();
  ServedSnapshot after = restarted->Snapshot();
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.generation, before.generation);
  EXPECT_EQ(after.pending, before.pending);
  EXPECT_EQ(after.graph_fingerprint, before.graph_fingerprint);
  ASSERT_EQ(after.recommendation.structures.size(),
            before.recommendation.structures.size());
  for (size_t i = 0; i < before.recommendation.structures.size(); ++i) {
    EXPECT_EQ(after.recommendation.structures[i].name,
              before.recommendation.structures[i].name);
  }
  EXPECT_EQ(after.recommendation.space_used,
            before.recommendation.space_used);  // bit-exact
  EXPECT_EQ(after.recommendation.average_query_cost,
            before.recommendation.average_query_cost);
  ASSERT_EQ(after.workload.size(), before.workload.size());
  for (size_t i = 0; i < before.workload.size(); ++i) {
    EXPECT_EQ(after.workload.queries()[i].query,
              before.workload.queries()[i].query);
    EXPECT_EQ(after.workload.queries()[i].frequency,
              before.workload.queries()[i].frequency);
  }
}

TEST_F(AdvisorServiceTest, RestartRestoresPendingSelectionExactly) {
  UseJournal("olapidx_service_pending.journal");
  options_.reselect_max_stages = 1;
  ServedSnapshot before;
  {
    std::unique_ptr<AdvisorService> service = MustCreate();
    ObserveShifted(*service);
    ASSERT_TRUE(service->AdvanceEpoch().status.ok());
    ObserveSkewed(*service);
    EpochResult epoch = service->AdvanceEpoch();
    ASSERT_TRUE(epoch.status.ok());
    ASSERT_TRUE(epoch.pending);
    before = service->Snapshot();
  }
  std::unique_ptr<AdvisorService> restarted = MustCreate();
  ServedSnapshot after = restarted->Snapshot();
  EXPECT_TRUE(after.pending);
  ASSERT_EQ(after.checkpoint.picks.size(), before.checkpoint.picks.size());
  EXPECT_EQ(after.checkpoint.stages, before.checkpoint.stages);
  EXPECT_EQ(after.checkpoint.pick_benefits,
            before.checkpoint.pick_benefits);  // bit-exact
  // And the restored pending selection still completes.
  ASSERT_TRUE(restarted->CompletePendingReselection().ok());
  EXPECT_FALSE(restarted->Snapshot().pending);
}

TEST_F(AdvisorServiceTest, RestartObservationsSurviveIntoDriftScore) {
  UseJournal("olapidx_service_sketch.journal");
  {
    std::unique_ptr<AdvisorService> service = MustCreate();
    ObserveShifted(*service);
    ASSERT_TRUE(service->Save().ok());
  }
  std::unique_ptr<AdvisorService> restarted = MustCreate();
  // The journaled current-epoch observations came back: a re-observation
  // of the same stream accumulates, and the first epoch close sees them.
  EpochResult first = restarted->AdvanceEpoch();
  ASSERT_TRUE(first.status.ok());
  // Second epoch with nothing observed vs a populated baseline: drift is
  // scored against the restored observations.
  ObserveShifted(*restarted);
  EpochResult second = restarted->AdvanceEpoch();
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(second.drift_detected);  // identical stream -> no drift
}

TEST_F(AdvisorServiceTest, CorruptJournalIsRejectedAsDataLoss) {
  std::string path = UseJournal("olapidx_service_corrupt.journal");
  {
    std::unique_ptr<AdvisorService> service = MustCreate();
    ASSERT_TRUE(service->Save().ok());
  }
  StatusOr<std::string> text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  std::string flipped = *text;
  flipped[flipped.size() / 2] ^= 0x01;
  ASSERT_TRUE(AtomicWriteFile(path, flipped).ok());
  StatusOr<std::unique_ptr<AdvisorService>> service =
      AdvisorService::Create(cube_.schema, cube_.sizes, initial_, options_);
  EXPECT_EQ(service.status().code(), StatusCode::kDataLoss)
      << service.status().ToString();
}

// The dense → sparse rung: a dense graph whose cost tables exceed
// memory_ceiling_bytes is replaced by the workload-pruned sparse build,
// and a journaled restart rebuilds the same (degraded or dense) graph.
TEST_F(AdvisorServiceTest, MemoryCeilingSelectsTheDegradedRung) {
  SyntheticCube cube = UniformSyntheticCube(6, 8, 0.3);
  Workload workload = AllSliceQueries(CubeLattice(cube.schema));
  options_.base.space_budget = 0.25 * cube.sizes.TotalViewSpace();
  // Prune the degraded build, so its graph differs from the dense one.
  options_.sparse.top_queries = 200;
  StatusOr<Advisor> dense =
      Advisor::Create(cube.schema, cube.sizes, workload, options_.graph);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  const uint64_t dense_bytes = dense->cube_graph().graph.CostTableBytes();
  ASSERT_GT(dense_bytes, 0u);

  for (bool below : {true, false}) {
    SCOPED_TRACE(below ? "ceiling below the dense tables"
                       : "ceiling at the dense tables");
    const std::string path = UseJournal(
        below ? "olapidx_service_ceiling_below.journal"
              : "olapidx_service_ceiling_at.journal");
    options_.memory_ceiling_bytes = below ? dense_bytes - 1 : dense_bytes;
    ServedSnapshot first;
    {
      StatusOr<std::unique_ptr<AdvisorService>> service =
          AdvisorService::Create(cube.schema, cube.sizes, workload,
                                 options_);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      first = (*service)->Snapshot();
    }
    EXPECT_EQ(first.degraded, below);
    if (below) {
      EXPECT_NE(first.graph_fingerprint, dense->graph_fingerprint());
    } else {
      EXPECT_EQ(first.graph_fingerprint, dense->graph_fingerprint());
    }
    // Restart from the journal: the same rung is rebuilt, and its graph
    // matches the journaled fingerprint.
    StatusOr<std::unique_ptr<AdvisorService>> restarted =
        AdvisorService::Create(cube.schema, cube.sizes, workload, options_);
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
    ServedSnapshot after = (*restarted)->Snapshot();
    EXPECT_EQ(after.degraded, below);
    EXPECT_EQ(after.graph_fingerprint, first.graph_fingerprint);
    ASSERT_EQ(after.recommendation.structures.size(),
              first.recommendation.structures.size());
    for (size_t i = 0; i < first.recommendation.structures.size(); ++i) {
      EXPECT_EQ(after.recommendation.structures[i].name,
                first.recommendation.structures[i].name);
    }
    restarted->reset();
    std::remove(path.c_str());
  }
}

TEST_F(AdvisorServiceTest, JournalFromDifferentCubeIsRejected) {
  UseJournal("olapidx_service_mismatch.journal");
  {
    std::unique_ptr<AdvisorService> service = MustCreate();
    ASSERT_TRUE(service->Save().ok());
  }
  // Same schema shape, different sizes -> different graph fingerprint.
  SyntheticCube other = UniformSyntheticCube(4, 9, 0.3);
  StatusOr<std::unique_ptr<AdvisorService>> service =
      AdvisorService::Create(other.schema, other.sizes, initial_, options_);
  EXPECT_EQ(service.status().code(), StatusCode::kFailedPrecondition)
      << service.status().ToString();
}

}  // namespace
}  // namespace olapidx
