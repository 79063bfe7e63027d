// Self-tests of the benchmark harness: the statistics rules, span self
// time, and failure accounting under the library's fault points.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "harness.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(StatsTest, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, QuartilesInterpolate) {
  std::vector<double> samples = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_DOUBLE_EQ(Quantile(samples, 0.25), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(samples, 0.75), 7.0);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(Quantile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(samples, 1.0), 9.0);
}

TEST(StatsTest, PercentileNeedsTenSamplesBeyondIt) {
  EXPECT_TRUE(PercentileSupported(100, 0.9));
  EXPECT_FALSE(PercentileSupported(99, 0.9));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
  EXPECT_TRUE(PercentileSupported(40, 0.75));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
}

TEST(StatsTest, UnsupportedPercentileIsMissing) {
  const std::vector<double> four = {1.0, 2.0, 3.0, 4.0};
  EXPECT_FALSE(SupportedPercentile(four, 0.9).has_value());
  EXPECT_FALSE(SupportedPercentile(four, 0.99).has_value());
  EXPECT_FALSE(SupportedPercentile(four, 0.5).has_value());
  EXPECT_FALSE(SupportedPercentile(four, 0.25).has_value());

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  ASSERT_TRUE(SupportedPercentile(hundred, 0.9).has_value());
  EXPECT_NEAR(*SupportedPercentile(hundred, 0.9), 90.1, 1e-9);
  EXPECT_FALSE(SupportedPercentile(hundred, 0.95).has_value());
}

TEST(TraceTest, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<SpanRecord> spans = {
      {1, 0, 1, "bench.op", 0, 100, 0},
      {2, 1, 1, "core.a", 10, 30, 0},
      {3, 1, 1, "core.b", 20, 50, 0},
      {4, 3, 1, "engine.c", 25, 35, 0},
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 60);  // 100 minus the union [10, 50)
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
  std::map<std::string, double> layers = LayerSelfMs(spans);
  EXPECT_DOUBLE_EQ(layers["bench"], 60e-6);
  EXPECT_DOUBLE_EQ(layers["core"], 40e-6);
  EXPECT_DOUBLE_EQ(layers["engine"], 10e-6);
}

TEST(TraceTest, SpansNestAndShareTheirRequest) {
  Tracer& tracer = Tracer::Global();
  tracer.Drain();
  tracer.SetEnabled(true);
  const uint64_t request = tracer.NewRequest();
  {
    Span root("bench.op", request);
    Span child("core.op");
  }
  { Span unrelated("data.op"); }
  tracer.SetEnabled(false);
  { Span off("data.off"); }
  std::vector<SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "bench.op");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, request);
  EXPECT_EQ(spans[2].parent, 0u);
  EXPECT_EQ(spans[2].request, 0u);
}

// Arms a fault point for the duration of the wrapped workload's loop, so
// set-up and the output checks run clean.
class Faulted final : public Workload {
 public:
  Faulted(std::unique_ptr<Workload> inner, std::string point, double p)
      : inner_(std::move(inner)), point_(std::move(point)), p_(p) {}

  const char* name() const override { return inner_->name(); }
  double tail_quantile() const override { return inner_->tail_quantile(); }
  const char* sample_unit() const override { return inner_->sample_unit(); }
  void Setup() override { inner_->Setup(); }
  std::string Check() override { return inner_->Check(); }
  LoopTally Loop(double seconds) override {
    olapidx::FaultInjector::Global().ArmRandom(point_, p_, 7);
    LoopTally tally = inner_->Loop(seconds);
    olapidx::FaultInjector::Global().Reset();
    return tally;
  }
  std::string CheckAfterLoop() override { return inner_->CheckAfterLoop(); }
  void LayerProbes(const LoopTally& traced,
                   std::map<std::string, double>* out) override {
    inner_->LayerProbes(traced, out);
  }

 private:
  std::unique_ptr<Workload> inner_;
  std::string point_;
  double p_;
};

double MetricValue(const RunReport& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1.0;
}

class FailureAccountingTest
    : public testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(FailureAccountingTest, InjectedFaultsCountAsFailures) {
#if !defined(OLAPIDX_FAULT_INJECTION)
  GTEST_SKIP() << "fault points compiled out";
#endif
  const auto [workload_name, point] = GetParam();
  RunConfig config;
  config.seed = 3;
  config.seconds = 1.0;
  config.threads = 4;
  config.work_dir = testing::TempDir();
  Faulted faulted(MakeWorkload(workload_name, config), point, 0.5);
  RunReport report = RunWorkload(faulted, config);
  EXPECT_TRUE(report.correct) << report.error;
  EXPECT_GT(report.attempted, 0u);
  EXPECT_GT(report.failed, 0u);
  EXPECT_LE(report.failed, report.attempted);
  // ok_frac is the worst operation kind's success share.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double worst = 1.0;
  for (const auto& [kind, counts] : report.ops) {
    attempted += counts.attempted;
    failed += counts.failed;
    worst = std::min(worst, 1.0 - static_cast<double>(counts.failed) /
                                      static_cast<double>(counts.attempted));
  }
  EXPECT_EQ(attempted, report.attempted);
  EXPECT_EQ(failed, report.failed);
  const double ok_frac = MetricValue(report, "ok_frac");
  EXPECT_LT(ok_frac, 1.0);
  EXPECT_DOUBLE_EQ(ok_frac, worst);
}

INSTANTIATE_TEST_SUITE_P(
    FaultPoints, FailureAccountingTest,
    testing::Values(std::make_pair("serve-dashboard", "executor.batch"),
                    std::make_pair("service-drift", "service.whatif.run"),
                    std::make_pair("service-drift", "service.sketch.insert")));

}  // namespace
}  // namespace perfbench
