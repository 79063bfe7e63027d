// Pinned selection telemetry: the exact work counters of r-greedy and
// inner-level greedy on one seeded cube where the bound prune, a finite
// beam and the r-greedy subset cap all fire.
//
// The picks-equivalence suites prove *what* is selected; this one pins
// *how much work* selecting it took — candidates evaluated, cache hits and
// misses, bound prunes, beam deferrals, truncated subsets, the per-stage
// candidate counts and the beam guarantee — plus a digest of the picks and
// their benefits. Every value is independent of the thread count, so each
// configuration is checked at 1, 2 and 8 threads against one expectation.
// A change to the stage loop that alters any of these is a behaviour
// change, not a refactor.

#include <bit>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cube_graph.h"
#include "core/inner_greedy.h"
#include "core/r_greedy.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

struct Telemetry {
  uint64_t stages = 0;
  uint64_t candidates_evaluated = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t bound_prunes = 0;
  uint64_t beam_skipped = 0;
  uint64_t candidates_truncated = 0;
  // Bit pattern of beam_stage_factor, so the comparison is exact.
  uint64_t beam_factor_bits = 0;
  std::vector<uint64_t> stage_candidates;
  // FNV-1a over every pick's (view, index) and its benefit's bit pattern.
  uint64_t picks_digest = 0;

  bool operator==(const Telemetry&) const = default;
};

void PrintTo(const Telemetry& t, std::ostream* os) {
  *os << "{" << t.stages << "u, " << t.candidates_evaluated << "u, "
      << t.cache_hits << "u, " << t.cache_misses << "u, " << t.bound_prunes
      << "u, " << t.beam_skipped << "u, " << t.candidates_truncated
      << "u, 0x" << std::hex << t.beam_factor_bits << std::dec << "u, {";
  for (size_t i = 0; i < t.stage_candidates.size(); ++i) {
    *os << (i == 0 ? "" : ", ") << t.stage_candidates[i];
  }
  *os << "}, 0x" << std::hex << t.picks_digest << std::dec << "u}";
}

uint64_t Fnv(uint64_t h, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3u;
  }
  return h;
}

Telemetry Capture(const SelectionResult& r) {
  Telemetry t;
  t.stages = r.stats.stages;
  t.candidates_evaluated = r.candidates_evaluated;
  t.cache_hits = r.stats.cache_hits;
  t.cache_misses = r.stats.cache_misses;
  t.bound_prunes = r.stats.bound_prunes;
  t.beam_skipped = r.beam_skipped;
  t.candidates_truncated = r.candidates_truncated;
  t.beam_factor_bits = std::bit_cast<uint64_t>(r.beam_stage_factor);
  t.stage_candidates = r.stats.stage_candidates;
  uint64_t h = 0xcbf29ce484222325u;
  for (size_t i = 0; i < r.picks.size(); ++i) {
    h = Fnv(h, r.picks[i].view);
    h = Fnv(h, static_cast<uint64_t>(int64_t{r.picks[i].index}));
    h = Fnv(h, std::bit_cast<uint64_t>(r.pick_benefits[i]));
  }
  t.picks_digest = h;
  return t;
}

struct Instance {
  CubeGraph cg;
  double budget = 0.0;
};

const Instance& SeededCube() {
  static const Instance* instance = [] {
    SyntheticCube cube = UniformSyntheticCube(5, 80, 0.05);
    CubeLattice lattice(cube.schema);
    Workload workload = ZipfSliceQueries(lattice, 1.1, 21);
    CubeGraphOptions options;
    options.raw_scan_penalty = 2.0;
    StatusOr<CubeGraph> built =
        TryBuildCubeGraph(cube.schema, cube.sizes, workload, options);
    OLAPIDX_CHECK(built.ok());
    auto* out = new Instance{*std::move(built), 0.0};
    out->budget =
        4.0 * out->cg.graph.view_space(out->cg.graph.num_views() - 1);
    return out;
  }();
  return *instance;
}

struct Config {
  const char* label;
  bool memoize;
  size_t beam_width;
};

constexpr Config kConfigs[] = {
    {"memo, exact", true, 0},
    {"memo, beam 2", true, 2},
    {"no memo, exact", false, 0},
};

constexpr size_t kThreadCounts[] = {1, 2, 8};

// Captured from the reference implementation; see the file comment.
const Telemetry kRGreedyExpected[] = {
    /* memo, exact */
    {37u, 8644u, 807u, 280u, 97u, 0u, 264867u, 0x3ff0000000000000u,
     {463, 462, 330, 330, 330, 330, 370, 261, 261, 261, 261, 261, 261,
      261, 261, 261, 256, 195, 195, 195, 195, 195, 195, 195, 195, 195,
      151, 151, 151, 163, 151, 208, 151, 234, 120, 119, 70},
     0x71416e901c937763u},
    /* memo, beam 2 */
    {37u, 8568u, 768u, 267u, 104u, 45u, 264867u, 0x3fd88e35f3782247u,
     {463, 416, 334, 332, 330, 330, 338, 269, 269, 269, 269, 261, 261,
      261, 261, 261, 256, 195, 195, 195, 195, 195, 195, 195, 195, 195,
      151, 151, 151, 163, 151, 208, 151, 198, 120, 119, 70},
     0x71416e901c937763u},
    /* no memo, exact */
    {37u, 14965u, 0u, 1184u, 0u, 0u, 283011u, 0x3ff0000000000000u,
     {463, 462, 461, 460, 459, 458, 457, 455, 453, 451, 449, 447, 445,
      443, 441, 439, 432, 425, 418, 411, 404, 397, 390, 383, 376, 369,
      362, 355, 348, 347, 340, 338, 331, 330, 323, 322, 321},
     0x71416e901c937763u},
};

const Telemetry kInnerExpected[] = {
    /* memo, exact */
    {37u, 7498u, 694u, 161u, 329u, 0u, 0u, 0x3ff0000000000000u,
     {1184, 1183, 1, 1, 1, 1, 1176, 2, 2, 2, 2, 2, 2, 2, 2, 20, 1129, 6,
      6, 6, 6, 6, 6, 6, 6, 961, 24, 382, 24, 5, 24, 520, 24, 465, 120,
      119, 70},
     0x71416e901c937763u},
    /* memo, beam 2 */
    {37u, 4159u, 598u, 108u, 359u, 119u, 0u, 0x3fcf46983e258fc4u,
     {1184, 4, 5, 3, 1, 1, 9, 10, 10, 10, 10, 2, 2, 2, 2, 20, 28, 44, 46,
      44, 44, 6, 6, 6, 6, 245, 264, 500, 24, 5, 24, 472, 406, 405, 120,
      119, 70},
     0x22dc1bf0ef5634e7u},
    /* no memo, exact */
    {37u, 36468u, 0u, 1184u, 0u, 0u, 0u, 0x3ff0000000000000u,
     {1184, 1183, 1178, 1177, 1178, 1169, 1180, 1180, 1167, 1168, 1166,
      1169, 1169, 1173, 1173, 1171, 1152, 1145, 1131, 1119, 1113, 1100,
      1086, 1079, 1059, 1042, 940, 839, 745, 742, 652, 650, 562, 561, 323,
      322, 321},
     0x71416e901c937763u},
};

TEST(SelectionTelemetryTest, RGreedyR3WithSubsetCap) {
  const Instance& in = SeededCube();
  for (size_t c = 0; c < std::size(kConfigs); ++c) {
    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE(std::string(kConfigs[c].label) +
                   " threads=" + std::to_string(threads));
      RGreedyOptions options;
      options.r = 3;
      options.max_subsets_per_view = 6;
      options.memoize = kConfigs[c].memoize;
      options.beam_width = kConfigs[c].beam_width;
      options.num_threads = threads;
      SelectionResult got = RGreedy(in.cg.graph, in.budget, options);
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      EXPECT_EQ(Capture(got), kRGreedyExpected[c]);
    }
  }
}

TEST(SelectionTelemetryTest, InnerLevelGreedy) {
  const Instance& in = SeededCube();
  for (size_t c = 0; c < std::size(kConfigs); ++c) {
    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE(std::string(kConfigs[c].label) +
                   " threads=" + std::to_string(threads));
      InnerGreedyOptions options;
      options.memoize = kConfigs[c].memoize;
      options.beam_width = kConfigs[c].beam_width;
      options.num_threads = threads;
      SelectionResult got =
          InnerLevelGreedy(in.cg.graph, in.budget, options);
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      EXPECT_EQ(Capture(got), kInnerExpected[c]);
    }
  }
}

// The pinned instance must exercise every mechanism the counters report;
// otherwise the expectations above would pin zeros.
TEST(SelectionTelemetryTest, InstanceExercisesPruneBeamAndCap) {
  for (const Telemetry* expected : {kRGreedyExpected, kInnerExpected}) {
    EXPECT_GT(expected[0].bound_prunes, 0u);
    EXPECT_GT(expected[0].cache_hits, 0u);
    EXPECT_GT(expected[1].beam_skipped, 0u);
    EXPECT_EQ(expected[2].cache_hits, 0u);
  }
  EXPECT_GT(kRGreedyExpected[0].candidates_truncated, 0u);
}

}  // namespace
}  // namespace olapidx
