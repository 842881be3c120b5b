// Tests for SAD primitives and the motion search (including the pluggable
// penalty that PBPAIR uses — the Fig. 3 scenario).
#include <gtest/gtest.h>

#include <vector>

#include "codec/motion_search.h"
#include "codec/sad.h"
#include "common/rng.h"
#include "video/noise.h"

namespace pbpair::codec {
namespace {

video::Plane textured_plane(int w, int h, std::uint64_t seed) {
  video::Plane plane(w, h);
  video::ValueNoise noise(seed);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      plane.set(x, y, static_cast<std::uint8_t>(noise.fractal(x, y, 8, 3)));
    }
  }
  return plane;
}

/// Copies `src` shifted by (dx, dy): dst(x, y) = src(x + dx, y + dy).
video::Plane shifted_plane(const video::Plane& src, int dx, int dy) {
  video::Plane dst(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      dst.set(x, y, src.at_clamped(x + dx, y + dy));
    }
  }
  return dst;
}

TEST(Sad, IdenticalBlocksGiveZero) {
  video::Plane plane = textured_plane(64, 64, 1);
  energy::OpCounters ops;
  EXPECT_EQ(sad_16x16(plane, 16, 16, plane, 16, 16, ops), 0);
  EXPECT_EQ(ops.sad_pixel_ops, 256u);
  EXPECT_EQ(ops.sad_calls, 1u);
  EXPECT_EQ(ops.sad_early_exits, 0u);
}

TEST(Sad, KnownDifference) {
  video::Plane a(32, 32, 100);
  video::Plane b(32, 32, 103);
  energy::OpCounters ops;
  EXPECT_EQ(sad_16x16(a, 0, 0, b, 0, 0, ops), 256 * 3);
}

TEST(Sad, CutoffStopsEarlyAndMetersLess) {
  video::Plane a(32, 32, 0);
  video::Plane b(32, 32, 255);
  energy::OpCounters ops;
  std::int64_t sad = sad_16x16_cutoff(a, 0, 0, b, 0, 0, /*cutoff=*/1000, ops);
  EXPECT_GE(sad, 1000);
  EXPECT_LT(ops.sad_pixel_ops, 256u);  // terminated before the full block
  EXPECT_EQ(ops.sad_calls, 1u);
  EXPECT_EQ(ops.sad_early_exits, 1u);
}

TEST(Sad, CutoffExactWhenUnderCutoff) {
  video::Plane a = textured_plane(32, 32, 3);
  video::Plane b = textured_plane(32, 32, 4);
  energy::OpCounters ops1, ops2;
  std::int64_t exact = sad_16x16(a, 0, 0, b, 0, 0, ops1);
  std::int64_t cut = sad_16x16_cutoff(a, 0, 0, b, 0, 0, exact + 1, ops2);
  EXPECT_EQ(cut, exact);
  EXPECT_EQ(ops2.sad_calls, 1u);
  EXPECT_EQ(ops2.sad_early_exits, 0u);  // completed all 16 rows
}

TEST(Sad, SelfDeviationOfFlatBlockIsZero) {
  video::Plane flat(32, 32, 77);
  energy::OpCounters ops;
  EXPECT_EQ(sad_self_16x16(flat, 0, 0, ops), 0);
}

TEST(Sad, SelfDeviationDetectsTexture) {
  video::Plane plane = textured_plane(32, 32, 5);
  energy::OpCounters ops;
  EXPECT_GT(sad_self_16x16(plane, 0, 0, ops), 500);
}

class SearchStrategies : public ::testing::TestWithParam<SearchStrategy> {};

TEST_P(SearchStrategies, FindsExactTranslation) {
  // cur = ref shifted by (+3, -2): the true vector is (3, -2) with SAD 0
  // in the plane interior.
  video::Plane ref = textured_plane(176, 144, 10);
  video::Plane cur = shifted_plane(ref, 3, -2);
  energy::OpCounters ops;
  MotionSearchConfig config;
  config.strategy = GetParam();
  config.range = 7;
  MotionResult result =
      search_motion(cur, ref, /*mb_x=*/3, /*mb_y=*/3, config, nullptr, ops);
  EXPECT_EQ(result.mv, MotionVector::from_pixels(3, -2));
  EXPECT_EQ(result.sad, 0);
  EXPECT_EQ(ops.me_invocations, 1u);
  EXPECT_GT(ops.sad_pixel_ops, 0u);
}

TEST_P(SearchStrategies, ZeroMotionForIdenticalFrames) {
  video::Plane ref = textured_plane(176, 144, 11);
  energy::OpCounters ops;
  MotionSearchConfig config;
  config.strategy = GetParam();
  MotionResult result = search_motion(ref, ref, 5, 5, config, nullptr, ops);
  EXPECT_TRUE(result.mv.is_zero());
  EXPECT_EQ(result.sad, 0);
}

TEST_P(SearchStrategies, VectorsRespectFrameBounds) {
  video::Plane ref = textured_plane(176, 144, 12);
  video::Plane cur = textured_plane(176, 144, 13);
  energy::OpCounters ops;
  MotionSearchConfig config;
  config.strategy = GetParam();
  config.range = 15;
  for (int mb : {0, 10}) {  // left and right edge MBs of a QCIF row
    MotionResult result = search_motion(cur, ref, mb, 0, config, nullptr, ops);
    EXPECT_GE(mb * 16 + halfpel_floor(result.mv.x), 0);
    EXPECT_LE(mb * 16 + halfpel_floor(result.mv.x) + 16, 176);
    EXPECT_GE(result.mv.y, 0);  // top row: cannot point above the frame
  }
}

INSTANTIATE_TEST_SUITE_P(Both, SearchStrategies,
                         ::testing::Values(SearchStrategy::kFullSearch,
                                           SearchStrategy::kDiamondSearch));

TEST(MotionSearch, FullSearchEvaluatesWholeWindow) {
  video::Plane ref = textured_plane(176, 144, 20);
  video::Plane cur = textured_plane(176, 144, 21);
  energy::OpCounters ops;
  MotionSearchConfig config;
  config.strategy = SearchStrategy::kFullSearch;
  config.range = 4;
  config.half_pel = false;
  MotionResult result = search_motion(cur, ref, 5, 4, config, nullptr, ops);
  EXPECT_EQ(result.candidates, 9u * 9u);  // (2*4+1)^2 interior window
}

TEST(MotionSearch, DiamondEvaluatesFarFewerCandidates) {
  video::Plane ref = textured_plane(176, 144, 22);
  video::Plane cur = shifted_plane(ref, 2, 1);
  energy::OpCounters full_ops, diamond_ops;
  MotionSearchConfig config;
  config.range = 15;
  config.strategy = SearchStrategy::kFullSearch;
  search_motion(cur, ref, 5, 4, config, nullptr, full_ops);
  config.strategy = SearchStrategy::kDiamondSearch;
  search_motion(cur, ref, 5, 4, config, nullptr, diamond_ops);
  // The energy argument of the paper rests on ME cost; diamond is the
  // embedded-realistic cheap search, full is the reference encoder's.
  EXPECT_LT(diamond_ops.sad_pixel_ops * 5, full_ops.sad_pixel_ops);
}

TEST(MotionSearch, PenaltySteersAwayFromDamagedRegion) {
  // Fig. 3 of the paper: the best-SAD candidate lies in a "damaged" area;
  // with the probability penalty the search must pick a clean candidate
  // with slightly worse SAD.
  video::Plane ref = textured_plane(176, 144, 30);
  // cur MB(5,4) = ref shifted by (4, 0), so pure SAD picks mv (4, 0).
  video::Plane cur = shifted_plane(ref, 4, 0);
  energy::OpCounters ops;
  MotionSearchConfig config;
  config.strategy = SearchStrategy::kFullSearch;
  config.range = 7;

  // First: no penalty -> (4, 0) pixels.
  MotionResult pure = search_motion(cur, ref, 5, 4, config, nullptr, ops);
  ASSERT_EQ(pure.mv, MotionVector::from_pixels(4, 0));

  // Penalty declares every window reaching into MB column 6 damaged (huge
  // cost): for MB (5,4) those are exactly the candidates with mv.x > 0.
  MePenaltyFn penalty = [](const RefWindow& w) -> std::int64_t {
    return w.last_col > 5 ? 1'000'000 : 0;
  };
  MotionResult steered = search_motion(cur, ref, 5, 4, config, penalty, ops);
  EXPECT_LE(ref_window(5, 4, steered.mv, 11, 9).last_col, 5);
  EXPECT_LE(steered.mv.x, 0);
  EXPECT_GT(steered.sad, 0);       // gave up the perfect match...
  EXPECT_LT(steered.cost, 1'000'000);  // ...to avoid the damaged region
}

TEST(MotionSearch, PenaltyTiebreakPrefersTrustedRegion) {
  // Flat frame: every candidate has SAD 0; the penalty alone must decide.
  video::Plane flat(176, 144, 90);
  energy::OpCounters ops;
  MotionSearchConfig config;
  config.strategy = SearchStrategy::kFullSearch;
  config.range = 2;
  // Only the window one MB column to the left (MB columns 4..5 of row 4,
  // reached by the candidates that move left and not vertically) is
  // trusted.
  const RefWindow trusted{4, 4, 5, 4};
  MePenaltyFn penalty = [&](const RefWindow& w) -> std::int64_t {
    return w == trusted ? 0 : 100;
  };
  MotionResult result = search_motion(flat, flat, 5, 4, config, penalty, ops);
  EXPECT_EQ(ref_window(5, 4, result.mv, 11, 9), trusted);
  EXPECT_EQ(result.cost, 0);
}

TEST(MotionSearch, PenaltyHookRunsOncePerWindow) {
  // A ±15 search with half-pel refinement visits ~230 candidates but at
  // most 3x3 reference windows; the hook must see each window once.
  video::Plane ref = textured_plane(176, 144, 50);
  video::Plane cur = textured_plane(176, 144, 51);
  MotionSearchConfig config;
  config.strategy = SearchStrategy::kFullSearch;
  config.range = 15;
  for (int mb_y : {0, 4, 8}) {
    for (int mb_x : {0, 5, 10}) {
      std::vector<RefWindow> seen;
      MePenaltyFn penalty = [&](const RefWindow& w) -> std::int64_t {
        for (const RefWindow& s : seen) EXPECT_FALSE(s == w);
        seen.push_back(w);
        return 4 * (w.first_col + w.last_row);
      };
      energy::OpCounters ops;
      MotionResult result =
          search_motion(cur, ref, mb_x, mb_y, config, penalty, ops);
      EXPECT_GT(result.candidates, 200u);
      EXPECT_GE(seen.size(), 1u);
      EXPECT_LE(seen.size(), 9u) << "MB " << mb_x << "," << mb_y;
      for (const RefWindow& w : seen) {
        EXPECT_GE(w.first_col, 0);
        EXPECT_LE(w.last_col, 10);
        EXPECT_GE(w.first_row, 0);
        EXPECT_LE(w.last_row, 8);
      }
    }
  }
}

TEST(MotionSearch, MetersCandidateWork) {
  video::Plane ref = textured_plane(176, 144, 40);
  video::Plane cur = textured_plane(176, 144, 41);
  energy::OpCounters ops;
  MotionSearchConfig config;
  config.strategy = SearchStrategy::kFullSearch;
  config.range = 3;
  config.half_pel = false;
  MotionResult result = search_motion(cur, ref, 5, 4, config, nullptr, ops);
  EXPECT_EQ(result.candidates, 49u);
  // Early termination means <= 49 * 256 pixel ops but > 0.
  EXPECT_GT(ops.sad_pixel_ops, 256u);
  EXPECT_LE(ops.sad_pixel_ops, 49u * 256u);
  // Zero penalty: every candidate costs one SAD call (the seed is exact).
  EXPECT_EQ(ops.sad_calls, 49u);
  EXPECT_LT(ops.sad_early_exits, 49u);
}

}  // namespace
}  // namespace pbpair::codec
