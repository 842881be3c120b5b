// Tests for the PBPAIR core: correctness matrix, similarity factors, the
// update formulas (1)(2)(3), encoding-mode selection, and the ME penalty.
#include <gtest/gtest.h>

#include <cmath>

#include "codec/encoder.h"
#include "codec/motion_search.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "core/correctness_matrix.h"
#include "core/pbpair_policy.h"
#include "core/similarity.h"
#include "video/sequence.h"

namespace pbpair::core {
namespace {

using common::kQ16One;
using common::Q16;
using common::q16_from_double;
using common::q16_to_double;

TEST(CorrectnessMatrix, InitializesToOne) {
  // "Start from an error free image frame: ∀i,j set σ = 1" (Fig. 2).
  CorrectnessMatrix m(11, 9);
  EXPECT_EQ(m.cols(), 11);
  EXPECT_EQ(m.rows(), 9);
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 11; ++x) EXPECT_EQ(m.at(x, y), kQ16One);
  }
  EXPECT_DOUBLE_EQ(m.average(), 1.0);
  EXPECT_EQ(m.count_below(kQ16One), 0);
}

TEST(CorrectnessMatrix, MinOverAlignedRegionIsThatMb) {
  CorrectnessMatrix m(11, 9);
  m.set(3, 2, q16_from_double(0.5));
  EXPECT_EQ(m.min_over_region(3 * 16, 2 * 16), q16_from_double(0.5));
  EXPECT_EQ(m.min_over_region(4 * 16, 2 * 16), kQ16One);
}

TEST(CorrectnessMatrix, MinOverStraddlingRegionTakesWorst) {
  CorrectnessMatrix m(11, 9);
  m.set(3, 2, q16_from_double(0.9));
  m.set(4, 2, q16_from_double(0.4));
  m.set(3, 3, q16_from_double(0.7));
  m.set(4, 3, q16_from_double(0.8));
  // A region offset by (+8, +8) from MB (3,2) overlaps all four.
  EXPECT_EQ(m.min_over_region(3 * 16 + 8, 2 * 16 + 8), q16_from_double(0.4));
}

TEST(CorrectnessMatrix, MinOverRegionClampsAtBorders) {
  CorrectnessMatrix m(11, 9);
  m.set(0, 0, q16_from_double(0.3));
  EXPECT_EQ(m.min_over_region(-5, -5), q16_from_double(0.3));
  m.set(10, 8, q16_from_double(0.2));
  EXPECT_EQ(m.min_over_region(10 * 16 + 8, 8 * 16 + 8), q16_from_double(0.2));
}

TEST(CorrectnessMatrix, CountBelowAndReset) {
  CorrectnessMatrix m(4, 4);
  m.set(0, 0, q16_from_double(0.2));
  m.set(1, 1, q16_from_double(0.8));
  EXPECT_EQ(m.count_below(q16_from_double(0.5)), 1);
  EXPECT_EQ(m.count_below(q16_from_double(0.9)), 2);
  m.reset();
  EXPECT_EQ(m.count_below(kQ16One), 0);
}

// --- Similarity models ---

TEST(Similarity, IdenticalMbsGiveOne) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  video::YuvFrame f0 = seq.frame_at(0);
  CopyConcealmentSimilarity model;
  energy::OpCounters ops;
  EXPECT_EQ(model.similarity(f0, &f0, 0, 0, ops), kQ16One);
  EXPECT_GT(ops.sad_pixel_ops, 0u);  // the SAD is metered (encoder work)
}

TEST(Similarity, MovingContentGivesLowerFactor) {
  video::SyntheticSequence garden =
      video::make_paper_sequence(video::SequenceKind::kGardenLike);
  video::YuvFrame f0 = garden.frame_at(0);
  video::YuvFrame f1 = garden.frame_at(1);
  CopyConcealmentSimilarity model;
  energy::OpCounters ops;
  Q16 moving = model.similarity(f1, &f0, 5, 4, ops);
  EXPECT_LT(moving, kQ16One);

  video::SyntheticSequence akiyo =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  video::YuvFrame a0 = akiyo.frame_at(0);
  video::YuvFrame a1 = akiyo.frame_at(1);
  Q16 still = model.similarity(a1, &a0, 0, 0, ops);  // static background MB
  EXPECT_GT(still, q16_from_double(0.9));  // only sensor noise
  EXPECT_GT(still, moving);
}

TEST(Similarity, NullPreviousFrameDefaultsToOne) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame f0 = seq.frame_at(0);
  CopyConcealmentSimilarity model;
  energy::OpCounters ops;
  EXPECT_EQ(model.similarity(f0, nullptr, 0, 0, ops), kQ16One);
}

TEST(Similarity, NoSimilarityIsAlwaysZero) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame f0 = seq.frame_at(0);
  NoSimilarity model;
  energy::OpCounters ops;
  EXPECT_EQ(model.similarity(f0, &f0, 0, 0, ops), 0u);
}

TEST(Similarity, ConstantModelReturnsItsValue) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame f0 = seq.frame_at(0);
  ConstantSimilarity model(q16_from_double(0.25));
  energy::OpCounters ops;
  EXPECT_EQ(model.similarity(f0, &f0, 3, 3, ops), q16_from_double(0.25));
}

// --- PBPAIR policy ---

PbpairConfig config_with(double intra_th, double plr) {
  PbpairConfig config;
  config.intra_th = intra_th;
  config.plr = plr;
  return config;
}

TEST(PbpairPolicy, IntraThZeroNeverForcesIntra) {
  // §4.3: Intra_Th = 0 means maximum compression efficiency — PBPAIR
  // degenerates to the NO scheme.
  PbpairPolicy policy(11, 9, config_with(0.0, 0.3));
  for (int i = 0; i < 99; ++i) {
    EXPECT_FALSE(policy.force_intra_pre_me(1, i % 11, i / 11));
  }
}

TEST(PbpairPolicy, FreshMatrixAboveThresholdNeedsNoRefresh) {
  PbpairPolicy policy(11, 9, config_with(0.9, 0.1));
  // All sigma start at 1.0 >= any threshold < 1: no forced intra yet.
  EXPECT_FALSE(policy.force_intra_pre_me(1, 5, 5));
}

TEST(PbpairPolicy, Formula3DecayWithNoSimilarity) {
  // With sim = 0 and all-inter encoding, σ^k = (1-α)^k (Equation 3).
  PbpairConfig config = config_with(0.0, 0.25);  // th 0: nothing forced
  config.similarity = std::make_shared<const NoSimilarity>();
  PbpairPolicy policy(11, 9, config);

  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  video::YuvFrame frame = seq.frame_at(0);
  std::vector<codec::MbEncodeRecord> records(99);
  for (auto& r : records) {
    r.mode = codec::MbMode::kInter;
    r.mv = codec::MotionVector{0, 0};
  }
  energy::OpCounters ops;
  codec::FrameEncodeInfo info;
  info.mb_cols = 11;
  info.mb_rows = 9;
  info.mb_records = &records;
  info.original = &frame;
  info.prev_original = &frame;
  info.ops = &ops;

  for (int k = 1; k <= 4; ++k) {
    info.frame_index = k;
    policy.on_frame_encoded(info);
    double expected = std::pow(0.75, k);
    EXPECT_NEAR(q16_to_double(policy.matrix().at(5, 5)), expected, 0.01)
        << "frame " << k;
  }
}

TEST(PbpairPolicy, IntraUpdateRestoresConfidence) {
  // Formula (2): an intra MB at PLR α with similarity s ends at
  // (1-α) + α*s*σ_prev.
  PbpairConfig config = config_with(0.0, 0.2);
  config.similarity =
      std::make_shared<const ConstantSimilarity>(q16_from_double(0.5));
  PbpairPolicy policy(11, 9, config);

  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  video::YuvFrame frame = seq.frame_at(0);
  std::vector<codec::MbEncodeRecord> records(99);
  for (auto& r : records) r.mode = codec::MbMode::kIntra;
  energy::OpCounters ops;
  codec::FrameEncodeInfo info;
  info.frame_index = 1;
  info.mb_cols = 11;
  info.mb_rows = 9;
  info.mb_records = &records;
  info.original = &frame;
  info.prev_original = &frame;
  info.ops = &ops;
  policy.on_frame_encoded(info);
  // σ_prev = 1: expect 0.8 + 0.2*0.5*1 = 0.9.
  EXPECT_NEAR(q16_to_double(policy.matrix().at(4, 4)), 0.9, 0.01);

  // Second intra frame: 0.8 + 0.2*0.5*0.9 = 0.89.
  info.frame_index = 2;
  policy.on_frame_encoded(info);
  EXPECT_NEAR(q16_to_double(policy.matrix().at(4, 4)), 0.89, 0.01);
}

TEST(PbpairPolicy, InterUpdateUsesWorstRelatedMb) {
  // Formula (1): the clean term is (1-α)·min(σ of MBs under the vector).
  PbpairConfig config = config_with(0.0, 0.1);
  config.similarity = std::make_shared<const NoSimilarity>();
  PbpairPolicy policy(11, 9, config);

  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  video::YuvFrame frame = seq.frame_at(0);
  std::vector<codec::MbEncodeRecord> records(99);
  // First pass: make MB (6,4) intra and everything else inter, with enough
  // loss that the inter MBs drop visibly; then have MB (5,4) predict from
  // (6,4)'s position and verify it inherits the *minimum*.
  for (auto& r : records) r.mode = codec::MbMode::kInter;
  records[4 * 11 + 6].mode = codec::MbMode::kIntra;
  energy::OpCounters ops;
  codec::FrameEncodeInfo info;
  info.frame_index = 1;
  info.mb_cols = 11;
  info.mb_rows = 9;
  info.mb_records = &records;
  info.original = &frame;
  info.prev_original = &frame;
  info.ops = &ops;
  policy.on_frame_encoded(info);
  // After frame 1: intra MB (6,4) has σ 0.9; inter MBs have 0.9 too
  // ((1-α)*min(1)). One more inter round separates them.
  info.frame_index = 2;
  policy.on_frame_encoded(info);
  double sigma_intra = q16_to_double(policy.matrix().at(6, 4));
  double sigma_inter = q16_to_double(policy.matrix().at(5, 4));
  EXPECT_NEAR(sigma_intra, 0.9, 0.01);        // refreshed again? no: inter now
  EXPECT_NEAR(sigma_inter, 0.81, 0.01);       // 0.9 * 0.9

  // Frame 3: MB (5,4) predicts from a region straddling (5,4) and (6,4).
  records[4 * 11 + 6].mode = codec::MbMode::kInter;
  records[4 * 11 + 5].mv = codec::MotionVector{8, 0};
  info.frame_index = 3;
  policy.on_frame_encoded(info);
  // min(σ(5,4)=0.81, σ(6,4)=0.81... both inter after frame2) — recompute:
  // after frame 2 (6,4) was inter: σ = 0.9*0.9 = 0.81 as well. The
  // straddle min is 0.81 so (5,4) = 0.9*0.81 = 0.729.
  EXPECT_NEAR(q16_to_double(policy.matrix().at(5, 4)), 0.729, 0.01);
}

TEST(PbpairPolicy, SkipTreatedAsZeroVectorInter) {
  PbpairConfig config = config_with(0.0, 0.3);
  config.similarity = std::make_shared<const NoSimilarity>();
  PbpairPolicy policy(11, 9, config);
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  video::YuvFrame frame = seq.frame_at(0);
  std::vector<codec::MbEncodeRecord> records(99);
  for (auto& r : records) r.mode = codec::MbMode::kSkip;
  energy::OpCounters ops;
  codec::FrameEncodeInfo info;
  info.frame_index = 1;
  info.mb_cols = 11;
  info.mb_rows = 9;
  info.mb_records = &records;
  info.original = &frame;
  info.prev_original = &frame;
  info.ops = &ops;
  policy.on_frame_encoded(info);
  EXPECT_NEAR(q16_to_double(policy.matrix().at(2, 2)), 0.7, 0.01);
}

TEST(PbpairPolicy, HigherPlrDecaysFaster) {
  // §3.2: "if PLR increases and Intra_Th is fixed, σ decreases faster.
  // Therefore PBPAIR inserts more intra macro blocks."
  auto run_decay = [](double plr) {
    PbpairConfig config = config_with(0.0, plr);
    config.similarity = std::make_shared<const NoSimilarity>();
    PbpairPolicy policy(11, 9, config);
    video::SyntheticSequence seq =
        video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
    video::YuvFrame frame = seq.frame_at(0);
    std::vector<codec::MbEncodeRecord> records(99);
    for (auto& r : records) r.mode = codec::MbMode::kInter;
    energy::OpCounters ops;
    codec::FrameEncodeInfo info;
    info.mb_cols = 11;
    info.mb_rows = 9;
    info.mb_records = &records;
    info.original = &frame;
    info.prev_original = &frame;
    info.ops = &ops;
    for (int k = 1; k <= 5; ++k) {
      info.frame_index = k;
      policy.on_frame_encoded(info);
    }
    return policy.matrix().average();
  };
  EXPECT_GT(run_decay(0.05), run_decay(0.10));
  EXPECT_GT(run_decay(0.10), run_decay(0.30));
}

TEST(PbpairPolicy, MePenaltyScalesWithDistrust) {
  PbpairConfig config = config_with(0.9, 0.1);
  config.me_penalty_scale = 1000;
  PbpairPolicy policy(11, 9, config);
  EXPECT_TRUE(policy.has_me_penalty());
  // Fresh matrix: penalty 0 everywhere.
  EXPECT_EQ(policy.me_penalty(codec::ref_window(5, 5, {}, 11, 9)), 0);

  // Manufacture distrust via an update round, then check monotonicity
  // through the public hook: lower sigma => higher penalty.
  PbpairConfig low_config = config_with(0.0, 0.5);
  low_config.similarity = std::make_shared<const NoSimilarity>();
  low_config.me_penalty_scale = 1000;
  PbpairPolicy low(11, 9, low_config);
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  video::YuvFrame frame = seq.frame_at(0);
  std::vector<codec::MbEncodeRecord> records(99);
  for (auto& r : records) r.mode = codec::MbMode::kInter;
  energy::OpCounters ops;
  codec::FrameEncodeInfo info;
  info.frame_index = 1;
  info.mb_cols = 11;
  info.mb_rows = 9;
  info.mb_records = &records;
  info.original = &frame;
  info.prev_original = &frame;
  info.ops = &ops;
  low.on_frame_encoded(info);  // all sigma now 0.5
  std::int64_t penalty = low.me_penalty(codec::ref_window(5, 5, {}, 11, 9));
  EXPECT_NEAR(static_cast<double>(penalty), 500.0, 5.0);  // λ(1-0.5)
}

// Drives `policy` through random update rounds (random PLR, modes and
// vectors, no similarity) so its σ matrix holds many distinct values.
void randomize_sigma(PbpairPolicy& policy, int mb_cols, int mb_rows,
                     std::uint64_t seed) {
  common::Pcg32 rng(seed);
  video::YuvFrame frame(mb_cols * 16, mb_rows * 16);
  std::vector<codec::MbEncodeRecord> records(
      static_cast<std::size_t>(mb_cols) * mb_rows);
  energy::OpCounters ops;
  codec::FrameEncodeInfo info;
  info.mb_cols = mb_cols;
  info.mb_rows = mb_rows;
  info.mb_records = &records;
  info.original = &frame;
  info.prev_original = &frame;
  info.ops = &ops;
  for (int k = 1; k <= 6; ++k) {
    policy.set_plr(0.05 + 0.4 * rng.next_double());
    for (auto& r : records) {
      r.mode = rng.next_bernoulli(0.2) ? codec::MbMode::kIntra
                                       : codec::MbMode::kInter;
      r.mv = codec::MotionVector{rng.next_in_range(-40, 40),
                                 rng.next_in_range(-40, 40)};
    }
    info.frame_index = k;
    policy.on_frame_encoded(info);
  }
}

TEST(PbpairPolicy, WindowPenaltyEqualsPerVectorPenalty) {
  // The search charges each candidate the penalty of its reference window.
  // For every MB (borders included) and every full- and half-pel candidate
  // a search may visit, that must equal λ·(1 − σ_min) over the candidate's
  // 16/17-px reference region, computed from the vector itself.
  struct Grid {
    int cols, rows;
  };
  for (const Grid grid : {Grid{11, 9}, Grid{3, 2}}) {
    SCOPED_TRACE(grid.cols);
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(seed);
      PbpairConfig config = config_with(0.0, 0.1);
      config.similarity = std::make_shared<const NoSimilarity>();
      config.me_penalty_scale = 2048 + static_cast<std::int64_t>(seed);
      PbpairPolicy policy(grid.cols, grid.rows, config);
      randomize_sigma(policy, grid.cols, grid.rows, seed);
      const CorrectnessMatrix& m = policy.matrix();
      ASSERT_GT(m.count_below(kQ16One), grid.cols * grid.rows / 2);

      int hook_calls = 0;
      codec::MePenaltyFn hook = [&](const codec::RefWindow& w) {
        ++hook_calls;
        return policy.me_penalty(w);
      };
      for (int range : {7, 15, 31}) {
        SCOPED_TRACE(range);
        for (int mb_y = 0; mb_y < grid.rows; ++mb_y) {
          for (int mb_x = 0; mb_x < grid.cols; ++mb_x) {
            const int px = mb_x * 16;
            const int py = mb_y * 16;
            // The search's full-pel bounds (motion_search.cpp); half-pel
            // candidates keep their floor inside them.
            const int min_dx = common::clamp(-range, -px, 0);
            const int max_dx =
                common::clamp(range, 0, (grid.cols - 1) * 16 - px);
            const int min_dy = common::clamp(-range, -py, 0);
            const int max_dy =
                common::clamp(range, 0, (grid.rows - 1) * 16 - py);
            hook_calls = 0;
            codec::WindowPenalties table(hook, mb_x, mb_y, grid.cols,
                                         grid.rows, range);
            int mismatches = 0;
            for (int y = 2 * min_dy; y <= 2 * max_dy + 1; ++y) {
              for (int x = 2 * min_dx; x <= 2 * max_dx + 1; ++x) {
                const codec::MotionVector mv{x, y};
                const Q16 sigma = m.min_over_region(
                    px + codec::halfpel_floor(x), py + codec::halfpel_floor(y),
                    codec::halfpel_span(x), codec::halfpel_span(y));
                const std::int64_t distrust = common::q16_complement(sigma);
                const std::int64_t want =
                    (config.me_penalty_scale * distrust) >> 16;
                if (table.of(mv) != want) ++mismatches;
              }
            }
            EXPECT_EQ(mismatches, 0) << "MB " << mb_x << "," << mb_y;
            EXPECT_LE(hook_calls, range <= 15 ? 9 : 49);
          }
        }
      }
    }
  }
}

TEST(PbpairPolicy, MePenaltyCanBeDisabled) {
  PbpairConfig config = config_with(0.9, 0.1);
  config.use_me_penalty = false;
  PbpairPolicy policy(11, 9, config);
  EXPECT_FALSE(policy.has_me_penalty());
}

TEST(PbpairPolicy, LiveParameterUpdatesClamp) {
  PbpairPolicy policy(11, 9, config_with(0.5, 0.1));
  policy.set_intra_th(1.7);
  EXPECT_DOUBLE_EQ(policy.intra_th(), 1.0);
  policy.set_plr(-0.2);
  EXPECT_DOUBLE_EQ(policy.plr(), 0.0);
  policy.set_intra_th(0.42);
  EXPECT_NEAR(policy.intra_th(), 0.42, 1e-4);
}

TEST(PbpairPolicy, ResetRestoresErrorFreeState) {
  PbpairConfig config = config_with(0.0, 0.5);
  config.similarity = std::make_shared<const NoSimilarity>();
  PbpairPolicy policy(11, 9, config);
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  video::YuvFrame frame = seq.frame_at(0);
  std::vector<codec::MbEncodeRecord> records(99);
  for (auto& r : records) r.mode = codec::MbMode::kInter;
  energy::OpCounters ops;
  codec::FrameEncodeInfo info;
  info.frame_index = 1;
  info.mb_cols = 11;
  info.mb_rows = 9;
  info.mb_records = &records;
  info.original = &frame;
  info.prev_original = &frame;
  info.ops = &ops;
  policy.on_frame_encoded(info);
  EXPECT_LT(policy.matrix().average(), 1.0);
  policy.reset();
  EXPECT_DOUBLE_EQ(policy.matrix().average(), 1.0);
}

// --- Encoder-integrated behaviour ---

TEST(PbpairPolicy, IntraThOneForcesAllIntraInSteadyState) {
  // §4.3: Intra_Th = 1 means every MB is encoded intra (maximum error
  // resilience). Any σ < 1 triggers refresh; with any loss probability σ
  // drops below 1 after the first frame.
  PbpairConfig config = config_with(1.0, 0.1);
  PbpairPolicy policy(11, 9, config);
  codec::Encoder encoder(codec::EncoderConfig{}, &policy);
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  encoder.encode_frame(seq.frame_at(0));
  encoder.encode_frame(seq.frame_at(1));
  codec::EncodedFrame frame = encoder.encode_frame(seq.frame_at(2));
  EXPECT_EQ(frame.intra_mb_count(), 99);
}

TEST(PbpairPolicy, SkipsMeForEveryEarlyIntra) {
  PbpairConfig config = config_with(1.0, 0.2);
  PbpairPolicy policy(11, 9, config);
  codec::Encoder encoder(codec::EncoderConfig{}, &policy);
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  encoder.encode_frame(seq.frame_at(0));
  encoder.encode_frame(seq.frame_at(1));
  auto before = encoder.ops().me_invocations;
  encoder.encode_frame(seq.frame_at(2));
  // Steady state at Intra_Th 1: zero motion searches.
  EXPECT_EQ(encoder.ops().me_invocations, before);
}

TEST(PbpairPolicy, HigherIntraThProducesMoreIntraMbs) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  auto intra_count = [&seq](double th) {
    PbpairPolicy policy(11, 9, config_with(th, 0.1));
    codec::Encoder encoder(codec::EncoderConfig{}, &policy);
    int total = 0;
    for (int i = 0; i < 12; ++i) {
      codec::EncodedFrame f = encoder.encode_frame(seq.frame_at(i));
      if (f.type == codec::FrameType::kInter) total += f.intra_mb_count();
    }
    return total;
  };
  int low = intra_count(0.5);
  int mid = intra_count(0.9);
  int high = intra_count(0.99);
  EXPECT_LE(low, mid);
  EXPECT_LT(mid, high);
}

}  // namespace
}  // namespace pbpair::core
