// Kernel-dispatch equivalence: every SIMD backend must reproduce the
// scalar reference bit-for-bit — same SAD/DCT/quant outputs, same
// early-exit row counts, and therefore identical energy::OpCounters
// deltas. Randomized over edge alignments, strides, and cutoff positions.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "codec/encoder.h"
#include "codec/kernels/kernels.h"
#include "codec/mb_error.h"
#include "codec/mc.h"
#include "codec/quant.h"
#include "codec/sad.h"
#include "common/rng.h"
#include "sim/scheme.h"
#include "video/frame.h"
#include "video/metrics.h"
#include "video/sequence.h"

namespace pbpair {
namespace {

using codec::kernels::Backend;
using codec::kernels::KernelTable;

std::vector<const KernelTable*> simd_tables() {
  std::vector<const KernelTable*> tables;
  for (Backend backend : codec::kernels::supported_backends()) {
    if (backend == Backend::kScalar) continue;
    tables.push_back(codec::kernels::table_for(backend));
  }
  return tables;
}

// A buffer of noisy pixels with an odd stride so SIMD loads hit every
// alignment.
struct PixelField {
  explicit PixelField(std::uint64_t seed, int stride = 61, int rows = 96)
      : stride(stride), rows(rows), data(static_cast<std::size_t>(stride) * rows) {
    common::Pcg32 rng(seed);
    for (std::uint8_t& p : data) {
      p = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  const std::uint8_t* at(int x, int y) const {
    return data.data() + static_cast<std::size_t>(y) * stride + x;
  }
  int stride;
  int rows;
  std::vector<std::uint8_t> data;
};

TEST(Kernels, ScalarBackendAlwaysAvailable) {
  std::vector<Backend> backends = codec::kernels::supported_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), Backend::kScalar);
  EXPECT_NE(codec::kernels::table_for(Backend::kScalar), nullptr);
}

TEST(Kernels, SadMatchesScalarAcrossAlignments) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  PixelField cur(1), ref(2);
  common::Pcg32 rng(3);
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 500; ++trial) {
      int cx = rng.next_in_range(0, cur.stride - 16);
      int cy = rng.next_in_range(0, cur.rows - 16);
      int rx = rng.next_in_range(0, ref.stride - 16);
      int ry = rng.next_in_range(0, ref.rows - 16);
      std::int64_t want = scalar.sad_16x16(cur.at(cx, cy), cur.stride,
                                           ref.at(rx, ry), ref.stride);
      std::int64_t got = simd->sad_16x16(cur.at(cx, cy), cur.stride,
                                         ref.at(rx, ry), ref.stride);
      ASSERT_EQ(want, got) << simd->name << " trial " << trial;
    }
  }
}

TEST(Kernels, SadCutoffMatchesScalarIncludingRowCounts) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  PixelField cur(4), ref(5);
  common::Pcg32 rng(6);
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 1000; ++trial) {
      int cx = rng.next_in_range(0, cur.stride - 16);
      int cy = rng.next_in_range(0, cur.rows - 16);
      int rx = rng.next_in_range(0, ref.stride - 16);
      int ry = rng.next_in_range(0, ref.rows - 16);
      // Cutoffs spanning instant exit (<= 0), mid-block exits, and
      // never-exits (full 16 rows).
      std::int64_t cutoff;
      switch (trial % 4) {
        case 0: cutoff = rng.next_in_range(-5, 5); break;
        case 1: cutoff = rng.next_in_range(1, 4000); break;
        case 2: cutoff = rng.next_in_range(4000, 40000); break;
        default: cutoff = 1'000'000; break;
      }
      int want_rows = -1, got_rows = -1;
      std::int64_t want =
          scalar.sad_16x16_cutoff(cur.at(cx, cy), cur.stride, ref.at(rx, ry),
                                  ref.stride, cutoff, &want_rows);
      std::int64_t got =
          simd->sad_16x16_cutoff(cur.at(cx, cy), cur.stride, ref.at(rx, ry),
                                 ref.stride, cutoff, &got_rows);
      ASSERT_EQ(want, got) << simd->name << " trial " << trial;
      ASSERT_EQ(want_rows, got_rows) << simd->name << " trial " << trial;
    }
  }
}

TEST(Kernels, SadSelfMatchesScalar) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  common::Pcg32 rng(8);
  for (const KernelTable* simd : simd_tables()) {
    // Uniform noise plus near-flat fields (mean truncation edge cases).
    for (std::uint64_t seed : {10ull, 11ull, 12ull}) {
      PixelField field(seed);
      for (int trial = 0; trial < 300; ++trial) {
        int cx = rng.next_in_range(0, field.stride - 16);
        int cy = rng.next_in_range(0, field.rows - 16);
        ASSERT_EQ(scalar.sad_self_16x16(field.at(cx, cy), field.stride),
                  simd->sad_self_16x16(field.at(cx, cy), field.stride))
            << simd->name << " seed " << seed << " trial " << trial;
      }
    }
  }
}

TEST(Kernels, DctMatchesScalar) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  common::Pcg32 rng(20);
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 2000; ++trial) {
      std::int16_t input[64];
      // Pixels, residuals, and full-range coefficients by turn.
      int lo = trial % 3 == 0 ? 0 : (trial % 3 == 1 ? -255 : -2048);
      int hi = trial % 3 == 0 ? 255 : (trial % 3 == 1 ? 255 : 2047);
      for (std::int16_t& v : input) {
        v = static_cast<std::int16_t>(rng.next_in_range(lo, hi));
      }
      std::int16_t want[64], got[64];
      scalar.forward_dct_8x8(input, want);
      simd->forward_dct_8x8(input, got);
      ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
          << simd->name << " fdct trial " << trial;
      scalar.inverse_dct_8x8(input, want);
      simd->inverse_dct_8x8(input, got);
      ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
          << simd->name << " idct trial " << trial;
    }
  }
}

TEST(Kernels, BatchedSadMatchesScalarSingleCalls) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  PixelField cur(60), ref(61);
  common::Pcg32 rng(62);
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 400; ++trial) {
      int cx = rng.next_in_range(0, cur.stride - 16);
      int cy = rng.next_in_range(0, cur.rows - 16);
      const std::uint8_t* refs[8];
      std::int64_t want[8];
      for (int i = 0; i < 8; ++i) {
        int rx = rng.next_in_range(0, ref.stride - 16);
        int ry = rng.next_in_range(0, ref.rows - 16);
        refs[i] = ref.at(rx, ry);
        want[i] = scalar.sad_16x16(cur.at(cx, cy), cur.stride, refs[i],
                                   ref.stride);
      }
      std::int64_t got4[4] = {-1, -1, -1, -1};
      simd->sad_16x16_x4(cur.at(cx, cy), cur.stride, refs, ref.stride, got4);
      for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(want[i], got4[i])
            << simd->name << " x4 lane " << i << " trial " << trial;
      }
      std::int64_t got8[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
      simd->sad_16x16_x8(cur.at(cx, cy), cur.stride, refs, ref.stride, got8);
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(want[i], got8[i])
            << simd->name << " x8 lane " << i << " trial " << trial;
      }
    }
  }
}

TEST(Kernels, HalfpelSadMatchesScalarForAllPhasesIncludingRowCounts) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  PixelField cur(70), ref(71);
  common::Pcg32 rng(72);
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 1000; ++trial) {
      int cx = rng.next_in_range(0, cur.stride - 16);
      int cy = rng.next_in_range(0, cur.rows - 16);
      // The interpolation reads a 17x17 envelope at (rx, ry).
      int rx = rng.next_in_range(0, ref.stride - 17);
      int ry = rng.next_in_range(0, ref.rows - 17);
      const int hx = trial & 1;
      const int hy = (trial >> 1) & 1;
      std::int64_t cutoff;
      switch (trial % 4) {
        case 0: cutoff = rng.next_in_range(-5, 5); break;
        case 1: cutoff = rng.next_in_range(1, 4000); break;
        case 2: cutoff = rng.next_in_range(4000, 40000); break;
        default: cutoff = 1'000'000; break;
      }
      int want_rows = -1, got_rows = -1;
      std::int64_t want = scalar.sad_16x16_hpel_cutoff(
          cur.at(cx, cy), cur.stride, ref.at(rx, ry), ref.stride, hx, hy,
          cutoff, &want_rows);
      std::int64_t got = simd->sad_16x16_hpel_cutoff(
          cur.at(cx, cy), cur.stride, ref.at(rx, ry), ref.stride, hx, hy,
          cutoff, &got_rows);
      ASSERT_EQ(want, got) << simd->name << " phase (" << hx << "," << hy
                           << ") trial " << trial;
      ASSERT_EQ(want_rows, got_rows)
          << simd->name << " phase (" << hx << "," << hy << ") trial "
          << trial;
    }
  }
}

TEST(Kernels, McPredictMatchesScalarForAllPhasesAndBlockSizes) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  PixelField ref(80);
  common::Pcg32 rng(81);
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 1000; ++trial) {
      const int w = trial % 2 == 0 ? 16 : 8;
      const int h = w;
      int rx = rng.next_in_range(0, ref.stride - (w + 1));
      int ry = rng.next_in_range(0, ref.rows - (h + 1));
      const int hx = (trial >> 1) & 1;
      const int hy = (trial >> 2) & 1;
      std::uint8_t want[16 * 16], got[16 * 16];
      std::memset(want, 0xAB, sizeof(want));
      std::memset(got, 0xCD, sizeof(got));
      scalar.mc_predict(ref.at(rx, ry), ref.stride, want, w, h, hx, hy);
      simd->mc_predict(ref.at(rx, ry), ref.stride, got, w, h, hx, hy);
      ASSERT_EQ(0, std::memcmp(want, got, static_cast<std::size_t>(w) * h))
          << simd->name << " w " << w << " phase (" << hx << "," << hy
          << ") trial " << trial;
    }
  }
}

TEST(Kernels, ResidualKernelsMatchScalar) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  PixelField cur(90), pred(91);
  common::Pcg32 rng(92);
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 500; ++trial) {
      int cx = rng.next_in_range(0, cur.stride - 8);
      int cy = rng.next_in_range(0, cur.rows - 8);
      int px = rng.next_in_range(0, pred.stride - 8);
      int py = rng.next_in_range(0, pred.rows - 8);

      std::int16_t want_res[64], got_res[64];
      scalar.sub_pred_8x8(cur.at(cx, cy), cur.stride, pred.at(px, py),
                          pred.stride, want_res);
      simd->sub_pred_8x8(cur.at(cx, cy), cur.stride, pred.at(px, py),
                         pred.stride, got_res);
      ASSERT_EQ(0, std::memcmp(want_res, got_res, sizeof(want_res)))
          << simd->name << " sub trial " << trial;

      // IDCT-range residuals, including ones that clamp on both ends.
      std::int16_t residual[64];
      for (std::int16_t& v : residual) {
        v = static_cast<std::int16_t>(rng.next_in_range(-2048, 2047));
      }
      std::uint8_t want_px[8 * 9], got_px[8 * 9];
      std::memset(want_px, 0x11, sizeof(want_px));
      std::memset(got_px, 0x22, sizeof(got_px));
      const int dst_stride = 9;  // deliberately != 8: checks stride handling
      scalar.add_pred_8x8(want_px, dst_stride, pred.at(px, py), pred.stride,
                          residual);
      simd->add_pred_8x8(got_px, dst_stride, pred.at(px, py), pred.stride,
                         residual);
      for (int row = 0; row < 8; ++row) {
        ASSERT_EQ(0, std::memcmp(want_px + row * dst_stride,
                                 got_px + row * dst_stride, 8))
            << simd->name << " add row " << row << " trial " << trial;
      }
    }
  }
}

bool same_error(const codec::kernels::BlockError& a,
                const codec::kernels::BlockError& b) {
  return a.sse == b.sse && a.bad_pixels == b.bad_pixels;
}

// The fused per-MB error kernel: SSE and the "|a - b| > threshold" count
// on random blocks at every alignment, and on the blocks where a vector
// square or byte compare could go wrong.
TEST(Kernels, MbErrorMatchesScalarOnRandomAndEdgeBlocks) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  PixelField a(93), b(94);
  common::Pcg32 rng(95);
  const int kThresholds[] = {0, 20, 254};
  for (const KernelTable* simd : simd_tables()) {
    for (int trial = 0; trial < 500; ++trial) {
      const int ax = rng.next_in_range(0, a.stride - 16);
      const int ay = rng.next_in_range(0, a.rows - 16);
      const int bx = rng.next_in_range(0, b.stride - 16);
      const int by = rng.next_in_range(0, b.rows - 16);
      const int random_t = rng.next_in_range(-3, 258);
      for (int t : {kThresholds[0], kThresholds[1], kThresholds[2],
                    random_t}) {
        ASSERT_TRUE(same_error(
            scalar.mb_error_16x16(a.at(ax, ay), a.stride, b.at(bx, by),
                                  b.stride, t),
            simd->mb_error_16x16(a.at(ax, ay), a.stride, b.at(bx, by),
                                 b.stride, t)))
            << simd->name << " threshold " << t << " trial " << trial;
      }
    }
  }

  // Edge blocks (stride 16). Each one is checked against known values on
  // the scalar reference, then every backend against scalar.
  std::uint8_t x[256], y[256];
  auto expect_block = [&](const char* what, int t, std::uint32_t sse,
                          std::uint32_t bad) {
    const codec::kernels::BlockError want =
        scalar.mb_error_16x16(x, 16, y, 16, t);
    EXPECT_EQ(want.sse, sse) << what << " threshold " << t;
    EXPECT_EQ(want.bad_pixels, bad) << what << " threshold " << t;
    for (const KernelTable* simd : simd_tables()) {
      EXPECT_TRUE(same_error(want, simd->mb_error_16x16(x, 16, y, 16, t)))
          << simd->name << " " << what << " threshold " << t;
      EXPECT_TRUE(same_error(scalar.mb_error_16x16(y, 16, x, 16, t),
                             simd->mb_error_16x16(y, 16, x, 16, t)))
          << simd->name << " " << what << " (swapped) threshold " << t;
    }
  };
  for (int t : kThresholds) {
    for (std::uint8_t& p : x) {
      p = static_cast<std::uint8_t>(rng.next_below(256));
    }
    std::memcpy(y, x, sizeof(x));
    expect_block("identical", t, 0, 0);

    std::memset(x, 0, sizeof(x));
    std::memset(y, 255, sizeof(y));
    expect_block("0 vs 255", t, 256u * 255u * 255u, 256);

    // Half the pixels differ by exactly t (not bad), half by t + 1 (bad),
    // in both directions.
    std::uint32_t sse = 0;
    for (int i = 0; i < 256; ++i) {
      const int d = i % 2 == 0 ? t : t + 1;
      const int base = rng.next_in_range(0, 255 - d);
      x[i] = static_cast<std::uint8_t>(i % 4 < 2 ? base : base + d);
      y[i] = static_cast<std::uint8_t>(i % 4 < 2 ? base + d : base);
      sse += static_cast<std::uint32_t>(d * d);
    }
    expect_block("|d| at t and t+1", t, sse, 128);
  }
}

// PipelineConfig::bad_pixel_threshold accepts any int, so the vector
// "> threshold" compare must agree with the scalar loop everywhere: below
// 0 (every pixel bad), across [0, 255], and far beyond in both directions.
TEST(Kernels, MbErrorThresholdCompareMatchesScalarForAnyThreshold) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  // Every |d| in 0..255 once, scattered over the lanes.
  std::uint8_t x[256], y[256];
  for (int i = 0; i < 256; ++i) {
    x[i] = static_cast<std::uint8_t>(i);
    y[i] = 0;
  }
  common::Pcg32 rng(96);
  for (int i = 255; i > 0; --i) {
    std::swap(x[i], x[rng.next_in_range(0, i)]);
  }
  std::vector<int> thresholds = {std::numeric_limits<int>::min(),
                                 std::numeric_limits<int>::min() + 1,
                                 std::numeric_limits<int>::max() - 1,
                                 std::numeric_limits<int>::max()};
  for (int t = -1000; t <= 1000; ++t) thresholds.push_back(t);
  for (int t : thresholds) {
    const std::uint32_t bad = t < 0 ? 256u : (t >= 255 ? 0u : 255u - t);
    EXPECT_EQ(scalar.mb_error_16x16(x, 16, y, 16, t).bad_pixels, bad)
        << "threshold " << t;
    for (const KernelTable* simd : simd_tables()) {
      ASSERT_TRUE(same_error(scalar.mb_error_16x16(x, 16, y, 16, t),
                             simd->mb_error_16x16(x, 16, y, 16, t)))
          << simd->name << " threshold " << t;
      ASSERT_TRUE(same_error(scalar.mb_error_16x16(y, 16, x, 16, t),
                             simd->mb_error_16x16(y, 16, x, 16, t)))
          << simd->name << " (swapped) threshold " << t;
    }
  }
}

// The MB-grid wrapper: its totals are the scalar frame metrics and each
// MB entry is the scalar kernel on that block, under every backend; the
// caller's buffer is reused, not reallocated.
TEST(Kernels, MbErrorWrapperMatchesFrameMetricsAndPerBlockReference) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  const video::YuvFrame a = seq.frame_at(0);
  video::YuvFrame b = seq.frame_at(4);
  // A few identical MBs and a few saturated ones next to the natural
  // motion differences.
  common::Pcg32 rng(97);
  for (int y = 0; y < 16; ++y) {
    std::memcpy(b.y().row(y), a.y().row(y), 48);
    std::memset(b.y().row(64 + y) + 80, 255, 32);
  }
  for (int i = 0; i < 500; ++i) {
    b.y().set(rng.next_in_range(0, b.width() - 1),
              rng.next_in_range(0, b.height() - 1),
              static_cast<std::uint8_t>(rng.next_below(256)));
  }
  const KernelTable& scalar = codec::kernels::scalar_table();
  const Backend original = codec::kernels::active_backend();
  std::vector<codec::MbError> per_mb;
  for (Backend backend : codec::kernels::supported_backends()) {
    ASSERT_TRUE(codec::kernels::set_active(backend));
    for (int t : {-1, 0, 20, 254, 255}) {
      const codec::FrameError total =
          codec::luma_mb_errors(a, b, t, &per_mb);
      EXPECT_EQ(total.sse, video::sse_luma(a, b));
      EXPECT_EQ(total.bad_pixels, video::bad_pixel_count(a, b, t));
      ASSERT_EQ(per_mb.size(), static_cast<std::size_t>(a.mb_count()));
      const codec::MbError* before = per_mb.data();
      for (int my = 0; my < a.mb_rows(); ++my) {
        for (int mx = 0; mx < a.mb_cols(); ++mx) {
          const codec::kernels::BlockError want = scalar.mb_error_16x16(
              a.y().row(my * 16) + mx * 16, a.width(),
              b.y().row(my * 16) + mx * 16, b.width(), t);
          EXPECT_TRUE(
              same_error(want, per_mb[static_cast<std::size_t>(
                                   my * a.mb_cols() + mx)]))
              << codec::kernels::backend_name(backend) << " MB " << mx
              << "," << my << " threshold " << t;
        }
      }
      codec::luma_mb_errors(a, b, t, &per_mb);
      EXPECT_EQ(per_mb.data(), before);  // same size: no reallocation
    }
  }
  ASSERT_TRUE(codec::kernels::set_active(original));
}

// Edge clamping goes through the public MC entry points: vectors that land
// outside the plane must produce identical predictions and identical
// mc/halfpel pixel metering on every backend (the kernels only ever see
// in-bounds memory; the wrapper's clamped-patch fallback is what's tested).
TEST(Kernels, PredictBlockEdgeClampIdenticalAcrossBackends) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame frame = seq.frame_at(2);
  const video::Plane& plane = frame.y();
  const Backend original = codec::kernels::active_backend();

  struct Run {
    std::vector<std::uint8_t> pred;
    energy::OpCounters ops;
  };
  std::vector<Run> runs;
  for (Backend backend : codec::kernels::supported_backends()) {
    ASSERT_TRUE(codec::kernels::set_active(backend));
    Run run;
    common::Pcg32 rng(100);  // same position stream per backend
    std::uint8_t pred[16 * 16];
    for (int trial = 0; trial < 400; ++trial) {
      const int w = trial % 2 == 0 ? 16 : 8;
      // Positions biased to straddle every plane edge, in half-pel units.
      int x2 = rng.next_in_range(-40, 2 * plane.width() + 8);
      int y2 = rng.next_in_range(-40, 2 * plane.height() + 8);
      codec::predict_block(plane, x2, y2, w, w, pred, run.ops);
      run.pred.insert(run.pred.end(), pred, pred + w * w);
    }
    runs.push_back(std::move(run));
  }
  ASSERT_TRUE(codec::kernels::set_active(original));

  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].pred, runs[i].pred) << "backend index " << i;
    EXPECT_EQ(runs[0].ops.mc_pixels, runs[i].ops.mc_pixels);
    EXPECT_EQ(runs[0].ops.mc_halfpel_pixels, runs[i].ops.mc_halfpel_pixels);
  }
}

TEST(Kernels, HalfpelSadEdgeClampIdenticalAcrossBackends) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame a = seq.frame_at(2);
  video::YuvFrame b = seq.frame_at(3);
  const Backend original = codec::kernels::active_backend();

  struct Run {
    std::int64_t sum = 0;
    energy::OpCounters ops;
  };
  std::vector<Run> runs;
  for (Backend backend : codec::kernels::supported_backends()) {
    ASSERT_TRUE(codec::kernels::set_active(backend));
    Run run;
    common::Pcg32 rng(110);
    for (int trial = 0; trial < 400; ++trial) {
      int cx = 16 * rng.next_in_range(0, a.y().width() / 16 - 1);
      int cy = 16 * rng.next_in_range(0, a.y().height() / 16 - 1);
      int rx2 = rng.next_in_range(-36, 2 * b.y().width() + 4);
      int ry2 = rng.next_in_range(-36, 2 * b.y().height() + 4);
      std::int64_t cutoff =
          trial % 3 == 0 ? rng.next_in_range(1, 4000) : 1'000'000;
      run.sum += codec::sad_16x16_halfpel(a.y(), cx, cy, b.y(), rx2, ry2,
                                          cutoff, run.ops);
    }
    runs.push_back(run);
  }
  ASSERT_TRUE(codec::kernels::set_active(original));

  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].sum, runs[i].sum) << "backend index " << i;
    EXPECT_EQ(runs[0].ops.sad_halfpel_ops, runs[i].ops.sad_halfpel_ops);
  }
}

TEST(Kernels, ScalarTableOriginsAreAllScalar) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  for (int i = 0; i < codec::kernels::kNumKernels; ++i) {
    const auto id = static_cast<codec::kernels::KernelId>(i);
    EXPECT_EQ(scalar.origin_of(id), Backend::kScalar)
        << codec::kernels::kernel_name(id);
  }
}

TEST(Kernels, QuantizeMatchesScalarForAllQp) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  common::Pcg32 rng(30);
  for (const KernelTable* simd : simd_tables()) {
    for (int qp = codec::kMinQp; qp <= codec::kMaxQp; ++qp) {
      for (int trial = 0; trial < 40; ++trial) {
        const bool intra = trial % 2 == 0;
        const int first = intra ? 1 : 0;
        std::int16_t want[64], got[64];
        for (int i = 0; i < 64; ++i) {
          // Full DCT output range plus values straddling quantizer steps.
          want[i] = static_cast<std::int16_t>(rng.next_in_range(-2048, 2047));
          got[i] = want[i];
        }
        int want_nz = scalar.quantize_ac(want, first, qp, intra);
        int got_nz = simd->quantize_ac(got, first, qp, intra);
        ASSERT_EQ(want_nz, got_nz)
            << simd->name << " qp " << qp << " trial " << trial;
        ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
            << simd->name << " qp " << qp << " trial " << trial;
      }
    }
  }
}

TEST(Kernels, DequantizeMatchesScalarForAllQp) {
  const KernelTable& scalar = codec::kernels::scalar_table();
  common::Pcg32 rng(40);
  for (const KernelTable* simd : simd_tables()) {
    for (int qp = codec::kMinQp; qp <= codec::kMaxQp; ++qp) {
      for (int trial = 0; trial < 40; ++trial) {
        const int first = trial % 2;
        std::int16_t want[64], got[64];
        for (int i = 0; i < 64; ++i) {
          want[i] = static_cast<std::int16_t>(
              rng.next_in_range(-codec::kMaxLevel, codec::kMaxLevel));
          got[i] = want[i];
        }
        scalar.dequantize_ac(want, first, qp);
        simd->dequantize_ac(got, first, qp);
        ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
            << simd->name << " qp " << qp << " trial " << trial;
      }
    }
  }
}

// The OpCounters invariant, end to end: running the public metered API
// with each backend yields identical counters AND identical results — on
// the cutoff path this exercises the analytic rows-visited accounting.
TEST(Kernels, OpCountersIdenticalAcrossBackends) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame a = seq.frame_at(3);
  video::YuvFrame b = seq.frame_at(4);
  common::Pcg32 rng(50);

  const Backend original = codec::kernels::active_backend();
  struct Probe {
    std::int64_t sum = 0;
    energy::OpCounters ops;
  };
  std::vector<Probe> probes;
  for (Backend backend : codec::kernels::supported_backends()) {
    ASSERT_TRUE(codec::kernels::set_active(backend));
    Probe probe;
    common::Pcg32 local(51);  // same coordinate stream per backend
    for (int trial = 0; trial < 200; ++trial) {
      int cx = 16 * local.next_in_range(0, a.y().width() / 16 - 1);
      int cy = 16 * local.next_in_range(0, a.y().height() / 16 - 1);
      int rx = local.next_in_range(0, b.y().width() - 16);
      int ry = local.next_in_range(0, b.y().height() - 16);
      probe.sum += codec::sad_16x16(a.y(), cx, cy, b.y(), rx, ry, probe.ops);
      probe.sum += codec::sad_16x16_cutoff(a.y(), cx, cy, b.y(), rx, ry,
                                           local.next_in_range(0, 20000),
                                           probe.ops);
      probe.sum += codec::sad_self_16x16(a.y(), cx, cy, probe.ops);
    }
    probes.push_back(probe);
  }
  ASSERT_TRUE(codec::kernels::set_active(original));

  for (std::size_t i = 1; i < probes.size(); ++i) {
    EXPECT_EQ(probes[0].sum, probes[i].sum);
    EXPECT_EQ(probes[0].ops.sad_pixel_ops, probes[i].ops.sad_pixel_ops);
  }
}

// Strongest equivalence check: a short full-encoder run must produce the
// same bitstream and the same operation counters on every backend.
TEST(Kernels, EncoderBitstreamIdenticalAcrossBackends) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  const Backend original = codec::kernels::active_backend();

  struct EncodeRun {
    std::vector<std::uint8_t> bytes;
    std::uint64_t sad_ops = 0;
    std::uint64_t quant = 0;
  };
  std::vector<EncodeRun> runs;
  for (Backend backend : codec::kernels::supported_backends()) {
    ASSERT_TRUE(codec::kernels::set_active(backend));
    codec::EncoderConfig config;
    config.qp = 10;
    config.search.strategy = codec::SearchStrategy::kFullSearch;
    config.search.range = 7;
    std::unique_ptr<codec::RefreshPolicy> policy = sim::make_policy(
        sim::SchemeSpec::no_resilience(), config.width / 16,
        config.height / 16);
    codec::Encoder encoder(config, policy.get());
    EncodeRun run;
    for (int i = 0; i < 4; ++i) {
      codec::EncodedFrame frame = encoder.encode_frame(seq.frame_at(i));
      run.bytes.insert(run.bytes.end(), frame.bytes.begin(),
                       frame.bytes.end());
    }
    run.sad_ops = encoder.ops().sad_pixel_ops;
    run.quant = encoder.ops().quant_coeffs;
    runs.push_back(std::move(run));
  }
  ASSERT_TRUE(codec::kernels::set_active(original));

  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].bytes, runs[i].bytes) << "backend index " << i;
    EXPECT_EQ(runs[0].sad_ops, runs[i].sad_ops);
    EXPECT_EQ(runs[0].quant, runs[i].quant);
  }
}

// Same digest contract through the other search shape: diamond descent
// (batched neighbor sets) plus half-pel refinement (interpolating SAD
// kernel), with the full OpCounters block compared — not just sad ops.
TEST(Kernels, EncoderDigestIdenticalAcrossBackendsDiamondHalfpel) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kGardenLike);
  const Backend original = codec::kernels::active_backend();

  struct EncodeRun {
    std::vector<std::uint8_t> bytes;
    energy::OpCounters ops;
  };
  std::vector<EncodeRun> runs;
  for (Backend backend : codec::kernels::supported_backends()) {
    ASSERT_TRUE(codec::kernels::set_active(backend));
    codec::EncoderConfig config;
    config.qp = 8;
    config.search.strategy = codec::SearchStrategy::kDiamondSearch;
    config.search.range = 15;
    config.search.half_pel = true;
    std::unique_ptr<codec::RefreshPolicy> policy = sim::make_policy(
        sim::SchemeSpec::no_resilience(), config.width / 16,
        config.height / 16);
    codec::Encoder encoder(config, policy.get());
    EncodeRun run;
    for (int i = 0; i < 5; ++i) {
      codec::EncodedFrame frame = encoder.encode_frame(seq.frame_at(i));
      run.bytes.insert(run.bytes.end(), frame.bytes.begin(),
                       frame.bytes.end());
    }
    run.ops = encoder.ops();
    runs.push_back(std::move(run));
  }
  ASSERT_TRUE(codec::kernels::set_active(original));

  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].bytes, runs[i].bytes) << "backend index " << i;
    EXPECT_EQ(0, std::memcmp(&runs[0].ops, &runs[i].ops,
                             sizeof(energy::OpCounters)))
        << "backend index " << i;
  }
}

}  // namespace
}  // namespace pbpair
