// Tests for frames, metrics, noise, and the synthetic sequences.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "codec/sad.h"
#include "common/rng.h"
#include "video/frame.h"
#include "video/metrics.h"
#include "video/noise.h"
#include "video/sequence.h"
#include "video/yuv_io.h"

namespace pbpair::video {
namespace {

TEST(Frame, QcifGeometry) {
  YuvFrame frame = make_qcif_frame();
  EXPECT_EQ(frame.width(), 176);
  EXPECT_EQ(frame.height(), 144);
  EXPECT_EQ(frame.mb_cols(), 11);
  EXPECT_EQ(frame.mb_rows(), 9);
  EXPECT_EQ(frame.mb_count(), 99);  // the paper's 9x11 matrix
  EXPECT_EQ(frame.u().width(), 88);
  EXPECT_EQ(frame.u().height(), 72);
}

TEST(Frame, FillGray) {
  YuvFrame frame(32, 32);
  frame.fill_gray();
  EXPECT_EQ(frame.y().at(5, 5), 128);
  EXPECT_EQ(frame.u().at(3, 3), 128);
  EXPECT_EQ(frame.v().at(0, 0), 128);
}

TEST(Frame, EqualityIsDeep) {
  YuvFrame a(32, 32);
  YuvFrame b(32, 32);
  a.fill_gray();
  b.fill_gray();
  EXPECT_EQ(a, b);
  b.y().set(1, 1, 99);
  EXPECT_NE(a, b);
}

TEST(Plane, ClampedReadAtBorders) {
  Plane plane(8, 8, 0);
  plane.set(0, 0, 11);
  plane.set(7, 7, 22);
  EXPECT_EQ(plane.at_clamped(-5, -5), 11);
  EXPECT_EQ(plane.at_clamped(100, 100), 22);
  EXPECT_EQ(plane.at_clamped(0, 100), plane.at(0, 7));
}

TEST(Metrics, IdenticalFramesHitPsnrCap) {
  YuvFrame a(32, 32);
  a.fill_gray();
  EXPECT_DOUBLE_EQ(psnr_luma(a, a), 99.0);
  EXPECT_EQ(bad_pixel_count(a, a), 0u);
  EXPECT_EQ(sse_luma(a, a), 0u);
}

TEST(Metrics, KnownMseGivesKnownPsnr) {
  YuvFrame a(32, 32);
  YuvFrame b(32, 32);
  a.fill_gray();
  b.fill_gray();
  // Perturb every pixel by +5 => MSE 25 => PSNR = 10*log10(255^2/25).
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) b.y().set(x, y, 133);
  }
  EXPECT_NEAR(psnr_luma(a, b), 10.0 * std::log10(255.0 * 255.0 / 25.0), 1e-9);
}

TEST(Metrics, BadPixelThresholdIsStrict) {
  YuvFrame a(32, 32);
  YuvFrame b(32, 32);
  a.fill_gray();
  b.fill_gray();
  b.y().set(0, 0, 128 + 20);  // == threshold: not bad
  b.y().set(1, 0, 128 + 21);  // > threshold: bad
  EXPECT_EQ(bad_pixel_count(a, b, 20), 1u);
}

TEST(Metrics, BadPixelCountsEachPixelOnce) {
  YuvFrame a(32, 32);
  YuvFrame b(32, 32);
  a.fill_gray();
  b.fill_gray();
  for (int x = 0; x < 10; ++x) b.y().set(x, 3, 255);
  EXPECT_EQ(bad_pixel_count(a, b), 10u);
}

TEST(Noise, DeterministicAcrossInstances) {
  ValueNoise a(42);
  ValueNoise b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.sample(i * 3, i * 7, 16), b.sample(i * 3, i * 7, 16));
    EXPECT_EQ(a.fractal(i, -i, 32, 3), b.fractal(i, -i, 32, 3));
  }
}

TEST(Noise, SamplesWithinByteRange) {
  ValueNoise noise(7);
  for (int y = -50; y < 50; y += 7) {
    for (int x = -50; x < 50; x += 5) {
      int v = noise.fractal(x, y, 16, 4);
      EXPECT_GE(v, 0);
      EXPECT_LE(v, 255);
    }
  }
}

TEST(Noise, DifferentSeedsGiveDifferentFields) {
  ValueNoise a(1);
  ValueNoise b(2);
  int differences = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.sample(i * 11, i * 13, 16) != b.sample(i * 11, i * 13, 16)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 25);
}

TEST(Noise, SpatialCorrelationWithinCell) {
  // Neighboring samples inside one lattice cell differ less than samples
  // from far apart cells on average.
  ValueNoise noise(99);
  long long near_diff = 0, far_diff = 0;
  for (int i = 0; i < 200; ++i) {
    int x = i * 3, y = i * 5;
    near_diff += std::abs(noise.sample(x, y, 32) - noise.sample(x + 1, y, 32));
    far_diff +=
        std::abs(noise.sample(x, y, 32) - noise.sample(x + 500, y + 700, 32));
  }
  EXPECT_LT(near_diff, far_diff);
}

TEST(Noise, FractalRowMatchesPerSampleFractal) {
  // Every (cell, octaves) the paper clips render with (luma background,
  // sprite texture, chroma), then configurations whose octave cells shift
  // down to 1 or to 0 (which ends the octave sum early), and the largest
  // cell the row form accepts.
  struct Config {
    int base_cell;
    int octaves;
  };
  const Config configs[] = {{48, 2}, {24, 3}, {10, 4}, {16, 2}, {96, 2},
                            {20, 2}, {1, 1},  {2, 2},  {3, 3},  {5, 4},
                            {2, 6},  {7, 6},  {ValueNoise::kMaxRowCell, 6}};
  common::Pcg32 rng(2005, 12);
  std::vector<int> row;
  for (const Config& c : configs) {
    ValueNoise noise(rng.next_u32());
    for (int step = 1; step <= 3; ++step) {
      for (int trial = 0; trial < 24; ++trial) {
        // Origins on both sides of zero: foreman's jitter puts off_x < 0.
        const int x0 = static_cast<int>(rng.next_below(1200)) - 600;
        const int y = static_cast<int>(rng.next_below(1200)) - 600;
        const int n = 1 + static_cast<int>(rng.next_below(200));
        row.assign(static_cast<std::size_t>(n), -1);
        noise.fractal_row(x0, y, n, step, c.base_cell, c.octaves, row.data());
        for (int k = 0; k < n; ++k) {
          ASSERT_EQ(row[k],
                    noise.fractal(x0 + k * step, y, c.base_cell, c.octaves))
              << "cell " << c.base_cell << " octaves " << c.octaves
              << " step " << step << " x0 " << x0 << " y " << y << " k "
              << k;
        }
      }
    }
  }
}

TEST(Noise, FractalRowRejectsCellsBeyondExactDivision) {
  ValueNoise noise(1);
  int out[4];
  EXPECT_DEATH(noise.fractal_row(0, 0, 4, 1, ValueNoise::kMaxRowCell + 1, 1,
                                 out),
               "kMaxRowCell");
}

// --- Synthetic sequences ---

TEST(Sequence, FrameAtIsPure) {
  SyntheticSequence seq = make_paper_sequence(SequenceKind::kForemanLike);
  YuvFrame a = seq.frame_at(17);
  YuvFrame b = seq.frame_at(17);
  EXPECT_EQ(a, b);
}

TEST(Sequence, DifferentSeedsDiffer) {
  SyntheticSequence a(SequenceKind::kForemanLike, 176, 144, 1);
  SyntheticSequence b(SequenceKind::kForemanLike, 176, 144, 2);
  EXPECT_NE(a.frame_at(0), b.frame_at(0));
}

TEST(Sequence, NamesMatchPaperClips) {
  EXPECT_STREQ(sequence_kind_name(SequenceKind::kAkiyoLike), "akiyo");
  EXPECT_STREQ(sequence_kind_name(SequenceKind::kForemanLike), "foreman");
  EXPECT_STREQ(sequence_kind_name(SequenceKind::kGardenLike), "garden");
}

// Mean co-located SAD between consecutive frames = motion activity proxy.
double motion_activity(SequenceKind kind, int frames) {
  SyntheticSequence seq = make_paper_sequence(kind);
  energy::OpCounters ops;
  std::int64_t total = 0;
  int blocks = 0;
  YuvFrame prev = seq.frame_at(0);
  for (int i = 1; i <= frames; ++i) {
    YuvFrame cur = seq.frame_at(i);
    for (int my = 0; my < cur.mb_rows(); ++my) {
      for (int mx = 0; mx < cur.mb_cols(); ++mx) {
        total += codec::sad_16x16(cur.y(), mx * 16, my * 16, prev.y(),
                                  mx * 16, my * 16, ops);
        ++blocks;
      }
    }
    prev = cur;
  }
  return static_cast<double>(total) / blocks;
}

TEST(Sequence, MotionActivityOrderingMatchesPaperClips) {
  // The experiments depend on akiyo < foreman < garden motion activity
  // (DESIGN.md §2); this is the load-bearing property of the substitution.
  double akiyo = motion_activity(SequenceKind::kAkiyoLike, 12);
  double foreman = motion_activity(SequenceKind::kForemanLike, 12);
  double garden = motion_activity(SequenceKind::kGardenLike, 12);
  EXPECT_LT(akiyo * 1.2, foreman);
  EXPECT_LT(foreman * 1.5, garden);
}

TEST(Sequence, AkiyoBackgroundIsNearStatic) {
  SyntheticSequence seq = make_paper_sequence(SequenceKind::kAkiyoLike);
  YuvFrame f0 = seq.frame_at(0);
  YuvFrame f1 = seq.frame_at(1);
  // Top-left corner MB is background: only sensor noise (+/-2 per pixel)
  // separates consecutive frames on a tripod shot.
  energy::OpCounters ops;
  std::int64_t sad = codec::sad_16x16(f0.y(), 0, 0, f1.y(), 0, 0, ops);
  EXPECT_GT(sad, 0);          // noise exists (concealment is not perfect)
  EXPECT_LT(sad, 256 * 3);    // but it is tiny (tripod, studio light)
}

TEST(Sequence, GardenPansEveryRegion) {
  SyntheticSequence seq = make_paper_sequence(SequenceKind::kGardenLike);
  YuvFrame f0 = seq.frame_at(0);
  YuvFrame f4 = seq.frame_at(4);
  energy::OpCounters ops;
  // After 4 frames of ~2.5 px/frame pan every MB should have moved.
  int moved = 0;
  for (int my = 0; my < f0.mb_rows(); ++my) {
    for (int mx = 0; mx < f0.mb_cols(); ++mx) {
      if (codec::sad_16x16(f4.y(), mx * 16, my * 16, f0.y(), mx * 16,
                           my * 16, ops) > 1000) {
        ++moved;
      }
    }
  }
  EXPECT_GT(moved, 90);  // out of 99
}

TEST(Sequence, GardenPanIsTrueTranslation) {
  // frame k+2 shifted by the pan vector should match frame k almost
  // exactly in the interior (integer pan of 5 px per 2 frames).
  SyntheticSequence seq = make_paper_sequence(SequenceKind::kGardenLike);
  YuvFrame f0 = seq.frame_at(0);
  YuvFrame f2 = seq.frame_at(2);
  energy::OpCounters ops;
  // pan offset between frame 0 and 2: (5, 0) with the /4 vertical drift 0.
  std::int64_t sad =
      codec::sad_16x16(f2.y(), 32, 32, f0.y(), 32 + 5, 32 + 0, ops);
  EXPECT_EQ(sad, 0);
}

// FNV-1a-64 over the Y, U and V bytes of frames [0, frames), each produced
// by `get` (SyntheticSequence::render or ::frame_at).
std::uint64_t clip_digest(const SyntheticSequence& seq, int frames,
                          YuvFrame (SyntheticSequence::*get)(int) const) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (int i = 0; i < frames; ++i) {
    const YuvFrame frame = (seq.*get)(i);
    for (const Plane* plane : {&frame.y(), &frame.u(), &frame.v()}) {
      for (std::uint8_t byte : plane->data()) {
        h ^= byte;
        h *= 0x100000001B3ULL;
      }
    }
  }
  return h;
}

// Digests the clip three ways: the uncached renderer, a first frame_at pass
// that renders and caches (cold: ctest runs each test in its own process)
// and a second pass that copies every frame out of the cache (warm).
void expect_clip_digest(const SyntheticSequence& seq, int frames,
                        std::uint64_t golden) {
  EXPECT_EQ(clip_digest(seq, frames, &SyntheticSequence::render), golden)
      << "render";
  EXPECT_EQ(clip_digest(seq, frames, &SyntheticSequence::frame_at), golden)
      << "cold frame_at";
  EXPECT_EQ(clip_digest(seq, frames, &SyntheticSequence::frame_at), golden)
      << "warm frame_at";
}

// Golden digests pin the renderer byte for byte: every codec, energy and
// bench figure downstream is a function of these frames. The values were
// recorded from the original per-pixel renderer (one fractal() call per
// sample), which the row renderer must reproduce exactly.
TEST(Sequence, PaperClipsMatchGoldenDigests) {
  expect_clip_digest(make_paper_sequence(SequenceKind::kForemanLike), 300,
                     0xb6870329944b75e7ULL);
  expect_clip_digest(make_paper_sequence(SequenceKind::kAkiyoLike), 300,
                     0x5ac4080f5ec5963bULL);
  expect_clip_digest(make_paper_sequence(SequenceKind::kGardenLike), 300,
                     0x1c40164305c93980ULL);
}

TEST(Sequence, CifClipsMatchGoldenDigests) {
  auto cif = [](SequenceKind kind) {
    return SyntheticSequence(kind, kCifWidth, kCifHeight, 2005);
  };
  expect_clip_digest(cif(SequenceKind::kForemanLike), 40,
                     0x54cbadbb0b0ea91aULL);
  expect_clip_digest(cif(SequenceKind::kAkiyoLike), 40, 0x36d8074124bafbd5ULL);
  expect_clip_digest(cif(SequenceKind::kGardenLike), 40,
                     0xd1d4664964a680acULL);
}

TEST(Sequence, NonDefaultSeedClipsMatchGoldenDigests) {
  auto seeded = [](SequenceKind kind) {
    return make_paper_sequence(kind, 123456789);
  };
  expect_clip_digest(seeded(SequenceKind::kForemanLike), 60,
                     0x27e48989539b89c8ULL);
  expect_clip_digest(seeded(SequenceKind::kAkiyoLike), 60,
                     0xbb2b42445eec4d15ULL);
  expect_clip_digest(seeded(SequenceKind::kGardenLike), 60,
                     0x35a80f66e228945aULL);
}

TEST(Sequence, SixteenPixelHighClipMatchesGoldenDigest) {
  // At height 16 akiyo's mouth sprite has ry == 0, so its ellipse test
  // accepts a whole row rather than a bounded span.
  expect_clip_digest(SyntheticSequence(SequenceKind::kAkiyoLike, 176, 16, 2005),
                     20, 0xc550ff0bba1fd512ULL);
}

TEST(YuvIo, WriteReadRoundTrip) {
  SyntheticSequence seq = make_paper_sequence(SequenceKind::kAkiyoLike);
  std::vector<YuvFrame> frames = {seq.frame_at(0), seq.frame_at(1)};
  const std::string path = "/tmp/pbpair_test_roundtrip.yuv";
  ASSERT_TRUE(write_yuv_file(path, frames));
  std::vector<YuvFrame> back = read_yuv_file(path, 176, 144);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], frames[0]);
  EXPECT_EQ(back[1], frames[1]);
  std::remove(path.c_str());
}

TEST(YuvIo, MaxFramesLimitsRead) {
  SyntheticSequence seq = make_paper_sequence(SequenceKind::kAkiyoLike);
  std::vector<YuvFrame> frames = {seq.frame_at(0), seq.frame_at(1),
                                  seq.frame_at(2)};
  const std::string path = "/tmp/pbpair_test_maxframes.yuv";
  ASSERT_TRUE(write_yuv_file(path, frames));
  EXPECT_EQ(read_yuv_file(path, 176, 144, 2).size(), 2u);
  std::remove(path.c_str());
}

TEST(YuvIo, MissingFileGivesEmpty) {
  EXPECT_TRUE(read_yuv_file("/tmp/does_not_exist_pbpair.yuv", 176, 144).empty());
}

TEST(YuvIo, TruncatedFileDropsPartialFrame) {
  SyntheticSequence seq = make_paper_sequence(SequenceKind::kAkiyoLike);
  std::vector<YuvFrame> frames = {seq.frame_at(0)};
  const std::string path = "/tmp/pbpair_test_trunc.yuv";
  ASSERT_TRUE(write_yuv_file(path, frames));
  // Append half a frame worth of garbage.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  std::vector<std::uint8_t> garbage(1000, 7);
  std::fwrite(garbage.data(), 1, garbage.size(), f);
  std::fclose(f);
  EXPECT_EQ(read_yuv_file(path, 176, 144).size(), 1u);
  std::remove(path.c_str());
}

// --- Frame cache (DESIGN.md §2) ---
// Each test uses seeds no other test renders, so its caches start empty.

TEST(FrameCache, CopiesAndEqualSequencesShareOneCache) {
  const std::uint64_t seed = 0xCAC4E;
  const SyntheticSequence seq =
      make_paper_sequence(SequenceKind::kForemanLike, seed);
  const SyntheticSequence copy = seq;
  const std::size_t bytes_before = SyntheticSequence::cached_bytes();
  EXPECT_EQ(seq.cached_frames(), 0);
  EXPECT_EQ(copy.frame_at(5), seq.render(5));
  EXPECT_EQ(seq.cached_frames(), 1);
  EXPECT_EQ(SyntheticSequence::cached_bytes() - bytes_before,
            std::size_t{kQcifWidth * kQcifHeight * 3 / 2});

  // Built independently from the same key: same cache, so a hit.
  const SyntheticSequence equal(SequenceKind::kForemanLike, kQcifWidth,
                                kQcifHeight, seed);
  EXPECT_EQ(equal.cached_frames(), 1);
  EXPECT_EQ(equal.frame_at(5), seq.render(5));
  EXPECT_EQ(seq.cached_frames(), 1);
  EXPECT_EQ(SyntheticSequence::cached_bytes() - bytes_before,
            std::size_t{kQcifWidth * kQcifHeight * 3 / 2});

  // Every other part of the key selects a cache of its own.
  EXPECT_EQ(make_paper_sequence(SequenceKind::kAkiyoLike, seed).cached_frames(),
            0);
  EXPECT_EQ(
      make_paper_sequence(SequenceKind::kForemanLike, seed + 1).cached_frames(),
      0);
  EXPECT_EQ(SyntheticSequence(SequenceKind::kForemanLike, kCifWidth,
                              kQcifHeight, seed)
                .cached_frames(),
            0);
  EXPECT_EQ(SyntheticSequence(SequenceKind::kForemanLike, kQcifWidth,
                              kCifHeight, seed)
                .cached_frames(),
            0);
}

TEST(FrameCache, ConcurrentFrameAtMatchesRender) {
  constexpr int kThreads = 8;
  constexpr int kFrames = 24;
  const std::uint64_t seed = 0xC0C0A;
  std::vector<SyntheticSequence> clips;
  std::vector<std::vector<YuvFrame>> expected(3);
  for (int c = 0; c < 3; ++c) {
    clips.push_back(make_paper_sequence(
        c == 0 ? SequenceKind::kForemanLike
               : (c == 1 ? SequenceKind::kAkiyoLike : SequenceKind::kGardenLike),
        seed));
    for (int i = 0; i < kFrames; ++i) expected[c].push_back(clips[c].render(i));
  }
  const std::size_t bytes_before = SyntheticSequence::cached_bytes();

  // Thread t walks every (clip, frame) pair from its own offset, so
  // threads race to render and publish the same slots.
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < 3 * kFrames; ++k) {
        const int n = (k + t * 5) % (3 * kFrames);
        const int c = n % 3;
        const int i = n / 3;
        if (!(clips[c].frame_at(i) == expected[c][i])) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  // One published frame per slot, and racers that lost gave back their
  // budget claim.
  for (const SyntheticSequence& clip : clips) {
    EXPECT_EQ(clip.cached_frames(), kFrames);
  }
  EXPECT_EQ(SyntheticSequence::cached_bytes() - bytes_before,
            std::size_t{3 * kFrames * kQcifWidth * kQcifHeight * 3 / 2});
}

// Spends the whole frame-cache budget of the process, so it comes last.
TEST(FrameCache, FramesPastTheBudgetAreRenderedNotCached) {
  constexpr int kWidth = 704;
  constexpr int kHeight = 576;
  constexpr std::size_t kFrameBytes = std::size_t{kWidth} * kHeight * 3 / 2;
  const int fit = static_cast<int>(kFrameCacheBudgetBytes / kFrameBytes);
  const SyntheticSequence filler(SequenceKind::kGardenLike, kWidth, kHeight,
                                 0xB0D6E7);
  const SyntheticSequence late(SequenceKind::kAkiyoLike, kWidth, kHeight,
                               0xB0D6E7);
  for (int i = 0; i < fit; ++i) {
    filler.frame_at(i);
    EXPECT_LE(SyntheticSequence::cached_bytes(), kFrameCacheBudgetBytes) << i;
  }
  // The budget is full to within one frame.
  EXPECT_GT(SyntheticSequence::cached_bytes() + kFrameBytes,
            kFrameCacheBudgetBytes);
  EXPECT_LE(filler.cached_frames(), fit);
  // Past the budget, frames are rendered on every call: indices from `fit`
  // on have no slot, and the late clip's frames have slots but no budget
  // left to claim.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(late.frame_at(i), late.render(i)) << i;
      EXPECT_EQ(filler.frame_at(fit + i), filler.render(fit + i)) << i;
    }
  }
  EXPECT_EQ(late.cached_frames(), 0);
  EXPECT_LE(filler.cached_frames(), fit);
  EXPECT_LE(SyntheticSequence::cached_bytes(), kFrameCacheBudgetBytes);
}

}  // namespace
}  // namespace pbpair::video
