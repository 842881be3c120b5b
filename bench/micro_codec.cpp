// Codec microbenchmarks (google-benchmark): the primitive costs behind the
// energy model's cycle estimates — DCT/IDCT, SAD, motion search variants,
// entropy coding, and full-frame encodes.
#include <benchmark/benchmark.h>

#include "codec/block_coder.h"
#include "codec/dct.h"
#include "codec/encoder.h"
#include "codec/motion_search.h"
#include "codec/quant.h"
#include "codec/sad.h"
#include "common/rng.h"
#include "core/pbpair_policy.h"
#include "video/sequence.h"

namespace {

using namespace pbpair;

void fill_random_block(std::int16_t* block, std::uint64_t seed, int lo,
                       int hi) {
  common::Pcg32 rng(seed);
  for (int i = 0; i < 64; ++i) {
    block[i] = static_cast<std::int16_t>(rng.next_in_range(lo, hi));
  }
}

void BM_ForwardDct(benchmark::State& state) {
  std::int16_t in[64], out[64];
  fill_random_block(in, 1, 0, 255);
  for (auto _ : state) {
    codec::forward_dct_8x8(in, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ForwardDct);

void BM_InverseDct(benchmark::State& state) {
  std::int16_t in[64], out[64];
  fill_random_block(in, 2, -500, 500);
  for (auto _ : state) {
    codec::inverse_dct_8x8(in, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_InverseDct);

void BM_QuantizeBlock(benchmark::State& state) {
  std::int16_t block[64];
  energy::OpCounters ops;
  for (auto _ : state) {
    fill_random_block(block, 3, -800, 800);
    benchmark::DoNotOptimize(codec::quantize_block(block, 10, false, ops));
  }
}
BENCHMARK(BM_QuantizeBlock);

void BM_Sad16x16(benchmark::State& state) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame a = seq.frame_at(0);
  video::YuvFrame b = seq.frame_at(1);
  energy::OpCounters ops;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::sad_16x16(a.y(), 48, 48, b.y(), 48, 48, ops));
  }
}
BENCHMARK(BM_Sad16x16);

void BM_MotionSearch(benchmark::State& state) {
  const bool full = state.range(0) != 0;
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::YuvFrame cur = seq.frame_at(1);
  video::YuvFrame ref = seq.frame_at(0);
  energy::OpCounters ops;
  codec::MotionSearchConfig config;
  config.strategy = full ? codec::SearchStrategy::kFullSearch
                         : codec::SearchStrategy::kDiamondSearch;
  config.range = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::search_motion(cur.y(), ref.y(), 5, 4, config, nullptr, ops));
  }
  state.SetLabel(full ? "full" : "diamond");
}
BENCHMARK(BM_MotionSearch)->Arg(1)->Arg(0);

void BM_EncodeBlockVlc(benchmark::State& state) {
  std::int16_t block[64] = {};
  block[0] = 5;
  block[1] = -2;
  block[8] = 1;
  block[16] = 1;
  for (auto _ : state) {
    codec::BitWriter writer;
    codec::encode_block(writer, block, false);
    benchmark::DoNotOptimize(writer.bit_count());
  }
}
BENCHMARK(BM_EncodeBlockVlc);

void BM_EncodeFrame(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  std::vector<video::YuvFrame> clip;
  for (int i = 0; i < 8; ++i) clip.push_back(seq.frame_at(i));

  codec::EncoderConfig config;
  config.search.strategy = variant == 2
                               ? codec::SearchStrategy::kFullSearch
                               : codec::SearchStrategy::kDiamondSearch;
  config.search.range = 7;

  codec::NoRefreshPolicy no_policy;
  core::PbpairConfig pbpair_config;
  pbpair_config.intra_th = 0.95;
  pbpair_config.plr = 0.10;
  core::PbpairPolicy pbpair_policy(11, 9, pbpair_config);
  codec::RefreshPolicy* policy =
      variant == 1 ? static_cast<codec::RefreshPolicy*>(&pbpair_policy)
                   : &no_policy;

  codec::Encoder encoder(config, policy);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        encoder.encode_frame(clip[static_cast<std::size_t>(i)]));
    i = (i + 1) % static_cast<int>(clip.size());
  }
  state.SetLabel(variant == 0 ? "NO/diamond"
                              : (variant == 1 ? "PBPAIR/diamond" : "NO/full"));
}
BENCHMARK(BM_EncodeFrame)->Arg(0)->Arg(1)->Arg(2);

constexpr video::SequenceKind kClips[] = {video::SequenceKind::kForemanLike,
                                          video::SequenceKind::kAkiyoLike,
                                          video::SequenceKind::kGardenLike};

// Arg: 0 = foreman, 1 = akiyo, 2 = garden. Each clip renders a different
// mix of lattice cells, octaves and sprites, so each has its own cost.
// Times the renderer itself: render() bypasses the frame cache.
void BM_GenerateFrame(benchmark::State& state) {
  const video::SequenceKind kind = kClips[state.range(0)];
  video::SyntheticSequence seq = video::make_paper_sequence(kind);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq.render(i));
    i = (i + 1) % 300;
  }
  state.SetLabel(video::sequence_kind_name(kind));
}
BENCHMARK(BM_GenerateFrame)->Arg(0)->Arg(1)->Arg(2);

// The frame cache's hit path: slot lookup plus copying the frame out. All
// 300 frames are cached before timing starts.
void BM_FrameAtCached(benchmark::State& state) {
  const video::SequenceKind kind = kClips[state.range(0)];
  video::SyntheticSequence seq = video::make_paper_sequence(kind);
  for (int i = 0; i < 300; ++i) seq.frame_at(i);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq.frame_at(i));
    i = (i + 1) % 300;
  }
  state.SetLabel(video::sequence_kind_name(kind));
}
BENCHMARK(BM_FrameAtCached)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
