// Tests for the operation-counting energy model and device profiles.
#include <gtest/gtest.h>

#include "codec/encoder.h"
#include "energy/battery.h"
#include "energy/energy_model.h"
#include "video/sequence.h"

namespace pbpair::energy {
namespace {

TEST(OpCounters, AccumulateAndReset) {
  OpCounters a;
  a.sad_pixel_ops = 100;
  a.sad_calls = 7;
  a.dct_blocks = 5;
  a.intra_mbs = 2;
  OpCounters b;
  b.sad_pixel_ops = 50;
  b.sad_calls = 4;
  b.sad_early_exits = 3;
  b.inter_mbs = 3;
  a += b;
  EXPECT_EQ(a.sad_pixel_ops, 150u);
  EXPECT_EQ(a.sad_calls, 11u);
  EXPECT_EQ(a.sad_early_exits, 3u);
  EXPECT_EQ(a.dct_blocks, 5u);
  EXPECT_EQ(a.total_mbs(), 5u);
  a.reset();
  EXPECT_EQ(a.sad_pixel_ops, 0u);
  EXPECT_EQ(a.sad_calls, 0u);
  EXPECT_EQ(a.sad_early_exits, 0u);
  EXPECT_EQ(a.total_mbs(), 0u);
}

TEST(EnergyModel, ZeroOpsZeroEnergy) {
  OpCounters ops;
  EnergyBreakdown e = encode_energy(ops, ipaq_h5555());
  EXPECT_DOUBLE_EQ(e.total_j(), 0.0);
}

TEST(EnergyModel, SadCallCountsCostNothing) {
  // sad_calls / sad_early_exits are observability counts; the pixel ops
  // they accompany already carry the energy.
  OpCounters ops;
  ops.sad_calls = 1000;
  ops.sad_early_exits = 900;
  EXPECT_DOUBLE_EQ(encode_energy(ops, ipaq_h5555()).total_j(), 0.0);
}

TEST(EnergyModel, BreakdownSumsToTotal) {
  OpCounters ops;
  ops.sad_pixel_ops = 1000000;
  ops.me_invocations = 100;
  ops.dct_blocks = 600;
  ops.idct_blocks = 500;
  ops.quant_coeffs = 38400;
  ops.dequant_coeffs = 38400;
  ops.mc_pixels = 40000;
  ops.bits_written = 80000;
  ops.intra_mbs = 30;
  ops.inter_mbs = 60;
  ops.skip_mbs = 9;
  ops.frames = 1;
  EnergyBreakdown e = encode_energy(ops, ipaq_h5555());
  double sum = e.me_j + e.dct_j + e.idct_j + e.quant_j + e.mc_j + e.vlc_j +
               e.overhead_j;
  EXPECT_DOUBLE_EQ(e.total_j(), sum);
  EXPECT_GT(e.total_j(), 0.0);
}

TEST(EnergyModel, EnergyIsLinearInOps) {
  OpCounters ops;
  ops.sad_pixel_ops = 500000;
  ops.dct_blocks = 300;
  EnergyBreakdown once = encode_energy(ops, ipaq_h5555());
  OpCounters doubled = ops;
  doubled += ops;
  EnergyBreakdown twice = encode_energy(doubled, ipaq_h5555());
  EXPECT_NEAR(twice.total_j(), 2.0 * once.total_j(), 1e-12);
}

TEST(EnergyModel, MeDominatesForTypicalEncode) {
  // The paper's premise: "motion estimation is the most power consuming
  // operation in a predictive video compression algorithm." Verify the
  // model reproduces that for a real encoder run.
  codec::NoRefreshPolicy policy;
  codec::Encoder encoder(codec::EncoderConfig{}, &policy);
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  for (int i = 0; i < 10; ++i) encoder.encode_frame(seq.frame_at(i));
  EnergyBreakdown e = encode_energy(encoder.ops(), ipaq_h5555());
  EXPECT_GT(e.me_j, e.dct_j);
  EXPECT_GT(e.me_j, e.idct_j);
  EXPECT_GT(e.me_j, e.quant_j);
  EXPECT_GT(e.me_j, e.vlc_j);
  EXPECT_GT(e.me_j, 0.35 * e.total_j());
}

TEST(EnergyModel, ZaurusCostsMoreThanIpaqForMemoryBoundWork) {
  OpCounters ops;
  ops.sad_pixel_ops = 1000000;
  ops.mc_pixels = 100000;
  double ipaq = encode_energy(ops, ipaq_h5555()).total_j();
  double zaurus = encode_energy(ops, zaurus_sl5600()).total_j();
  EXPECT_GT(zaurus, ipaq);
  EXPECT_NEAR(zaurus / ipaq, 1.18, 0.02);
}

TEST(EnergyModel, ProfilesAreNamed) {
  EXPECT_EQ(ipaq_h5555().name, "iPAQ H5555");
  EXPECT_EQ(zaurus_sl5600().name, "Zaurus SL-5600");
}

TEST(EnergyModel, TxEnergyScalesWithBytes) {
  EXPECT_DOUBLE_EQ(tx_energy_j(0, ipaq_h5555()), 0.0);
  double one_kb = tx_energy_j(1024, ipaq_h5555());
  double two_kb = tx_energy_j(2048, ipaq_h5555());
  EXPECT_NEAR(two_kb, 2.0 * one_kb, 1e-12);
  // ~1.3 uJ/byte: 1 KB should land around 1.3 mJ.
  EXPECT_NEAR(one_kb, 1024 * 1.3e-6, 1e-4);
}

TEST(Battery, DrainsAndClamps) {
  Battery battery(10.0);
  EXPECT_DOUBLE_EQ(battery.capacity_j(), 10.0);
  battery.drain(4.0);
  EXPECT_DOUBLE_EQ(battery.remaining_j(), 6.0);
  EXPECT_DOUBLE_EQ(battery.fraction_remaining(), 0.6);
  EXPECT_FALSE(battery.depleted());
  battery.drain(100.0);
  EXPECT_DOUBLE_EQ(battery.remaining_j(), 0.0);
  EXPECT_TRUE(battery.depleted());
}

}  // namespace
}  // namespace pbpair::energy
