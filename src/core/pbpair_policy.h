// PBPAIR — Probability Based Power Aware Intra Refresh (paper §3).
//
// The scheme plugs into the encoder through the RefreshPolicy hooks:
//
//  1. Encoding-mode selection BEFORE motion estimation (§3.1.1): an MB
//     whose probability of correctness σ^{k-1} has decayed below the
//     user-set Intra_Th is coded intra and its motion estimation is
//     skipped outright. This early decision is PBPAIR's energy lever — ME
//     is the dominant encoder cost — and simultaneously its resilience
//     lever, since intra coding stops error propagation.
//
//  2. Probability-aware motion estimation (§3.1.2, Fig. 3): inter MBs pick
//     their vector by cost SAD(v) + λ·(1 − σ_min(reference window of v)),
//     so a low-SAD candidate inside likely-damaged reference area loses to
//     a slightly-worse candidate from trustworthy area. The window is the
//     set of MBs v's reference block overlaps (codec::ref_window), the
//     same "related MBs" Formula (1) below takes its min over. (The paper
//     defers the exact formula to tech report [15], which is not public;
//     this linear-penalty form matches the stated intent — see DESIGN.md
//     §2.)
//
//  3. Correctness update AFTER the frame (§3.1.3):
//       inter: σ^k = (1−α)·min(σ^{k-1} of related MBs) + α·sim·σ^{k-1}  (1)
//       intra: σ^k = (1−α)·1 + α·sim·σ^{k-1}                            (2)
//     where α is the packet-loss rate, "related MBs" are the MBs the
//     chosen vector predicts from, and sim is the concealment-dependent
//     similarity factor (core/similarity.h). Skipped MBs are inter with a
//     zero vector. All arithmetic is Q16 fixed point.
#pragma once

#include <memory>

#include "codec/refresh_policy.h"
#include "common/fixed.h"
#include "core/correctness_matrix.h"
#include "core/similarity.h"

namespace pbpair::core {

struct PbpairConfig {
  /// User expectation of error-resiliency level, in [0,1]. 0 disables
  /// refresh entirely (pure compression efficiency); 1 forces every MB
  /// intra (maximum robustness). §3.1 / §4.3.
  double intra_th = 0.85;

  /// Packet loss rate α the probability model assumes. In a live system
  /// this comes from receiver feedback (see set_plr / PowerAwareController).
  double plr = 0.10;

  /// λ of the ME penalty: extra cost (SAD scale) charged when predicting
  /// from a region with σ_min = 0; scales linearly in (1 − σ_min). The
  /// default penalizes a fully-suspect reference about as much as one
  /// quantizer step of extra distortion on a 16x16 block.
  std::int64_t me_penalty_scale = 2048;

  /// Ablation switch: disable the §3.1.2 ME term (mode selection only).
  bool use_me_penalty = true;

  /// Concealment-dependent similarity factor; null selects the paper's
  /// copy-concealment model.
  std::shared_ptr<const SimilarityModel> similarity;
};

class PbpairPolicy final : public codec::RefreshPolicy {
 public:
  PbpairPolicy(int mb_cols, int mb_rows, const PbpairConfig& config);

  const char* name() const override { return "PBPAIR"; }

  bool force_intra_pre_me(int frame_index, int mb_x, int mb_y) override;
  std::int64_t me_penalty(const codec::RefWindow& window) const override;
  bool has_me_penalty() const override;
  void on_frame_encoded(const codec::FrameEncodeInfo& info) override;
  void reset() override;

  /// Live parameter updates (network feedback / power-aware adaptation,
  /// §3.2). Values are clamped to their valid ranges.
  void set_intra_th(double intra_th);
  void set_plr(double plr);
  double intra_th() const { return common::q16_to_double(intra_th_q16_); }
  double plr() const { return common::q16_to_double(alpha_q16_); }

  /// The model state, exposed for tests, telemetry, and the adaptation
  /// controller's resiliency estimate.
  const CorrectnessMatrix& matrix() const { return matrix_; }

 private:
  /// min(σ^{k-1}) over the MBs of `window`.
  common::Q16 sigma_min(const codec::RefWindow& window) const;

  PbpairConfig config_;
  common::Q16 intra_th_q16_;
  common::Q16 alpha_q16_;
  std::shared_ptr<const SimilarityModel> similarity_;
  CorrectnessMatrix matrix_;  // C^{k-1} during frame k's decisions
};

}  // namespace pbpair::core
