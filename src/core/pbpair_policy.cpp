#include "core/pbpair_policy.h"

#include "common/math_util.h"

namespace pbpair::core {

using common::kQ16One;
using common::Q16;

PbpairPolicy::PbpairPolicy(int mb_cols, int mb_rows,
                           const PbpairConfig& config)
    : config_(config),
      intra_th_q16_(common::q16_from_double(config.intra_th)),
      alpha_q16_(common::q16_from_double(config.plr)),
      similarity_(config.similarity
                      ? config.similarity
                      : std::make_shared<const CopyConcealmentSimilarity>()),
      matrix_(mb_cols, mb_rows) {}

void PbpairPolicy::reset() { matrix_.reset(); }

void PbpairPolicy::set_intra_th(double intra_th) {
  intra_th_q16_ = common::q16_from_double(intra_th);
}

void PbpairPolicy::set_plr(double plr) {
  alpha_q16_ = common::q16_from_double(plr);
}

bool PbpairPolicy::force_intra_pre_me(int frame_index, int mb_x, int mb_y) {
  (void)frame_index;
  // The paper's Fig. 4: σ^{k-1} < Intra_Th ⇒ intra, no motion estimation.
  return matrix_.at(mb_x, mb_y) < intra_th_q16_;
}

bool PbpairPolicy::has_me_penalty() const {
  return config_.use_me_penalty && config_.me_penalty_scale > 0;
}

common::Q16 PbpairPolicy::sigma_min(const codec::RefWindow& window) const {
  return matrix_.min_over_mbs(window.first_col, window.first_row,
                              window.last_col, window.last_row);
}

std::int64_t PbpairPolicy::me_penalty(const codec::RefWindow& window) const {
  // penalty(v) = λ · (1 − σ_min(reference window of v)).
  Q16 distrust = common::q16_complement(sigma_min(window));
  return (config_.me_penalty_scale * static_cast<std::int64_t>(distrust)) >>
         16;
}

void PbpairPolicy::on_frame_encoded(const codec::FrameEncodeInfo& info) {
  PB_CHECK(info.mb_records != nullptr && info.original != nullptr &&
           info.ops != nullptr);
  const Q16 alpha = alpha_q16_;
  const Q16 not_alpha = common::q16_complement(alpha);

  // C^k is computed from C^{k-1}; Formula (1)'s min() reads the OLD matrix,
  // so build the new values into a copy before swapping.
  CorrectnessMatrix next = matrix_;
  for (int my = 0; my < info.mb_rows; ++my) {
    for (int mx = 0; mx < info.mb_cols; ++mx) {
      const codec::MbEncodeRecord& record =
          (*info.mb_records)[static_cast<std::size_t>(my) * info.mb_cols + mx];
      const Q16 sigma_prev = matrix_.at(mx, my);
      const Q16 sim = similarity_->similarity_with_hint(
          *info.original, info.prev_original, mx, my, record.sad_zero,
          *info.ops);
      // α · sim · σ^{k-1}: the erroneous-transmission branch, weighted by
      // how well copy concealment would stand in for the lost data.
      const Q16 loss_term = common::q16_mul(alpha, common::q16_mul(sim, sigma_prev));

      Q16 clean_term;
      if (record.mode == codec::MbMode::kIntra) {
        // Formula (2): an intra MB arriving intact is correct by itself.
        clean_term = not_alpha;  // (1-α) · 1
      } else {
        // Formula (1): an inter/skip MB arriving intact is only as correct
        // as the region it predicts from (skip predicts from itself).
        const codec::MotionVector mv =
            record.mode == codec::MbMode::kInter ? record.mv
                                                 : codec::MotionVector{};
        const codec::RefWindow related =
            codec::ref_window(mx, my, mv, matrix_.cols(), matrix_.rows());
        clean_term = common::q16_mul(not_alpha, sigma_min(related));
      }
      next.set(mx, my, common::q16_add_sat(clean_term, loss_term));
    }
  }
  matrix_ = next;
}

}  // namespace pbpair::core
