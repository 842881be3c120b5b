#include "core/correctness_matrix.h"

#include <algorithm>

#include "common/math_util.h"

namespace pbpair::core {

common::Q16 CorrectnessMatrix::min_over_region(int px, int py, int w,
                                               int h) const {
  // The region [px, px+w) x [py, py+h) overlaps between one and four MBs
  // (a 16- or 17-px span touches at most two MBs per axis).
  return min_over_mbs(px / 16, py / 16, (px + w - 1) / 16, (py + h - 1) / 16);
}

common::Q16 CorrectnessMatrix::min_over_mbs(int first_col, int first_row,
                                            int last_col, int last_row) const {
  // Clamp to the frame so border vectors behave.
  first_col = common::clamp(first_col, 0, cols_ - 1);
  first_row = common::clamp(first_row, 0, rows_ - 1);
  last_col = common::clamp(last_col, 0, cols_ - 1);
  last_row = common::clamp(last_row, 0, rows_ - 1);
  common::Q16 min_sigma = common::kQ16One;
  for (int row = first_row; row <= last_row; ++row) {
    for (int col = first_col; col <= last_col; ++col) {
      min_sigma = std::min(min_sigma, at(col, row));
    }
  }
  return min_sigma;
}

void CorrectnessMatrix::reset() {
  std::fill(sigma_.begin(), sigma_.end(), common::kQ16One);
}

double CorrectnessMatrix::average() const {
  double sum = 0.0;
  for (common::Q16 s : sigma_) sum += common::q16_to_double(s);
  return sum / static_cast<double>(sigma_.size());
}

int CorrectnessMatrix::count_below(common::Q16 threshold) const {
  int count = 0;
  for (common::Q16 s : sigma_) {
    if (s < threshold) ++count;
  }
  return count;
}

}  // namespace pbpair::core
