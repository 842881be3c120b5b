// The probability-of-correctness matrix C^k (paper §3.1).
//
// One Q16 probability σ_{i,j} per macroblock, modeling how likely the
// decoder's copy of that MB is correct given the packet-loss rate and the
// prediction structure used so far. For QCIF this is the paper's 9x11
// matrix; the implementation is sized from the frame geometry. Everything
// is fixed-point (Q16) — see common/fixed.h.
#pragma once

#include <vector>

#include "common/check.h"
#include "common/fixed.h"

namespace pbpair::core {

class CorrectnessMatrix {
 public:
  CorrectnessMatrix(int mb_cols, int mb_rows)
      : cols_(mb_cols),
        rows_(mb_rows),
        sigma_(static_cast<std::size_t>(mb_cols) * mb_rows,
               common::kQ16One) {
    PB_CHECK(mb_cols > 0 && mb_rows > 0);
  }

  int cols() const { return cols_; }
  int rows() const { return rows_; }

  common::Q16 at(int mb_x, int mb_y) const {
    PB_DCHECK(mb_x >= 0 && mb_x < cols_ && mb_y >= 0 && mb_y < rows_);
    return sigma_[static_cast<std::size_t>(mb_y) * cols_ + mb_x];
  }
  void set(int mb_x, int mb_y, common::Q16 value) {
    PB_DCHECK(mb_x >= 0 && mb_x < cols_ && mb_y >= 0 && mb_y < rows_);
    PB_DCHECK(value <= common::kQ16One);
    sigma_[static_cast<std::size_t>(mb_y) * cols_ + mb_x] = value;
  }

  /// min(σ of related MBs): minimum σ over the macroblocks overlapped by
  /// the w x h luma region whose top-left corner is at pixel (px, py)
  /// (17-wide/tall for half-pel vectors, whose interpolation reads one
  /// extra row/column). This is the "related MBs" term of Formula (1) — a
  /// motion-compensated prediction is only as trustworthy as the least
  /// trustworthy MB it touches.
  common::Q16 min_over_region(int px, int py, int w = 16, int h = 16) const;

  /// Minimum σ over the MBs [first_col..last_col] x [first_row..last_row],
  /// each bound clamped to the matrix (min_over_region's clamping).
  common::Q16 min_over_mbs(int first_col, int first_row, int last_col,
                           int last_row) const;

  /// Resets every entry to 1.0 ("start from an error-free image frame").
  void reset();

  /// Average probability over all MBs (resiliency telemetry, in [0,1]).
  double average() const;

  /// Number of MBs with σ below `threshold`.
  int count_below(common::Q16 threshold) const;

 private:
  int cols_;
  int rows_;
  std::vector<common::Q16> sigma_;
};

}  // namespace pbpair::core
