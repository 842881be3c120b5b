// Motion vector types shared by the search, encoder, decoder, and the
// PBPAIR probability machinery.
#pragma once

#include <cstdint>

#include "common/math_util.h"

namespace pbpair::codec {

inline constexpr int kMbSize = 16;

/// Motion vector in HALF-PEL units (H.263's resolution): x == 2 means one
/// full luma pixel to the right, x == 1 means half a pixel. Integer-pel
/// search produces even components; the half-pel refinement step adds the
/// odd ones.
struct MotionVector {
  int x = 0;
  int y = 0;

  bool operator==(const MotionVector&) const = default;
  bool is_zero() const { return x == 0 && y == 0; }
  bool is_half_pel() const { return (x & 1) != 0 || (y & 1) != 0; }

  /// Full-pel vector from pixel displacement.
  static MotionVector from_pixels(int px, int py) {
    return MotionVector{px * 2, py * 2};
  }
};

/// Floor of a half-pel component in pixels (works for negatives).
constexpr int halfpel_floor(int v) { return v >> 1; }

/// Width in pixels of the reference span a half-pel component touches:
/// 16 for full-pel, 17 when interpolation reads one extra column/row.
constexpr int halfpel_span(int v) { return 16 + ((v & 1) != 0 ? 1 : 0); }

/// The reference window of a motion candidate: the MB-aligned rectangle
/// [first_col..last_col] x [first_row..last_row] (MB units) that its 16-px
/// (full-pel) or 17-px (half-pel) reference block overlaps. These are the
/// "related MBs" of PBPAIR's Formula (1), and the region whose distrust its
/// ME penalty charges.
struct RefWindow {
  int first_col = 0;
  int first_row = 0;
  int last_col = 0;
  int last_row = 0;

  bool operator==(const RefWindow&) const = default;
};

/// Reference window of candidate `mv` (half-pel) for the MB at (mb_x, mb_y)
/// (MB units), clamped to an mb_cols x mb_rows grid: a 17-px span at the
/// right or bottom edge reads an edge-clamped pixel of the last MB.
constexpr RefWindow ref_window(int mb_x, int mb_y, MotionVector mv,
                               int mb_cols, int mb_rows) {
  const int px = mb_x * kMbSize + halfpel_floor(mv.x);
  const int py = mb_y * kMbSize + halfpel_floor(mv.y);
  RefWindow w;
  w.first_col = common::clamp(px / kMbSize, 0, mb_cols - 1);
  w.first_row = common::clamp(py / kMbSize, 0, mb_rows - 1);
  w.last_col = common::clamp((px + halfpel_span(mv.x) - 1) / kMbSize, 0,
                             mb_cols - 1);
  w.last_row = common::clamp((py + halfpel_span(mv.y) - 1) / kMbSize, 0,
                             mb_rows - 1);
  return w;
}

/// Result of one block motion search.
struct MotionResult {
  MotionVector mv{};
  std::int64_t sad = 0;        // plain SAD of the chosen candidate
  std::int64_t cost = 0;       // SAD + policy penalty of the chosen candidate
  std::uint64_t candidates = 0;  // candidates evaluated (for energy metering)
  /// Exact SAD of the (0,0) candidate — the co-located block. Always
  /// evaluated first; PBPAIR reuses it as the similarity-factor input so
  /// the probability update costs no extra SAD work for searched MBs.
  std::int64_t sad_zero = -1;
};

}  // namespace pbpair::codec
