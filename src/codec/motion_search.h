// Block motion search with a pluggable candidate cost.
//
// The cost of candidate v is SAD(v) + penalty(window(v)), where window(v)
// is the MB-aligned reference window v predicts from (codec/motion.h) and
// the penalty hook is how PBPAIR injects its probability-of-correctness
// term (§3.1.2 / Fig. 3): a candidate pointing into likely-damaged
// reference area gets penalized even if its SAD is the lowest. Baseline
// schemes use a zero penalty. The hook runs once per distinct window of
// an MB, never once per candidate (see WindowPenalties).
//
// The search runs in two stages, like the TMN reference encoder:
//  1. full-pel stage, either:
//     - kFullSearch: exhaustive over the +/-range pixel window (the
//       reference H.263 encoder's default; expensive, energy-hungry), or
//     - kDiamondSearch: large/small diamond descent (embedded-realistic);
//  2. optional half-pel refinement (config.half_pel): the 8 interpolated
//     neighbors of the full-pel winner.
// Vectors are in half-pel units (codec/motion.h). Full-pel candidates are
// restricted so the reference block stays inside the frame; half-pel
// interpolation edge-clamps (codec/mc.h).
#pragma once

#include <cstdint>
#include <functional>

#include "codec/motion.h"
#include "codec/sad.h"
#include "common/check.h"
#include "energy/op_counters.h"
#include "video/frame.h"

namespace pbpair::codec {

enum class SearchStrategy {
  kFullSearch,
  kDiamondSearch,
};

struct MotionSearchConfig {
  SearchStrategy strategy = SearchStrategy::kDiamondSearch;
  int range = 15;        // max |mv| component in PIXELS
  bool half_pel = true;  // H.263 half-pel refinement stage
  /// Cost advantage of the (0,0) candidate (TMN's value is 100): without
  /// it, half-pel interpolation's noise-smoothing makes tiny nonzero
  /// vectors beat the zero vector on static content, destroying skip mode.
  std::int64_t zero_mv_bias = 100;
};

/// Extra cost (same scale as SAD) for predicting from the reference window
/// `window` (MB units, clamped to the frame; codec/motion.h). PBPAIR's
/// penalty (Formula 1's "related MBs") depends on the window alone:
/// λ·(1 − σ_min over the MBs in it). Every candidate whose reference block
/// overlaps the same window is charged the same value, and the search asks
/// for it once per window.
using MePenaltyFn = std::function<std::int64_t(const RefWindow& window)>;

/// A per-MB memo of a MePenaltyFn, keyed by reference window: the search
/// charges each candidate the penalty of its window and calls the hook on
/// a window's first use only. A ±15 search (full- and half-pel) covers at
/// most 9 windows, ±31 at most 49.
class WindowPenalties {
 public:
  /// `penalty` may be empty (zero penalty) and must outlive this table.
  /// (mb_x, mb_y) is the searched MB, mb_cols x mb_rows the reference's MB
  /// grid, and `range` the search range in pixels (at most 31).
  WindowPenalties(const MePenaltyFn& penalty, int mb_x, int mb_y, int mb_cols,
                  int mb_rows, int range);

  /// Penalty of candidate `mv` (half-pel; each component's floor within
  /// ±range pixels).
  std::int64_t of(MotionVector mv) {
    if (!enabled_) return 0;
    PB_DCHECK(mv.x >= -2 * range_ && mv.x <= 2 * range_ + 1 &&
              mv.y >= -2 * range_ && mv.y <= 2 * range_ + 1);
    const int key = axis_x_[mv.x] * kAxisClasses + axis_y_[mv.y];
    if (!filled_[key]) {
      value_[key] = penalty_(window_of(key));
      filled_[key] = true;
    }
    return value_[key];
  }

 private:
  // One axis of a window is (first − mb, last − first): first − mb lies in
  // [−2, 1] and last − first in {0, 1} for floors within ±31 px.
  static constexpr int kAxisClasses = 8;

  RefWindow window_of(int key) const;

  const MePenaltyFn& penalty_;
  bool enabled_;
  int mb_x_;
  int mb_y_;
  int range_;
  // Axis classes of this MB's column and row, indexed by the half-pel
  // component itself (motion_search.cpp).
  const std::uint8_t* axis_x_ = nullptr;
  const std::uint8_t* axis_y_ = nullptr;
  bool filled_[kAxisClasses * kAxisClasses] = {};
  std::int64_t value_[kAxisClasses * kAxisClasses];
};

/// Searches for the best-cost vector for the MB at (mb_x, mb_y) (MB units)
/// of `cur` against reference `ref`. `penalty` may be null (zero penalty).
/// Meters SAD work (pixel ops, calls, early exits) and the search
/// invocation into `ops`.
MotionResult search_motion(const video::Plane& cur, const video::Plane& ref,
                           int mb_x, int mb_y, const MotionSearchConfig& config,
                           const MePenaltyFn& penalty,
                           energy::OpCounters& ops);

}  // namespace pbpair::codec
