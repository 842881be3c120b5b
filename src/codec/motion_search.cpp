#include "codec/motion_search.h"

#include "codec/kernels/kernels.h"
#include "codec/mc.h"
#include "codec/sad.h"
#include "common/check.h"
#include "common/math_util.h"

namespace pbpair::codec {
namespace {

struct SearchContext {
  const video::Plane& cur;
  const video::Plane& ref;
  int px;  // MB top-left in pixels
  int py;
  // Valid FULL-PEL vector bounds, in pixels.
  int min_dx, max_dx, min_dy, max_dy;
  WindowPenalties* penalties;
  energy::OpCounters* ops;

  bool in_bounds_pixels(int dx, int dy) const {
    return dx >= min_dx && dx <= max_dx && dy >= min_dy && dy <= max_dy;
  }

  /// Evaluates one FULL-PEL candidate (dx, dy in pixels); returns its cost.
  /// Sequential path, used when the active backend has no genuine batched
  /// SAD kernel (bit-identical to the batched scorer either way).
  std::int64_t evaluate(int dx, int dy, std::int64_t best_cost,
                        std::int64_t* out_sad) const {
    std::int64_t pen = penalties->of(MotionVector::from_pixels(dx, dy));
    // Early-out cutoff: the SAD alone only needs to reach best_cost - pen.
    std::int64_t cutoff = best_cost - pen;
    if (cutoff <= 0) {
      // Penalty already disqualifies the candidate; spend no SAD work.
      *out_sad = 0;
      return best_cost;  // "not better" sentinel
    }
    std::int64_t sad = sad_16x16_cutoff(cur, px, py, ref, px + dx, py + dy,
                                        cutoff, *ops);
    *out_sad = sad;
    return sad + pen;
  }
};

// Batching trades the per-candidate early exit for multi-candidate vector
// throughput; that only pays when the table brings a real vector kernel.
// The scalar table's batched slot is just eight sequential full SADs, which
// would turn the early-exit-heavy search into strictly more work.
bool use_batched_sads() {
  return kernels::active().origin_of(kernels::KernelId::kSad16x16X4) !=
         kernels::Backend::kScalar;
}

// Scores full-pel candidates through the batched SAD kernels while
// reproducing the sequential scalar search bit for bit.
//
// Candidates are staged in scalar evaluation order and scored eight (or
// four) at a time with the multi-candidate kernels, which compute full
// 16-row SADs with no early exit. The staged batch is then REPLAYED in
// order against the evolving best cost:
//
//   - cutoff <= 0: the penalty alone disqualifies the candidate; the scalar
//     path spent no SAD work and touched no counters, so neither does the
//     replay (the batch's wasted rows are wall-clock only — the energy
//     model meters algorithmic work, not the machine's).
//   - batched SAD < cutoff: the scalar cutoff loop would have completed all
//     16 rows (partial sums are monotonically nondecreasing, so they cannot
//     reach the cutoff before the total does) and returned this exact
//     value. Metering is the full 256 pixels and one sad_calls count.
//   - batched SAD >= cutoff: the scalar loop early-exited on some row with
//     some partial sum, and both the row count (energy) and the exit
//     (sad_early_exits) are part of the contract. The replay re-runs the
//     metered cutoff wrapper, which terminates on the same row the scalar
//     search did.
//
// Penalties are evaluated during the replay, after earlier candidates have
// updated best.cost — identical to the scalar candidate loop. Batches may
// span row boundaries of a full search; only the staging order matters.
class BatchScorer {
 public:
  BatchScorer(const SearchContext& ctx, MotionResult& best)
      : ctx_(ctx), best_(best) {}

  /// Stages one in-bounds full-pel candidate (scalar evaluation order).
  void add(int dx, int dy) {
    dx_[n_] = dx;
    dy_[n_] = dy;
    refs_[n_] = ctx_.ref.row(ctx_.py + dy) + ctx_.px + dx;
    if (++n_ == 8) replay();
  }

  /// Scores any staged remainder; returns whether any candidate staged
  /// since the last finish() improved the best cost.
  bool finish() {
    replay();
    const bool improved = improved_;
    improved_ = false;
    return improved;
  }

 private:
  void replay() {
    if (n_ == 0) return;
    const kernels::KernelTable& kt = kernels::active();
    const std::uint8_t* cur = ctx_.cur.row(ctx_.py) + ctx_.px;
    const int cur_stride = ctx_.cur.width();
    const int ref_stride = ctx_.ref.width();
    std::int64_t sads[8];
    if (n_ == 8) {
      kt.sad_16x16_x8(cur, cur_stride, refs_, ref_stride, sads);
    } else if (n_ >= 4) {
      kt.sad_16x16_x4(cur, cur_stride, refs_, ref_stride, sads);
      for (int i = 4; i < n_; ++i) {
        sads[i] = kt.sad_16x16(cur, cur_stride, refs_[i], ref_stride);
      }
    } else {
      for (int i = 0; i < n_; ++i) {
        sads[i] = kt.sad_16x16(cur, cur_stride, refs_[i], ref_stride);
      }
    }

    for (int i = 0; i < n_; ++i) {
      const MotionVector mv = MotionVector::from_pixels(dx_[i], dy_[i]);
      const std::int64_t pen = ctx_.penalties->of(mv);
      const std::int64_t cutoff = best_.cost - pen;
      ++best_.candidates;
      if (cutoff <= 0) continue;
      std::int64_t sad;
      if (sads[i] < cutoff) {
        sad = sads[i];
        ctx_.ops->sad_pixel_ops += 256;
        ctx_.ops->sad_calls += 1;
      } else {
        sad = sad_16x16_cutoff(ctx_.cur, ctx_.px, ctx_.py, ctx_.ref,
                               ctx_.px + dx_[i], ctx_.py + dy_[i], cutoff,
                               *ctx_.ops);
      }
      const std::int64_t cost = sad + pen;
      if (cost < best_.cost) {
        best_.cost = cost;
        best_.sad = sad;
        best_.mv = mv;
        improved_ = true;
      }
    }
    n_ = 0;
  }

  const SearchContext& ctx_;
  MotionResult& best_;
  int n_ = 0;
  bool improved_ = false;
  int dx_[8];
  int dy_[8];
  const std::uint8_t* refs_[8];
};

void full_search(const SearchContext& ctx, MotionResult& best) {
  if (!use_batched_sads()) {
    for (int dy = ctx.min_dy; dy <= ctx.max_dy; ++dy) {
      for (int dx = ctx.min_dx; dx <= ctx.max_dx; ++dx) {
        if (dx == 0 && dy == 0) continue;  // seeded before dispatch
        std::int64_t sad = 0;
        std::int64_t cost = ctx.evaluate(dx, dy, best.cost, &sad);
        ++best.candidates;
        if (cost < best.cost) {
          best.cost = cost;
          best.sad = sad;
          best.mv = MotionVector::from_pixels(dx, dy);
        }
      }
    }
    return;
  }
  BatchScorer batch(ctx, best);
  for (int dy = ctx.min_dy; dy <= ctx.max_dy; ++dy) {
    for (int dx = ctx.min_dx; dx <= ctx.max_dx; ++dx) {
      if (dx == 0 && dy == 0) continue;  // seeded before dispatch
      batch.add(dx, dy);
    }
  }
  batch.finish();
}

void diamond_search(const SearchContext& ctx, MotionResult& best) {
  // Large diamond search pattern descent, then small diamond refinement,
  // all in full-pel steps. The scalar loop computed the diamond center
  // before trying its 8 neighbors, so each iteration's candidate set is
  // fixed up front — exactly the shape the batched scorer needs.
  struct Step {
    int dx, dy;
  };
  static constexpr Step kLarge[] = {{0, -2}, {-1, -1}, {1, -1}, {-2, 0},
                                    {2, 0},  {-1, 1},  {1, 1},  {0, 2}};
  static constexpr Step kSmall[] = {{0, -1}, {-1, 0}, {1, 0}, {0, 1}};

  if (!use_batched_sads()) {
    auto try_pixels = [&](int dx, int dy) {
      if (!ctx.in_bounds_pixels(dx, dy)) return false;
      std::int64_t sad = 0;
      std::int64_t cost = ctx.evaluate(dx, dy, best.cost, &sad);
      ++best.candidates;
      if (cost < best.cost) {
        best.cost = cost;
        best.sad = sad;
        best.mv = MotionVector::from_pixels(dx, dy);
        return true;
      }
      return false;
    };
    bool improved = true;
    int iterations = 0;
    while (improved && iterations < 64) {
      improved = false;
      int cx = halfpel_floor(best.mv.x);
      int cy = halfpel_floor(best.mv.y);
      for (Step step : kLarge) improved |= try_pixels(cx + step.dx, cy + step.dy);
      ++iterations;
    }
    int cx = halfpel_floor(best.mv.x);
    int cy = halfpel_floor(best.mv.y);
    for (Step step : kSmall) try_pixels(cx + step.dx, cy + step.dy);
    return;
  }

  BatchScorer batch(ctx, best);
  bool improved = true;
  int iterations = 0;
  while (improved && iterations < 64) {
    int cx = halfpel_floor(best.mv.x);
    int cy = halfpel_floor(best.mv.y);
    for (Step step : kLarge) {
      // Out-of-bounds neighbors are dropped before the candidate counter,
      // exactly like the scalar try_pixels guard.
      if (ctx.in_bounds_pixels(cx + step.dx, cy + step.dy)) {
        batch.add(cx + step.dx, cy + step.dy);
      }
    }
    improved = batch.finish();
    ++iterations;
  }
  int cx = halfpel_floor(best.mv.x);
  int cy = halfpel_floor(best.mv.y);
  for (Step step : kSmall) {
    if (ctx.in_bounds_pixels(cx + step.dx, cy + step.dy)) {
      batch.add(cx + step.dx, cy + step.dy);
    }
  }
  batch.finish();
}

void halfpel_refine(const SearchContext& ctx, MotionResult& best) {
  // The 8 half-pel neighbors of the full-pel winner (TMN refinement).
  const MotionVector center = best.mv;
  for (int dy2 = -1; dy2 <= 1; ++dy2) {
    for (int dx2 = -1; dx2 <= 1; ++dx2) {
      if (dx2 == 0 && dy2 == 0) continue;
      MotionVector mv{center.x + dx2, center.y + dy2};
      // Keep the *floor* position inside the full-pel bounds so the
      // interpolation only ever clamps on its +1 edge reads.
      if (!ctx.in_bounds_pixels(halfpel_floor(mv.x), halfpel_floor(mv.y))) {
        continue;
      }
      std::int64_t pen = ctx.penalties->of(mv);
      std::int64_t cutoff = best.cost - pen;
      if (cutoff <= 0) {
        ++best.candidates;
        continue;
      }
      std::int64_t sad = sad_16x16_halfpel(ctx.cur, ctx.px, ctx.py, ctx.ref,
                                           ctx.px * 2 + mv.x,
                                           ctx.py * 2 + mv.y, cutoff,
                                           *ctx.ops);
      ++best.candidates;
      if (sad + pen < best.cost) {
        best.cost = sad + pen;
        best.sad = sad;
        best.mv = mv;
      }
    }
  }
}

// Window-axis classes. Along one axis, a candidate's window is
// [clamp(mb + a), clamp(mb + b)] with a = floor(f / 16) in [−2, 1] and
// b in [−1, 2] (f the component's floor in pixels, within ±31), clamped to
// the grid. The clamps depend on the MB only through its distance to each
// grid edge, capped at 2. So one compile-time table, indexed by those two
// capped distances and the half-pel component, serves every MB, grid and
// range, and no search or encoder builds anything per MB.
struct AxisClassTable {
  static constexpr int kOrigin = 64;  // components in [−62, 63]
  std::uint8_t cls[3][3][2 * kOrigin] = {};
};

constexpr AxisClassTable make_axis_class_table() {
  AxisClassTable table;
  for (int left = 0; left <= 2; ++left) {
    for (int right = 0; right <= 2; ++right) {
      // A one-row grid with `left` MBs before the MB and `right` after it.
      for (int v = -2 * 31; v <= 2 * 31 + 1; ++v) {
        const RefWindow w = ref_window(left, 0, {v, 0}, left + right + 1, 1);
        table.cls[left][right][v + AxisClassTable::kOrigin] =
            static_cast<std::uint8_t>((w.first_col - left + 2) * 2 +
                                      (w.last_col - w.first_col));
      }
    }
  }
  return table;
}

constexpr AxisClassTable kAxisClassTable = make_axis_class_table();

// Classes of the MB at index `mb` of an axis `count` MBs long, indexed by
// the half-pel component.
const std::uint8_t* axis_classes(int mb, int count) {
  const int left = mb < 2 ? mb : 2;
  const int right = count - 1 - mb < 2 ? count - 1 - mb : 2;
  return kAxisClassTable.cls[left][right] + AxisClassTable::kOrigin;
}

}  // namespace

WindowPenalties::WindowPenalties(const MePenaltyFn& penalty, int mb_x, int mb_y,
                                 int mb_cols, int mb_rows, int range)
    : penalty_(penalty),
      enabled_(static_cast<bool>(penalty)),
      mb_x_(mb_x),
      mb_y_(mb_y),
      range_(range) {
  PB_CHECK(range >= 0 && range <= 31);
  if (!enabled_) return;
  axis_x_ = axis_classes(mb_x, mb_cols);
  axis_y_ = axis_classes(mb_y, mb_rows);
}

RefWindow WindowPenalties::window_of(int key) const {
  const int cx = key / kAxisClasses;
  const int cy = key % kAxisClasses;
  RefWindow w;
  w.first_col = mb_x_ + cx / 2 - 2;
  w.last_col = w.first_col + cx % 2;
  w.first_row = mb_y_ + cy / 2 - 2;
  w.last_row = w.first_row + cy % 2;
  return w;
}

MotionResult search_motion(const video::Plane& cur, const video::Plane& ref,
                           int mb_x, int mb_y, const MotionSearchConfig& config,
                           const MePenaltyFn& penalty,
                           energy::OpCounters& ops) {
  PB_CHECK(cur.same_size(ref));
  PB_CHECK(config.range >= 0 && config.range <= 31);
  const int px = mb_x * kMbSize;
  const int py = mb_y * kMbSize;
  PB_CHECK(px + kMbSize <= cur.width() && py + kMbSize <= cur.height());

  WindowPenalties penalties(penalty, mb_x, mb_y, ref.width() / kMbSize,
                            ref.height() / kMbSize, config.range);
  SearchContext ctx{
      cur,
      ref,
      px,
      py,
      common::clamp(-config.range, -px, 0),
      common::clamp(config.range, 0, ref.width() - kMbSize - px),
      common::clamp(-config.range, -py, 0),
      common::clamp(config.range, 0, ref.height() - kMbSize - py),
      &penalties,
      &ops,
  };

  ops.me_invocations += 1;

  // Seed with the exact zero-vector candidate: both strategies start here,
  // and its SAD doubles as the co-located similarity input (motion.h).
  MotionResult best;
  best.sad_zero = sad_16x16(cur, px, py, ref, px, py, ops);
  best.mv = MotionVector{0, 0};
  best.sad = best.sad_zero;
  best.cost = best.sad_zero - config.zero_mv_bias;
  if (best.cost < 0) best.cost = 0;
  best.cost += penalties.of(MotionVector{0, 0});
  best.candidates = 1;

  switch (config.strategy) {
    case SearchStrategy::kFullSearch:
      full_search(ctx, best);
      break;
    case SearchStrategy::kDiamondSearch:
      diamond_search(ctx, best);
      break;
  }
  if (config.half_pel) {
    halfpel_refine(ctx, best);
  }
  return best;
}

}  // namespace pbpair::codec
