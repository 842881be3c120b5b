// Per-MB luma error between two frames: the paper's two quality metrics
// (video/metrics.h) — SSE for PSNR, and the bad-pixel count — in one pass
// over the MB grid through the mb_error_16x16 kernel.
#pragma once

#include <cstdint>
#include <vector>

#include "codec/kernels/kernels.h"
#include "video/frame.h"

namespace pbpair::codec {

/// One MB's luma SSE and bad-pixel count.
using MbError = kernels::BlockError;

/// Frame totals of luma_mb_errors().
struct FrameError {
  std::uint64_t sse = 0;
  std::uint64_t bad_pixels = 0;
};

/// Luma error of every MB of `a` against `b` (same size), written to
/// `per_mb` in raster order and summed into the returned totals, which
/// equal video::sse_luma() and video::bad_pixel_count(a, b, threshold).
/// `per_mb` is resized to the MB count, so a buffer reused across frames
/// of one size is never reallocated. Measurement is not codec work: no
/// OpCounters are metered.
FrameError luma_mb_errors(const video::YuvFrame& a, const video::YuvFrame& b,
                          int threshold, std::vector<MbError>* per_mb);

}  // namespace pbpair::codec
