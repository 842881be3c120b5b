// Image-quality metrics from the paper's evaluation (§4.4).
//
// The paper uses two metrics: average luma PSNR, and the "number of bad
// pixels" — pixels whose reconstructed value differs from the original by
// more than a perceptual threshold (bad pixels arise from network errors or
// from inter-frame dependency on damaged MBs). The paper argues bad-pixel
// count is the better resiliency metric because PSNR depends on *how wrong*
// the bad pixels are, not how many there are.
#pragma once

#include <cstdint>

#include "video/frame.h"

namespace pbpair::video {

/// |a - b| difference threshold above which a pixel counts as "bad".
/// The paper does not publish its threshold; 20 is in the range where a
/// difference is clearly visible on an 8-bit display.
inline constexpr int kDefaultBadPixelThreshold = 20;

/// Sum of squared luma differences.
std::uint64_t sse_luma(const YuvFrame& a, const YuvFrame& b);

/// Mean squared error over the luma plane.
double mse_luma(const YuvFrame& a, const YuvFrame& b);

/// Luma PSNR in dB. Identical frames return `cap_db` (default 99 dB)
/// rather than infinity so averages stay finite.
double psnr_luma(const YuvFrame& a, const YuvFrame& b, double cap_db = 99.0);

/// psnr_luma() of a width x height luma plane whose SSE is already known
/// (codec/mb_error.h computes it per MB). The same arithmetic, bit for bit.
double psnr_from_sse(std::uint64_t sse, int width, int height,
                     double cap_db = 99.0);

/// Number of luma pixels differing by more than `threshold`.
std::uint64_t bad_pixel_count(const YuvFrame& a, const YuvFrame& b,
                              int threshold = kDefaultBadPixelThreshold);

/// Mean luma SSIM over non-overlapping 8x8 windows (uniform window — the
/// classic Gaussian-window variant differs by a few percent; this one is
/// cheap enough for per-frame use, which is what the paper's future-work
/// section asks of a quality metric). Returns a value in [-1, 1]; 1 means
/// identical.
double ssim_luma(const YuvFrame& a, const YuvFrame& b);

}  // namespace pbpair::video
