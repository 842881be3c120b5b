// Sum-of-absolute-differences primitives, metered for the energy model.
#pragma once

#include <cstdint>

#include "energy/op_counters.h"
#include "video/frame.h"

namespace pbpair::codec {

/// SAD between the 16x16 luma block of `cur` at (cx, cy) and the block of
/// `ref` at (rx, ry). Both blocks must be fully inside their planes.
/// Meters 256 sad_pixel_ops and one sad_calls.
std::int64_t sad_16x16(const video::Plane& cur, int cx, int cy,
                       const video::Plane& ref, int rx, int ry,
                       energy::OpCounters& ops);

/// SAD with early termination: stops (returning a value >= `cutoff`) once
/// the partial sum exceeds `cutoff`. Meters only the pixels actually read,
/// one sad_calls, and one sad_early_exits if it stopped before row 16.
std::int64_t sad_16x16_cutoff(const video::Plane& cur, int cx, int cy,
                              const video::Plane& ref, int rx, int ry,
                              std::int64_t cutoff, energy::OpCounters& ops);

/// Deviation of the block from its own mean: SAD_self = sum |p - mean(p)|.
/// This is H.263 TMN's "A" value used in the intra/inter decision, and the
/// paper's SAD_self. Meters 256 sad_pixel_ops (plus the mean pass is folded
/// into the same cost).
std::int64_t sad_self_16x16(const video::Plane& cur, int cx, int cy,
                            energy::OpCounters& ops);

}  // namespace pbpair::codec
