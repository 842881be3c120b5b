// Host-speed probe for the frame-path benchmark.
//
// On a shared VM the vCPUs ran at two speeds about 1.7x apart, switching
// every few seconds, so two runs of the same code could differ by 25% in
// wall time. The benchmark therefore times a fixed unit of reference work
// between its timed segments and scales each segment to a nominal host
// speed: scaled time = wall time * kReferenceUnitSeconds / (probe time
// around the segment). The reference work lives here, in the benchmark,
// so no change to the library can move it; a change that slows the
// program still shows in full.
#pragma once

namespace framebench {

/// Wall time of one reference unit at nominal host speed.
inline constexpr double kReferenceUnitSeconds = 0.005;

/// Runs one reference unit on `threads` threads at once (each thread does
/// a full unit) and returns the median wall time of a unit, in seconds.
double probe_host(int threads);

/// kReferenceUnitSeconds / unit_s: multiply wall times measured while a
/// unit took `unit_s` by it (divide rates by it) to express them at
/// nominal host speed.
inline double speed_scale(double unit_s) {
  return kReferenceUnitSeconds / unit_s;
}

}  // namespace framebench
