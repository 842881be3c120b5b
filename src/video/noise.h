// Integer value-noise for procedural video content.
//
// The synthetic sequence generators need spatially-correlated texture with
// controllable detail so that the three workload classes (akiyo-like /
// foreman-like / garden-like) expose the same motion-activity ordering the
// paper's clips do. All arithmetic is integer: a hashed lattice of 8-bit
// values with bilinear interpolation, summed over octaves.
#pragma once

#include <cstdint>

namespace pbpair::video {

/// Deterministic 2-D value noise field. Same (seed, x, y) always yields the
/// same sample, on any platform.
class ValueNoise {
 public:
  explicit ValueNoise(std::uint64_t seed) : seed_(seed) {}

  /// Noise sample in [0, 255] at integer coordinates with the given lattice
  /// cell size (larger cell => smoother noise). cell must be >= 1.
  int sample(int x, int y, int cell) const;

  /// Multi-octave sample in [0, 255]: octave o uses cell >> o, weight >> o.
  /// octaves in [1, 6]. The per-sample reference for fractal_row().
  int fractal(int x, int y, int base_cell, int octaves) const;

  /// Largest base_cell fractal_row() accepts (see noise.cpp: the exact
  /// multiply-shift division holds for cell <= 255).
  static constexpr int kMaxRowCell = 255;

  /// Row form of fractal(): out[k] = fractal(x0 + k * step, y, base_cell,
  /// octaves) for k in [0, n), bit for bit. Walks each octave's lattice
  /// cells left to right, so each lattice corner is hashed once per row
  /// rather than once per sample. step >= 1; base_cell in
  /// [1, kMaxRowCell].
  void fractal_row(int x0, int y, int n, int step, int base_cell,
                   int octaves, int* out) const;

 private:
  /// Hash of one lattice point to [0, 255].
  int lattice(int ix, int iy) const;

  std::uint64_t seed_;
};

}  // namespace pbpair::video
