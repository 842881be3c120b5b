#include "video/noise.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace pbpair::video {
namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int floor_div(int a, int b) { return a >= 0 ? a / b : -((-a + b - 1) / b); }

// Exact division by multiply-shift. For a divisor d >= 1 let
// m = ceil(2^40 / d) and e = m * d - 2^40, so 0 <= e <= d - 1. Then
//   n * m / 2^40 = n / d + n * e / (d * 2^40),
// and the extra term cannot carry floor(n / d) past the next integer while
// n * e < 2^40, which n * (d - 1) < 2^40 guarantees. fractal_row divides
// bilinear sums n <= 255 * cell^2 by d = cell^2, and octave sums
// n <= 255 * 63 by weight sums d <= 63. For cell <= kMaxRowCell = 255,
// 255 * cell^2 * (cell^2 - 1) < 2^40, and n * m < 2^24 * 2^40 fits in 64
// bits.
constexpr int kRecipShift = 40;

std::uint64_t reciprocal(int d) {
  return ((std::uint64_t{1} << kRecipShift) + static_cast<std::uint64_t>(d) -
          1) /
         static_cast<std::uint64_t>(d);
}

int divide(int n, std::uint64_t m) {
  return static_cast<int>((static_cast<std::uint64_t>(n) * m) >> kRecipShift);
}

}  // namespace

int ValueNoise::lattice(int ix, int iy) const {
  std::uint64_t h = seed_;
  h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ix))
                 << 32 |
                 static_cast<std::uint32_t>(iy)));
  return static_cast<int>(h & 0xFF);
}

int ValueNoise::sample(int x, int y, int cell) const {
  PB_DCHECK(cell >= 1);
  // Floor-divide into lattice cells (handle negatives correctly).
  int ix = x >= 0 ? x / cell : -((-x + cell - 1) / cell);
  int iy = y >= 0 ? y / cell : -((-y + cell - 1) / cell);
  int fx = x - ix * cell;  // in [0, cell)
  int fy = y - iy * cell;

  int v00 = lattice(ix, iy);
  int v10 = lattice(ix + 1, iy);
  int v01 = lattice(ix, iy + 1);
  int v11 = lattice(ix + 1, iy + 1);

  // Bilinear interpolation scaled by cell size; all integer.
  int top = v00 * (cell - fx) + v10 * fx;
  int bot = v01 * (cell - fx) + v11 * fx;
  int val = top * (cell - fy) + bot * fy;
  return val / (cell * cell);
}

int ValueNoise::fractal(int x, int y, int base_cell, int octaves) const {
  PB_CHECK(octaves >= 1 && octaves <= 6);
  int acc = 0;
  int weight_sum = 0;
  for (int o = 0; o < octaves; ++o) {
    int cell = base_cell >> o;
    if (cell < 1) break;
    int w = 1 << (octaves - 1 - o);
    acc += sample(x + o * 7919, y + o * 104729, cell) * w;
    weight_sum += w;
  }
  return weight_sum > 0 ? acc / weight_sum : 128;
}

void ValueNoise::fractal_row(int x0, int y, int n, int step, int base_cell,
                             int octaves, int* out) const {
  PB_CHECK(octaves >= 1 && octaves <= 6);
  PB_CHECK(base_cell >= 1 && base_cell <= kMaxRowCell);
  PB_CHECK(n >= 0 && step >= 1);
  if (n == 0) return;
  // One allocation holds the weighted octave sums (acc) and one octave's
  // per-column interpolation terms (base, slope). The last column is walked
  // to its end even past sample n - 1, so acc has room for the up to cell
  // samples of one more column; the column arrays fit the finest octave.
  const int min_cell = std::max(1, base_cell >> (octaves - 1));
  const int max_cols = (n - 1) * step / min_cell + 3;
  std::vector<int> scratch(static_cast<std::size_t>(n + base_cell) +
                           2 * static_cast<std::size_t>(max_cols));
  int* const acc = scratch.data();
  int* const base = acc + n + base_cell;
  int* const slope = base + max_cols;
  int weight_sum = 0;
  for (int o = 0; o < octaves; ++o) {
    const int cell = base_cell >> o;
    if (cell < 1) break;
    const int w = 1 << (octaves - 1 - o);
    weight_sum += w;
    const std::uint64_t recip = reciprocal(cell * cell);

    // sample()'s bilinear sum regrouped by lattice column:
    //   top * (cell - fy) + bot * fy
    //     = col(ix) * (cell - fx) + col(ix + 1) * fx
    //     = col(ix) * cell + (col(ix + 1) - col(ix)) * fx
    // with col(i) = v(i, iy) * (cell - fy) + v(i, iy + 1) * fy, which is
    // fixed along the row: each lattice corner is hashed once per row.
    const int wy = y + o * 104729;
    const int iy = floor_div(wy, cell);
    const int fy = wy - iy * cell;
    const int wx = x0 + o * 7919;
    const int ix0 = floor_div(wx, cell);
    int fx = wx - ix0 * cell;
    const int cols = ((n - 1) * step + fx) / cell + 2;
    int prev = 0;
    for (int j = 0; j < cols; ++j) {
      const int ix = ix0 + j;
      // A zero weight skips its hash: every row of a cell-1 octave.
      const int col = fy == 0 ? lattice(ix, iy) * cell
                              : lattice(ix, iy) * (cell - fy) +
                                    lattice(ix, iy + 1) * fy;
      if (j > 0) slope[j - 1] = col - prev;
      base[j] = col * cell;
      prev = col;
    }

    // Walk the row one lattice column at a time; within a column the sum
    // is linear in fx. When step > cell some columns hold no sample.
    for (int j = 0, k = 0; k < n; ++j, fx -= cell) {
      int num = base[j] + slope[j] * fx;
      const int dnum = slope[j] * step;
      for (; fx < cell; fx += step, num += dnum) {
        acc[k++] += divide(num, recip) * w;
      }
    }
  }
  const std::uint64_t recip = reciprocal(weight_sum);
  for (int k = 0; k < n; ++k) out[k] = divide(acc[k], recip);
}

}  // namespace pbpair::video
