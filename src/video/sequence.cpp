#include "video/sequence.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "video/noise.h"

namespace pbpair::video {
namespace {

// Quarter-wave integer sine table: kSinTable[i] = round(256*sin(pi/2*i/64)).
constexpr int kSinTable[65] = {
    0,   6,   13,  19,  25,  31,  38,  44,  50,  56,  62,  69,  75,
    81,  87,  93,  98,  104, 109, 115, 121, 126, 132, 137, 142, 147,
    152, 158, 162, 167, 172, 177, 181, 185, 190, 194, 198, 202, 206,
    209, 213, 216, 220, 223, 226, 229, 231, 234, 236, 239, 241, 243,
    245, 247, 248, 250, 251, 252, 253, 254, 255, 255, 256, 256, 256};

// 256-step sine, returns sin(2*pi*t/period) scaled to [-256, 256].
int sin_q8(int t, int period) {
  if (period <= 0) return 0;
  // Map t into [0, 256) phase units. Callers pass t >= 0.
  long long phase256 = (static_cast<long long>(t % period) * 256) / period;
  int p = static_cast<int>(phase256 & 255);
  int quadrant = p >> 6;   // 0..3
  int idx = p & 63;        // 0..63
  switch (quadrant) {
    case 0: return kSinTable[idx];
    case 1: return kSinTable[64 - idx];
    case 2: return -kSinTable[idx];
    default: return -kSinTable[64 - idx];
  }
}

std::uint64_t hash2(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  common::SplitMix64 mixer(seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                           (b * 0xC2B2AE3D27D4EB4FULL));
  return mixer.next();
}

// Frame pixel bytes held by every FrameCache together, including budget
// claimed by a frame that is about to be published.
std::atomic<std::size_t> g_cached_bytes{0};

// Claims `bytes` of kFrameCacheBudgetBytes; false if they do not fit.
bool claim_budget(std::size_t bytes) {
  std::size_t used = g_cached_bytes.load(std::memory_order_relaxed);
  do {
    if (used + bytes > kFrameCacheBudgetBytes) return false;
  } while (!g_cached_bytes.compare_exchange_weak(used, used + bytes,
                                                 std::memory_order_relaxed));
  return true;
}

}  // namespace

// One clip: its key (kind, width, height, seed) and the cached frames,
// shared by every sequence with that key (DESIGN.md §2). Clips are interned
// for the process and never freed, and each slot goes from null to a frame
// at most once, so a published frame stays valid while readers copy it out
// without a lock.
struct SyntheticSequence::FrameCache {
  FrameCache(SequenceKind kind_in, int width_in, int height_in,
             std::uint64_t seed_in)
      : kind(kind_in),
        width(width_in),
        height(height_in),
        seed(seed_in),
        frame_bytes(static_cast<std::size_t>(width) * height * 3 / 2),
        slot_count(kFrameCacheBudgetBytes / frame_bytes),
        slots(new std::atomic<const YuvFrame*>[slot_count]()) {}
  ~FrameCache() {
    for (std::size_t i = 0; i < slot_count; ++i) delete slots[i].load();
  }

  static FrameCache* intern(SequenceKind kind, int width, int height,
                            std::uint64_t seed) {
    using Key = std::tuple<SequenceKind, int, int, std::uint64_t>;
    static std::mutex mutex;
    static auto* caches =  // never destroyed
        new std::map<Key, std::unique_ptr<FrameCache>>();
    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<FrameCache>& cache =
        (*caches)[{kind, width, height, seed}];
    if (cache == nullptr) {
      cache = std::make_unique<FrameCache>(kind, width, height, seed);
    }
    return cache.get();
  }

  const SequenceKind kind;
  const int width;
  const int height;
  const std::uint64_t seed;
  const std::size_t frame_bytes;
  // No clip can cache more frames than the whole budget holds.
  const std::size_t slot_count;
  const std::unique_ptr<std::atomic<const YuvFrame*>[]> slots;
  std::atomic<int> frames{0};
};

const char* sequence_kind_name(SequenceKind kind) {
  switch (kind) {
    case SequenceKind::kAkiyoLike: return "akiyo";
    case SequenceKind::kForemanLike: return "foreman";
    case SequenceKind::kGardenLike: return "garden";
  }
  return "unknown";
}

SyntheticSequence::SyntheticSequence(SequenceKind kind, int width, int height,
                                     std::uint64_t seed) {
  PB_CHECK(width > 0 && height > 0 && width % 16 == 0 && height % 16 == 0);
  cache_ = FrameCache::intern(kind, width, height, seed);
}

int SyntheticSequence::width() const { return cache_->width; }
int SyntheticSequence::height() const { return cache_->height; }
SequenceKind SyntheticSequence::kind() const { return cache_->kind; }

YuvFrame SyntheticSequence::frame_at(int index) const {
  PB_CHECK(index >= 0);
  if (static_cast<std::size_t>(index) >= cache_->slot_count) {
    return render(index);
  }
  std::atomic<const YuvFrame*>& slot = cache_->slots[index];
  if (const YuvFrame* cached = slot.load(std::memory_order_acquire)) {
    return *cached;
  }
  YuvFrame frame = render(index);
  if (slot.load(std::memory_order_relaxed) == nullptr &&
      claim_budget(cache_->frame_bytes)) {
    auto owned = std::make_unique<YuvFrame>(frame);
    const YuvFrame* empty = nullptr;
    if (slot.compare_exchange_strong(empty, owned.get(),
                                     std::memory_order_release,
                                     std::memory_order_relaxed)) {
      owned.release();
      cache_->frames.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Another thread published first; its frame is byte-identical.
      g_cached_bytes.fetch_sub(cache_->frame_bytes,
                               std::memory_order_relaxed);
    }
  }
  return frame;
}

int SyntheticSequence::cached_frames() const {
  return cache_->frames.load(std::memory_order_relaxed);
}

std::size_t SyntheticSequence::cached_bytes() {
  return g_cached_bytes.load(std::memory_order_relaxed);
}

void SyntheticSequence::global_offset(int index, int* off_x,
                                      int* off_y) const {
  switch (cache_->kind) {
    case SequenceKind::kAkiyoLike:
      // Tripod camera: perfectly static background.
      *off_x = 0;
      *off_y = 0;
      return;
    case SequenceKind::kForemanLike: {
      // Handheld jitter: bounded random walk derived from a per-frame hash
      // so frame_at stays random-access. Walk amplitude about +/-3 px.
      int wx = 0, wy = 0;
      // Sum the last 6 per-frame steps; older steps are forgotten, which
      // bounds the walk while keeping frame-to-frame deltas of 0..1 px.
      for (int k = index > 6 ? index - 6 : 0; k < index; ++k) {
        std::uint64_t h = hash2(cache_->seed, 0xF0F0, static_cast<std::uint64_t>(k));
        wx += static_cast<int>(h % 3) - 1;
        wy += static_cast<int>((h >> 8) % 3) - 1;
      }
      *off_x = wx;
      *off_y = wy;
      return;
    }
    case SequenceKind::kGardenLike:
      // Constant pan, ~2.5 px/frame horizontal and slight vertical drift:
      // the whole frame moves, so every MB sees motion.
      *off_x = (index * 5) / 2;
      *off_y = index / 4;
      return;
  }
  *off_x = 0;
  *off_y = 0;
}

int SyntheticSequence::sprite_count() const {
  switch (cache_->kind) {
    case SequenceKind::kAkiyoLike: return 2;   // head + mouth region
    case SequenceKind::kForemanLike: return 2; // face + helmet
    case SequenceKind::kGardenLike: return 0;  // pure global motion
  }
  return 0;
}

SyntheticSequence::Sprite SyntheticSequence::sprite(int which,
                                                    int index) const {
  Sprite s{};
  const int w = cache_->width;
  const int h = cache_->height;
  if (cache_->kind == SequenceKind::kAkiyoLike) {
    if (which == 0) {
      // Head: large ellipse, very small sway (~2 px over ~60 frames).
      s = Sprite{w / 2, h * 2 / 5, w / 6, h / 4, 2,    1,   64, 0,
                 5000,  118,       132};
    } else {
      // Mouth/jaw region: small ellipse with faster small bob (talking).
      s = Sprite{w / 2, h / 2, w / 14, h / 18, 1,    2,   12, 3,
                 9000,  120,   134};
    }
  } else {  // foreman-like
    if (which == 0) {
      // Face: bigger sway than akiyo (~6 px), moderate period.
      s = Sprite{w / 2, h / 2, w / 5, h / 3, 6,    4,   40, 0,
                 7000,  116,   136};
    } else {
      // Helmet above the face, moves in (loose) sync with it.
      s = Sprite{w / 2, h / 4, w / 4, h / 6, 6,    3,   40, 5,
                 3000,  124,   124};
    }
  }
  // Apply sinusoidal displacement for this frame.
  s.cx += (s.amp_x * sin_q8(index + s.phase, s.period)) / 256;
  s.cy += (s.amp_y * sin_q8(2 * (index + s.phase), s.period)) / 256;
  return s;
}

YuvFrame SyntheticSequence::render(int index) const {
  PB_CHECK(index >= 0);
  const SequenceKind kind = cache_->kind;
  const int width = cache_->width;
  const int height = cache_->height;
  const std::uint64_t seed = cache_->seed;
  YuvFrame frame(width, height);
  ValueNoise bg_noise(seed ^ 0xA11CE);
  ValueNoise sprite_noise(seed ^ 0xB0B);
  ValueNoise chroma_noise(seed ^ 0xCAFE);

  int off_x = 0, off_y = 0;
  global_offset(index, &off_x, &off_y);

  // Background detail per kind: garden has fine texture (small cells, more
  // octaves) so panning generates large SADs; akiyo is smooth.
  int base_cell, octaves, dyn_lo, dyn_hi;
  switch (kind) {
    case SequenceKind::kAkiyoLike:
      base_cell = 48; octaves = 2; dyn_lo = 70; dyn_hi = 190;
      break;
    case SequenceKind::kForemanLike:
      base_cell = 24; octaves = 3; dyn_lo = 55; dyn_hi = 205;
      break;
    case SequenceKind::kGardenLike:
    default:
      base_cell = 10; octaves = 4; dyn_lo = 40; dyn_hi = 220;
      break;
  }

  const int n_sprites = sprite_count();
  Sprite sprites[4];
  for (int i = 0; i < n_sprites; ++i) sprites[i] = sprite(i, index);

  // Every sample is rendered a lattice row at a time (ValueNoise::
  // fractal_row); see DESIGN.md §2. Sprite textures are rendered over each
  // sprite's bounding span on the row, and the per-pixel front-to-back
  // ellipse test picks which one a pixel shows.
  std::vector<int> bg(static_cast<std::size_t>(width));
  std::vector<int> tex(static_cast<std::size_t>(n_sprites) * width);
  int tex_lo[4] = {};
  Plane& yp = frame.y();
  for (int y = 0; y < height; ++y) {
    bg_noise.fractal_row(off_x, y + off_y, width, 1, base_cell, octaves,
                         bg.data());
    for (int i = 0; i < n_sprites; ++i) {
      const Sprite& s = sprites[i];
      const int dy = y - s.cy;
      // Inside the ellipse implies |dx| <= rx and |dy| <= ry, unless a
      // radius is 0 (frames 16 px high): then the test degenerates to a
      // whole row or column, so render the whole row.
      const bool degenerate = s.rx == 0 || s.ry == 0;
      if (!degenerate && (dy < -s.ry || dy > s.ry)) continue;
      const int lo = degenerate ? 0 : std::max(0, s.cx - s.rx);
      const int hi =
          degenerate ? width - 1 : std::min(width - 1, s.cx + s.rx);
      if (lo > hi) continue;
      tex_lo[i] = lo;
      // Sprite texture is sampled in sprite-local coordinates so it moves
      // rigidly with the sprite (true motion, not boiling).
      int* const row = tex.data() + static_cast<std::size_t>(i) * width;
      sprite_noise.fractal_row(lo - s.cx + s.tex_offset, dy + s.tex_offset,
                               hi - lo + 1, 1, 16, 2, row);
    }
    std::uint8_t* out = yp.row(y);
    for (int x = 0; x < width; ++x) {
      int val = bg[x];
      // Check sprites front-to-back (later sprites drawn on top).
      for (int i = n_sprites - 1; i >= 0; --i) {
        const Sprite& s = sprites[i];
        long long dx = x - s.cx;
        long long dy = y - s.cy;
        // Ellipse interior test without division:
        // (dx/rx)^2 + (dy/ry)^2 <= 1  <=>  (dx*ry)^2 + (dy*rx)^2 <= (rx*ry)^2
        long long lhs = dx * dx * s.ry * s.ry + dy * dy * s.rx * s.rx;
        long long rhs = static_cast<long long>(s.rx) * s.rx * s.ry * s.ry;
        if (lhs <= rhs) {
          val = tex[static_cast<std::size_t>(i) * width + (x - tex_lo[i])];
          break;
        }
      }
      int pixel = dyn_lo + (val * (dyn_hi - dyn_lo)) / 255;
      if (kind == SequenceKind::kAkiyoLike) {
        // Studio sensor noise, +/-2 gray levels, varying per frame. Real
        // AKIYO has this; without it the background is mathematically
        // static, copy concealment is *perfect*, and no rational refresh
        // scheme would ever spend bits there (see DESIGN.md §2). The noise
        // is below the encoder's dead zone, so bitrate stays "akiyo-low".
        std::uint64_t h =
            hash2(seed ^ 0x5E4503, static_cast<std::uint64_t>(index),
                  (static_cast<std::uint64_t>(y) << 20) | static_cast<std::uint64_t>(x));
        pixel += static_cast<int>(h % 5) - 2;
      }
      out[x] = common::clamp_pixel(pixel);
    }
  }

  // Chroma: smooth fields around neutral, plus sprite tints. Sampled at
  // half resolution directly (step 2 in luma coordinates).
  const int cw = width / 2;
  std::vector<int> un(static_cast<std::size_t>(cw));
  std::vector<int> vn(static_cast<std::size_t>(cw));
  Plane& up = frame.u();
  Plane& vp = frame.v();
  for (int cy = 0; cy < height / 2; ++cy) {
    const int wy = cy * 2 + off_y;
    chroma_noise.fractal_row(off_x, wy, cw, 2, base_cell * 2, 2, un.data());
    chroma_noise.fractal_row(off_x + 31337, wy + 271, cw, 2, base_cell * 2, 2,
                             vn.data());
    std::uint8_t* u_out = up.row(cy);
    std::uint8_t* v_out = vp.row(cy);
    for (int cx = 0; cx < cw; ++cx) {
      int u = 128 + (un[cx] - 128) / 4;
      int v = 128 + (vn[cx] - 128) / 4;
      for (int i = n_sprites - 1; i >= 0; --i) {
        const Sprite& s = sprites[i];
        long long dx = cx * 2 - s.cx;
        long long dy = cy * 2 - s.cy;
        long long lhs = dx * dx * s.ry * s.ry + dy * dy * s.rx * s.rx;
        long long rhs = static_cast<long long>(s.rx) * s.rx * s.ry * s.ry;
        if (lhs <= rhs) {
          u = s.chroma_u;
          v = s.chroma_v;
          break;
        }
      }
      u_out[cx] = common::clamp_pixel(u);
      v_out[cx] = common::clamp_pixel(v);
    }
  }
  return frame;
}

SyntheticSequence make_paper_sequence(SequenceKind kind, std::uint64_t seed) {
  return SyntheticSequence(kind, kQcifWidth, kQcifHeight, seed);
}

}  // namespace pbpair::video
