// Procedural video sequences standing in for the paper's test clips.
//
// The paper evaluates on three 300-frame QCIF clips whose motion activity
// spans the spectrum: AKIYO (news anchor, near-static), FOREMAN (handheld
// camera, moderate motion), GARDEN (panning camera over flower garden, high
// motion and detail). The clips themselves are not redistributable, so we
// generate deterministic synthetic equivalents that preserve the property
// the experiments depend on: the motion-activity and detail ordering
// akiyo < foreman < garden, which drives SAD distributions, intra/inter
// decisions, bit rates, and concealment quality. See DESIGN.md §2.
//
// Frames are produced by random access (`frame_at(i)`), fully determined by
// (kind, size, seed, i); there is no hidden generator state. `frame_at`
// serves each frame from a process-wide cache shared by every sequence with
// the same (kind, size, seed), so a clip played by many sessions is rendered
// once; `render(i)` is the uncached renderer behind it (DESIGN.md §2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "video/frame.h"

namespace pbpair::video {

enum class SequenceKind {
  kAkiyoLike,    // static background, small head-and-shoulders motion
  kForemanLike,  // camera jitter + moving face, moderate motion
  kGardenLike,   // global pan over high-detail texture, high motion
};

/// Human-readable name used in benchmark output tables ("akiyo" etc.).
const char* sequence_kind_name(SequenceKind kind);

/// Bytes of frame pixels the process-wide frame cache may hold, summed over
/// every clip: room for the three paper clips at 300 QCIF frames (34 MB).
/// Frames that do not fit are rendered on every call, never cached.
inline constexpr std::size_t kFrameCacheBudgetBytes = std::size_t{64} << 20;

/// Deterministic procedural sequence: a handle to the interned clip, one
/// pointer wide, so copies are cheap and share the cache.
class SyntheticSequence {
 public:
  /// Interns the frame cache for (kind, width, height, seed); renders
  /// nothing.
  SyntheticSequence(SequenceKind kind, int width, int height,
                    std::uint64_t seed);

  int width() const;
  int height() const;
  SequenceKind kind() const;

  /// Frame `index` (>= 0): a copy of the cached frame, rendered and cached
  /// on the first request while the budget lasts. Byte-identical to
  /// `render(index)`; safe to call from any number of threads.
  YuvFrame frame_at(int index) const;

  /// Renders frame `index` (>= 0) without the cache. Pure function of the
  /// constructor arguments and `index`.
  YuvFrame render(int index) const;

  /// Frames of this sequence's (kind, size, seed) held in the cache.
  int cached_frames() const;

  /// Frame pixel bytes held by the cache over all clips, at most
  /// kFrameCacheBudgetBytes.
  static std::size_t cached_bytes();

 private:
  struct FrameCache;

  struct Sprite {
    int cx;            // rest center x (luma pixels)
    int cy;            // rest center y
    int rx;            // ellipse x radius
    int ry;            // ellipse y radius
    int amp_x;         // horizontal motion amplitude
    int amp_y;         // vertical motion amplitude
    int period;        // motion period in frames
    int phase;         // phase offset in frames
    int tex_offset;    // noise-space offset so sprites get distinct texture
    int chroma_u;      // mean U inside the sprite
    int chroma_v;      // mean V inside the sprite
  };

  void global_offset(int index, int* off_x, int* off_y) const;
  int sprite_count() const;
  Sprite sprite(int which, int index) const;

  FrameCache* cache_;  // interned, lives for the process
};

/// Convenience factory for the paper's QCIF evaluation clips.
SyntheticSequence make_paper_sequence(SequenceKind kind,
                                      std::uint64_t seed = 2005);

}  // namespace pbpair::video
