// Intra-refresh policy interface: the extension point where error-resilient
// coding schemes plug into the encoder.
//
// The hooks map directly onto where the schemes under study act (paper §3):
//  - want_intra_frame      : GOP inserts periodic I-frames here.
//  - force_intra_pre_me    : PBPAIR's early decision (σ < Intra_Th) and
//                            PGOP's refresh columns — the encoder SKIPS
//                            motion estimation for these MBs, which is the
//                            energy lever the paper exploits.
//  - me_penalty            : PBPAIR's probability-of-correctness term in
//                            the motion-vector cost (§3.1.2), charged per
//                            reference window.
//  - select_post_me        : decisions that need ME results — AIR's top-N
//                            SAD selection and PGOP's stride-back MBs.
//  - on_frame_encoded      : post-frame state updates — PBPAIR recomputes
//                            the correctness matrix C^k here (§3.1.3).
#pragma once

#include <cstdint>
#include <vector>

#include "codec/motion.h"
#include "codec/syntax.h"
#include "energy/op_counters.h"
#include "video/frame.h"

namespace pbpair::codec {

/// Motion-estimation outcome for one MB, input to select_post_me.
struct MbMeInfo {
  bool searched = false;      // false: pre-ME intra (no ME ran) or skipped
  MotionVector mv{};
  std::int64_t sad = -1;
  std::int64_t sad_zero = -1;  // exact SAD of the co-located candidate
};

/// Everything a policy may want to observe after a frame is encoded.
struct FrameEncodeInfo {
  int frame_index = 0;
  FrameType type = FrameType::kIntra;
  int mb_cols = 0;
  int mb_rows = 0;
  const std::vector<MbEncodeRecord>* mb_records = nullptr;
  const video::YuvFrame* original = nullptr;       // current source frame
  const video::YuvFrame* prev_original = nullptr;  // nullptr for frame 0
  energy::OpCounters* ops = nullptr;  // meter policy-side work here
};

class RefreshPolicy {
 public:
  virtual ~RefreshPolicy() = default;

  virtual const char* name() const = 0;

  /// Should frame `frame_index` be coded as an I-frame? The default codes
  /// only frame 0 intra (the paper starts from an error-free frame).
  virtual bool want_intra_frame(int frame_index) { return frame_index == 0; }

  /// Pre-ME early decision: returning true forces intra coding for this MB
  /// and skips motion estimation entirely.
  virtual bool force_intra_pre_me(int frame_index, int mb_x, int mb_y) {
    (void)frame_index;
    (void)mb_x;
    (void)mb_y;
    return false;
  }

  /// Extra cost (same scale as SAD) of predicting from reference window
  /// `window` (MB units, clamped to the frame; codec/motion.h); 0 =
  /// pure-SAD search. Every candidate vector whose reference block overlaps
  /// this window pays the same value, as in Formula (1), where a
  /// prediction is as trustworthy as the least trustworthy MB it touches.
  /// The search calls it once per distinct window of an MB, so it must
  /// depend on nothing but the window and the policy's frame state.
  virtual std::int64_t me_penalty(const RefWindow& window) const {
    (void)window;
    return 0;
  }

  /// True if me_penalty is nontrivial (lets the encoder skip the hook).
  virtual bool has_me_penalty() const { return false; }

  /// Post-ME selection: mark additional MBs intra in `force_intra`
  /// (size mb_cols*mb_rows, row-major; entries already true must stay true).
  virtual void select_post_me(int frame_index,
                              const std::vector<MbMeInfo>& me_info,
                              int mb_cols, int mb_rows,
                              std::vector<std::uint8_t>* force_intra) {
    (void)frame_index;
    (void)me_info;
    (void)mb_cols;
    (void)mb_rows;
    (void)force_intra;
  }

  /// Observation hook after the frame's bits are final.
  virtual void on_frame_encoded(const FrameEncodeInfo& info) { (void)info; }

  /// Resets any internal state (new sequence).
  virtual void reset() {}
};

/// The paper's "NO" configuration: no resilience, pure coding efficiency.
class NoRefreshPolicy final : public RefreshPolicy {
 public:
  const char* name() const override { return "NO"; }
};

}  // namespace pbpair::codec
