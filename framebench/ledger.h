// Outside-in stage ledger for the frame-path benchmark.
//
// Every number here is taken from outside the program: the ledger wraps
// the public seams a caller already has — each sim::FrameStage of a
// StreamSession (stages() + replace_stage()), the FrameSource, and the
// PipelineConfig::pre_frame hook — and records one span per call. No file
// of the library is changed to measure it, and the wrappers only read the
// clock and the FrameContext, so a wrapped session produces the same
// PipelineResult as an unwrapped one (the benchmark checks this on every
// traced run).
//
// Spans live in memory and are written once, at exit, in the Chrome
// trace-event format (load in chrome://tracing or ui.perfetto.dev). Each
// span has a name, start, end and parent; every span of one frame carries
// the frame id "<session label>#<frame index>".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/pipeline.h"
#include "sim/session.h"

namespace framebench {

namespace sim = pbpair::sim;

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same ledger; -1 = root
  std::int32_t name = 0;     // index into SessionLedger::names()
  std::int32_t frame = 0;    // frame index within the session
  std::int32_t tid = 0;
};

/// Span names every ledger has; stage names follow.
enum : std::int32_t { kFrameSpan = 0, kSourceSpan = 1 };

/// FEC accounting the fec_decode wrapper reads off the FrameContext.
struct FecTally {
  std::uint64_t media_lost = 0;  // media packets missing before FEC decode
  std::uint64_t recovered = 0;   // of those, rebuilt by FEC decode
};

/// One session's spans. Only the thread currently stepping the session
/// writes to it; the session engine's queue hand-off orders those writes
/// across threads. Not movable: the wrappers hold its address.
class SessionLedger {
 public:
  explicit SessionLedger(std::string label);
  SessionLedger(const SessionLedger&) = delete;
  SessionLedger& operator=(const SessionLedger&) = delete;

  const std::string& label() const { return label_; }
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<Span>& spans() const { return spans_; }
  const FecTally& fec() const { return fec_; }

  /// A source that records a "source" span (child of the open frame span)
  /// around every call of `inner`.
  sim::FrameSource wrap_source(sim::FrameSource inner);

  /// Replaces every stage of `session` with a wrapper that records a
  /// "stage.<name>" span around the original stage.
  void wrap_stages(sim::StreamSession& session);

  /// Opens / closes the root span of frame `index`.
  void begin_frame(int index);
  void end_frame();

  /// Closes the open frame span at `end_ns` (the pre_frame-hook timing of
  /// the session engine, where the frame's end is the next frame's start).
  void end_frame_at(std::int64_t end_ns);

 private:
  std::int32_t child_start(std::int32_t name);
  void child_end(std::int32_t span);

  std::string label_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::int32_t open_frame_ = -1;
  int frame_index_ = 0;
  FecTally fec_;
};

/// Per-name totals over a set of ledgers: self time of frame spans
/// (duration minus children), full time of every other span.
struct LayerTimes {
  std::vector<std::string> names;
  std::vector<double> total_ns;  // parallel to names
  std::uint64_t frames = 0;      // closed frame spans
  double frame_ns = 0.0;         // summed frame-span durations
  double child_ns = 0.0;         // summed child-span durations

  double get(const std::string& name) const;
};

LayerTimes sum_layers(const std::vector<const SessionLedger*>& ledgers);

/// Writes every span of `ledgers` as Chrome trace-event JSON. Returns false
/// when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SessionLedger*>& ledgers);

/// FNV-1a digest of everything a run produces: per-frame traces (bytes,
/// PSNR bits, loss, FEC and CRC fields), totals, OpCounters, joules,
/// channel / FEC / wire stats. Equal digests mean identical results.
std::uint64_t digest(const sim::PipelineResult& result);

/// Sorted-sample percentile (linear interpolation), q in [0, 1].
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

}  // namespace framebench
