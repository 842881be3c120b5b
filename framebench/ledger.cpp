#include "ledger.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_set>

namespace framebench {

using namespace pbpair;

std::int64_t now_ns() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

// Small dense id of the calling thread (first-use order).
int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

SessionLedger::SessionLedger(std::string label)
    : label_(std::move(label)), names_{"frame", "source"} {}

std::int32_t SessionLedger::child_start(std::int32_t name) {
  Span span;
  span.start_ns = now_ns();
  span.parent = open_frame_;
  span.name = name;
  span.frame = frame_index_;
  span.tid = thread_index();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SessionLedger::child_end(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

void SessionLedger::begin_frame(int index) {
  frame_index_ = index;
  open_frame_ = -1;
  open_frame_ = child_start(kFrameSpan);
}

void SessionLedger::end_frame() { end_frame_at(now_ns()); }

void SessionLedger::end_frame_at(std::int64_t end_ns) {
  if (open_frame_ >= 0) {
    spans_[static_cast<std::size_t>(open_frame_)].end_ns = end_ns;
  }
  open_frame_ = -1;
}

sim::FrameSource SessionLedger::wrap_source(sim::FrameSource inner) {
  return [this, inner = std::move(inner)](int index) {
    const std::int32_t span = child_start(kSourceSpan);
    video::YuvFrame frame = inner(index);
    child_end(span);
    return frame;
  };
}

void SessionLedger::wrap_stages(sim::StreamSession& session) {
  const std::vector<sim::FrameStage> stages = session.stages();
  for (const sim::FrameStage& stage : stages) {
    const auto name = static_cast<std::int32_t>(names_.size());
    names_.push_back("stage." + stage.name);
    auto inner = stage.run;
    if (stage.name != "fec_decode") {
      session.replace_stage(
          stage.name,
          {stage.name, [this, name, inner](sim::FrameContext& ctx,
                                           sim::StreamSession& s) {
             const std::int32_t span = child_start(name);
             inner(ctx, s);
             child_end(span);
           }});
      continue;
    }
    // FEC decode also tallies media packets missing on arrival (distinct
    // sequence numbers, so duplicates and reorders count once) against
    // those it rebuilt. The counting sits outside the timed span.
    session.replace_stage(
        stage.name,
        {stage.name, [this, name, inner](sim::FrameContext& ctx,
                                         sim::StreamSession& s) {
           std::unordered_set<std::uint16_t> arrived;
           for (const net::Packet& packet : ctx.delivered) {
             if (!packet.is_fec_repair()) arrived.insert(packet.header.sequence);
           }
           const int recovered_before = ctx.trace.fec_recovered;
           const std::int32_t span = child_start(name);
           inner(ctx, s);
           child_end(span);
           if (ctx.media_packets_sent > static_cast<int>(arrived.size())) {
             fec_.media_lost += static_cast<std::uint64_t>(
                 ctx.media_packets_sent - static_cast<int>(arrived.size()));
           }
           fec_.recovered += static_cast<std::uint64_t>(
               ctx.trace.fec_recovered - recovered_before);
         }});
  }
}

double LayerTimes::get(const std::string& name) const {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return total_ns[i];
  }
  return 0.0;
}

LayerTimes sum_layers(const std::vector<const SessionLedger*>& ledgers) {
  LayerTimes out;
  auto slot = [&out](const std::string& name) -> double& {
    for (std::size_t i = 0; i < out.names.size(); ++i) {
      if (out.names[i] == name) return out.total_ns[i];
    }
    out.names.push_back(name);
    out.total_ns.push_back(0.0);
    return out.total_ns.back();
  };
  for (const SessionLedger* ledger : ledgers) {
    const std::vector<Span>& spans = ledger->spans();
    // A frame span whose end was never seen (the last frame of an engine
    // slice) has end_ns == 0: it and its children are left out of the
    // frame/child sums, though the children still count for their layer.
    std::vector<double> children(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.name == kFrameSpan || span.end_ns == 0) continue;
      const double dur = static_cast<double>(span.end_ns - span.start_ns);
      slot(ledger->names()[static_cast<std::size_t>(span.name)]) += dur;
      if (span.parent >= 0) children[static_cast<std::size_t>(span.parent)] += dur;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.name != kFrameSpan || span.end_ns == 0) continue;
      const double dur = static_cast<double>(span.end_ns - span.start_ns);
      out.frames += 1;
      out.frame_ns += dur;
      out.child_ns += children[i];
      slot("frame.self") += dur - children[i];
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SessionLedger*>& ledgers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  std::int64_t base = 0;  // span ids are unique across the whole file
  for (const SessionLedger* ledger : ledgers) {
    const std::vector<Span>& spans = ledger->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.end_ns == 0) continue;
      std::fprintf(
          f,
          "%s\n{\"name\":\"%s\",\"cat\":\"framebench\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
          "\"frame\":\"%s#%d\",\"span\":%lld,\"parent\":%lld}}",
          first ? "" : ",",
          ledger->names()[static_cast<std::size_t>(span.name)].c_str(),
          static_cast<double>(span.start_ns) / 1e3,
          static_cast<double>(span.end_ns - span.start_ns) / 1e3, span.tid,
          ledger->label().c_str(), span.frame,
          static_cast<long long>(base + static_cast<std::int64_t>(i)),
          static_cast<long long>(span.parent < 0 ? -1 : base + span.parent));
      first = false;
    }
    base += static_cast<std::int64_t>(spans.size());
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
};

}  // namespace

std::uint64_t digest(const sim::PipelineResult& r) {
  Fnv fnv;
  fnv.u64(r.frames.size());
  for (const sim::FrameTrace& t : r.frames) {
    for (const std::int64_t v :
         {std::int64_t{t.index}, std::int64_t{t.qp},
          static_cast<std::int64_t>(t.type), static_cast<std::int64_t>(t.bytes),
          std::int64_t{t.intra_mbs}, std::int64_t{t.pre_me_intra_mbs},
          std::int64_t{t.packets_sent}, std::int64_t{t.packets_delivered},
          std::int64_t{t.lost}, static_cast<std::int64_t>(t.bad_pixels),
          std::int64_t{t.fec_repair_sent}, std::int64_t{t.fec_recovered},
          std::int64_t{t.fec_unrecoverable_windows},
          std::int64_t{t.crc_corrupted}}) {
      fnv.u64(static_cast<std::uint64_t>(v));
    }
    fnv.f64(t.psnr_db);
  }
  const energy::OpCounters& o = r.encoder_ops;
  for (const std::uint64_t v :
       {r.total_bytes, r.total_bad_pixels, r.total_intra_mbs, r.concealed_mbs,
        o.sad_pixel_ops, o.sad_halfpel_ops, o.me_invocations, o.dct_blocks,
        o.idct_blocks, o.quant_coeffs, o.dequant_coeffs, o.mc_pixels,
        o.mc_halfpel_pixels, o.bits_written, o.intra_mbs, o.inter_mbs,
        o.skip_mbs, o.frames, r.channel.packets_sent,
        r.channel.packets_dropped, r.channel.bytes_sent,
        r.channel.bytes_delivered, r.fec_encode.windows,
        r.fec_encode.media_packets, r.fec_encode.repair_packets,
        r.fec_encode.repair_bytes, r.fec_decode.windows_seen,
        r.fec_decode.repair_packets_seen, r.fec_decode.repair_packets_invalid,
        r.fec_decode.packets_recovered, r.fec_decode.windows_unrecoverable,
        r.fec_decode.recovered_unparseable, r.fec_decode.recovered_crc_failed,
        r.wire.packets_checked, r.wire.crc_corrupted}) {
    fnv.u64(v);
  }
  const energy::EnergyBreakdown& e = r.encode_energy;
  for (const double v : {r.avg_psnr_db, e.me_j, e.dct_j, e.idct_j, e.quant_j,
                         e.mc_j, e.vlc_j, e.overhead_j, r.tx_energy_j}) {
    fnv.f64(v);
  }
  return fnv.h;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

}  // namespace framebench
