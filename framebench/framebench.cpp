// framebench — the repository's end-to-end benchmark over the whole frame
// path: source -> encode -> packetize -> FEC -> channel -> faults -> CRC ->
// FEC decode -> depacketize -> decode -> measure.
//
//   framebench --workload paper_call|serve_fleet|burst_wire --seed N
//              --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics on the unmodified program.
// --trace 1 is a separate run that wraps every layer boundary in spans
// (ledger.h), derives the per-layer metrics from them, and writes the
// spans to DIR/spans_<workload>.json. Both print, as the last line of
// standard output, one JSON object: correct / attempted / failed /
// metrics. Every session of every repetition is checked against a serial,
// unsliced run_pipeline() reference of the same spec; a mismatch or a shed
// session counts all of that session's frames as failed. README.md lists
// the metrics and what each one is expected to move.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codec/kernels/kernels.h"
#include "common/buffer.h"
#include "hostspeed.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "sim/parallel_sweep.h"
#include "sim/session_manager.h"
#include "workloads.h"

using namespace pbpair;
namespace fb = framebench;

namespace {

// A traced run fails when the spans cover less than this share of the
// frame wall time (the stages must add up to the frame).
constexpr double kMinLedgerCoverage = 0.97;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".";
};

bool parse_options(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      o->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      o->trace = value[0] - '0';
    } else if (key == "--out") {
      o->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0.0 &&
         o->trace >= 0;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// What one or more repetitions of a workload measured. Timings are kept
/// as measured and, once finish() has run, scaled to nominal host speed
/// (hostspeed.h).
struct Tally {
  int probe_threads = 1;         // threads the host probe runs on
  std::uint64_t reps = 0;
  std::uint64_t frames = 0;
  double wall_s = 0.0;           // summed segment wall time
  double scaled_wall_s = 0.0;
  std::vector<double> frame_ms;  // time to process one frame
  std::vector<double> gap_ms;    // consecutive frames of one session
  std::vector<double> frame_ms_scaled;
  std::vector<double> units;     // host probes: before, and after each segment
  std::uint64_t attempted = 0;   // frames attempted
  std::uint64_t failed = 0;      // frames of sessions failing the check
  sim::AdmissionReport admission;  // last repetition (fleet only)

  double wall_per_frame() const { return wall_s / static_cast<double>(frames); }
  double scaled_wall_per_frame() const {
    return scaled_wall_s / static_cast<double>(frames);
  }
  /// Mean scale applied over the tally.
  double scale() const { return wall_s > 0.0 ? scaled_wall_s / wall_s : 1.0; }

  /// Closes one timed segment (part of a session, or a fleet repetition)
  /// and probes the host after it.
  void close_segment(double seg_wall_s, const std::vector<double>& seg_frame_ms,
                     const std::vector<double>& seg_gap_ms) {
    segments_.push_back({seg_wall_s, frame_ms.size()});
    wall_s += seg_wall_s;
    frame_ms.insert(frame_ms.end(), seg_frame_ms.begin(), seg_frame_ms.end());
    gap_ms.insert(gap_ms.end(), seg_gap_ms.begin(), seg_gap_ms.end());
    units.push_back(fb::probe_host(probe_threads));
  }

  /// Scales each segment by the median of the four probes nearest it (the
  /// two bracketing it and one more on each side), so one disturbed probe
  /// cannot rescale a segment on its own.
  void finish() {
    scaled_wall_s = 0.0;
    frame_ms_scaled.clear();
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      const std::size_t lo = i == 0 ? 0 : i - 1;
      const std::size_t hi = std::min(i + 3, units.size());
      const double k = fb::speed_scale(
          fb::median(std::vector<double>(units.begin() + static_cast<std::ptrdiff_t>(lo),
                                         units.begin() + static_cast<std::ptrdiff_t>(hi))));
      const Segment& seg = segments_[i];
      const bool last = i + 1 == segments_.size();
      const std::size_t frame_end = last ? frame_ms.size() : segments_[i + 1].frame_begin;
      scaled_wall_s += seg.wall_s * k;
      for (std::size_t j = seg.frame_begin; j < frame_end; ++j) {
        frame_ms_scaled.push_back(frame_ms[j] * k);
      }
    }
  }

 private:
  struct Segment {
    double wall_s;
    std::size_t frame_begin;
  };
  std::vector<Segment> segments_;
};

using Ledgers = std::vector<std::unique_ptr<fb::SessionLedger>>;
using Specs = std::vector<sim::SessionSpec>;

/// What every repetition must reproduce: each spec of each variant run
/// serially and unsliced through run_pipeline(), several specs at a time
/// (sim::run_parallel_sweep).
struct Reference {
  std::vector<std::vector<sim::PipelineResult>> results;  // [variant][spec]
  std::vector<std::vector<std::uint64_t>> digests;
  std::uint64_t copied_bytes = 0;  // net copy ledger over every run
};

Reference make_reference(const fb::Workload& w, int threads) {
  std::vector<sim::SweepTask> tasks;
  for (const Specs& specs : w.variants) {
    for (const sim::SessionSpec& spec : specs) {
      tasks.push_back({spec.scheme, spec.config, spec.source, spec.make_loss});
    }
  }
  const common::CopyLedgerSnapshot before = common::copy_ledger();
  std::vector<sim::PipelineResult> flat =
      sim::run_parallel_sweep(tasks, sim::SweepOptions{threads});
  Reference ref;
  ref.copied_bytes = common::copy_ledger().copied_bytes - before.copied_bytes;
  std::size_t next = 0;
  for (const Specs& specs : w.variants) {
    ref.results.emplace_back();
    ref.digests.emplace_back();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ref.digests.back().push_back(fb::digest(flat[next]));
      ref.results.back().push_back(std::move(flat[next++]));
    }
  }
  return ref;
}

/// Checks one repetition against its reference digests: a mismatch or a
/// shed session fails all of that session's frames.
void check_results(const Specs& specs, const std::vector<std::uint64_t>& digests,
                   const std::vector<sim::PipelineResult>& results,
                   const sim::AdmissionReport* admission, Tally* t) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto frames = static_cast<std::uint64_t>(specs[i].config.frames);
    const bool shed = admission != nullptr &&
                      admission->decisions[i] == sim::AdmitDecision::kShed;
    t->attempted += frames;
    if (shed || fb::digest(results[i]) != digests[i]) t->failed += frames;
  }
}

// Frames per timed segment of a single-thread workload: the host probe
// runs between segments, so the scaling follows host-speed changes that
// last a fraction of a second.
constexpr int kSegmentFrames = 100;

/// One repetition stepped back to back on this thread: step() is the
/// frame time, consecutive step() starts of one session the frame gap.
/// With `ledgers`, each session's source and stages are wrapped.
void run_single_rep(const fb::Workload& w, const Reference& ref, Tally* t,
                    Ledgers* ledgers) {
  const std::size_t v = t->reps % w.variants.size();
  std::vector<sim::PipelineResult> results;
  for (const sim::SessionSpec& spec : w.variants[v]) {
    std::int64_t segment_start = fb::now_ns();
    std::vector<double> frame_ms, gap_ms;
    fb::SessionLedger* ledger = nullptr;
    sim::FrameSource source = spec.source;
    if (ledgers != nullptr) {
      ledgers->push_back(std::make_unique<fb::SessionLedger>(spec.label));
      ledger = ledgers->back().get();
      source = ledger->wrap_source(std::move(source));
    }
    std::unique_ptr<sim::StreamSession> session =
        fb::build_session(spec, spec.label, std::move(source));
    if (ledger != nullptr) ledger->wrap_stages(*session);
    std::int64_t prev_start = -1;
    while (!session->done()) {
      if (ledger != nullptr) ledger->begin_frame(session->frames_done());
      const std::int64_t start = fb::now_ns();
      session->step();
      const std::int64_t end = fb::now_ns();
      if (ledger != nullptr) ledger->end_frame();
      frame_ms.push_back(static_cast<double>(end - start) / 1e6);
      if (prev_start >= 0) {
        gap_ms.push_back(static_cast<double>(start - prev_start) / 1e6);
      }
      prev_start = start;
      if (static_cast<int>(frame_ms.size()) == kSegmentFrames &&
          !session->done()) {
        t->close_segment(seconds_between(segment_start, fb::now_ns()),
                         frame_ms, gap_ms);
        frame_ms.clear();
        gap_ms.clear();
        prev_start = -1;  // the next gap would include the probe
        segment_start = fb::now_ns();
      }
    }
    results.push_back(session->take_result());
    t->close_segment(seconds_between(segment_start, fb::now_ns()), frame_ms,
                     gap_ms);
  }
  t->reps += 1;
  t->frames += static_cast<std::uint64_t>(w.frames_per_rep());
  check_results(w.variants[v], ref.digests[v], results, nullptr, t);
}

/// One repetition through SessionManager::run on `threads` shards. The
/// pre_frame hook stamps each frame's start: consecutive stamps inside one
/// slice are the frame time, all consecutive stamps the frame gap (which
/// includes waiting for a shard). With `ledgers`, each session's source
/// is wrapped and the hook opens one frame span per frame.
void run_fleet_rep(const fb::Workload& w, int threads, const Reference& ref,
                   Tally* t, Ledgers* ledgers) {
  const std::size_t v = t->reps % w.variants.size();
  const int slice = w.options.frames_per_slice;
  Specs specs = w.variants[v];
  std::vector<std::vector<std::int64_t>> starts(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    starts[i].assign(static_cast<std::size_t>(specs[i].config.frames), -1);
    fb::SessionLedger* ledger = nullptr;
    if (ledgers != nullptr) {
      ledgers->push_back(std::make_unique<fb::SessionLedger>(
          sim::SessionManager::default_label(i, specs.size())));
      ledger = ledgers->back().get();
      specs[i].source = ledger->wrap_source(std::move(specs[i].source));
    }
    specs[i].config.pre_frame = [stamps = &starts[i], ledger, slice](
                                    int index, codec::RefreshPolicy&) {
      const std::int64_t now = fb::now_ns();
      (*stamps)[static_cast<std::size_t>(index)] = now;
      if (ledger != nullptr) {
        if (index % slice != 0) ledger->end_frame_at(now);
        ledger->begin_frame(index);
      }
    };
  }
  sim::SessionManager manager(std::move(specs));
  sim::SessionManagerOptions options = w.options;
  options.threads = threads;
  sim::AdmissionReport admission;
  const std::int64_t rep_start = fb::now_ns();
  const std::vector<sim::PipelineResult> results =
      manager.run(options, &admission);
  const double wall_s = seconds_between(rep_start, fb::now_ns());
  std::vector<double> frame_ms, gap_ms;
  for (const std::vector<std::int64_t>& s : starts) {
    for (std::size_t f = 1; f < s.size(); ++f) {
      if (s[f] < 0 || s[f - 1] < 0) continue;
      const double ms = static_cast<double>(s[f] - s[f - 1]) / 1e6;
      gap_ms.push_back(ms);
      if (f % static_cast<std::size_t>(slice) != 0) frame_ms.push_back(ms);
    }
  }
  t->close_segment(wall_s, frame_ms, gap_ms);
  t->reps += 1;
  t->frames += static_cast<std::uint64_t>(w.frames_per_rep());
  check_results(w.variants[v], ref.digests[v], results, &admission, t);
  t->admission = std::move(admission);
}

/// Repeats the workload until `seconds` have passed (at least once). The
/// host probes between segments run on `threads` threads.
Tally run_for(const fb::Workload& w, int threads, const Reference& ref,
              double seconds, Ledgers* ledgers) {
  Tally t;
  t.probe_threads = threads;
  const std::int64_t start = fb::now_ns();
  t.units.push_back(fb::probe_host(threads));
  do {
    if (w.fleet) {
      run_fleet_rep(w, threads, ref, &t, ledgers);
    } else {
      run_single_rep(w, ref, &t, ledgers);
    }
  } while (seconds_between(start, fb::now_ns()) < seconds);
  t.finish();
  return t;
}

/// Steps one session per clip of the first variant directly (no engine),
/// wrapped: the stage split of a fleet workload, whose engine builds its
/// sessions internally.
Tally run_fleet_stage_split(const fb::Workload& w, const Reference& ref,
                            double seconds, Ledgers* ledgers) {
  fb::Workload direct;
  direct.variants.emplace_back();
  Reference direct_ref;
  direct_ref.digests.emplace_back();
  const Specs& specs = w.variants.front();
  for (std::size_t i = 0; i < specs.size() && i < 3; ++i) {
    direct.variants.front().push_back(specs[i]);
    direct.variants.front().back().label =
        sim::SessionManager::default_label(i, specs.size());
    direct_ref.digests.front().push_back(ref.digests.front()[i]);
  }
  return run_for(direct, 1, direct_ref, seconds, ledgers);
}

/// One set-up: build the workload (pre-rendering its clips, building its
/// specs) and construct every session of its first repetition, plus the
/// SessionManager for a fleet.
std::unique_ptr<fb::Workload> set_up(const Options& o, int shards) {
  std::unique_ptr<fb::Workload> w = fb::make_workload(o.workload, o.seed, shards);
  if (w == nullptr) return nullptr;
  if (w->fleet) sim::SessionManager manager(w->variants.front());
  for (const sim::SessionSpec& spec : w->variants.front()) {
    fb::build_session(spec, spec.label, spec.source);
  }
  return w;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

double per_frame(double total, std::uint64_t frames) {
  return frames == 0 ? 0.0 : total / static_cast<double>(frames);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Exact totals over every reference run of every variant.
struct Totals {
  std::uint64_t frames = 0, bytes = 0, pre_me_intra = 0, intra_mbs = 0;
  std::uint64_t concealed_mbs = 0, packets_sent = 0, media_packets = 0;
  std::uint64_t repair_packets = 0, unrecoverable_windows = 0;
  std::uint64_t packets_checked = 0, crc_corrupted = 0;
  double psnr_sum = 0.0, energy_j = 0.0, me_j = 0.0;
  energy::OpCounters ops;
  std::uint64_t digest = 1469598103934665603ull;  // over every reference
};

Totals sum_references(const Reference& ref) {
  Totals t;
  for (std::size_t v = 0; v < ref.results.size(); ++v) {
    for (std::size_t i = 0; i < ref.results[v].size(); ++i) {
      const sim::PipelineResult& r = ref.results[v][i];
      for (const sim::FrameTrace& f : r.frames) {
        t.psnr_sum += f.psnr_db;
        t.pre_me_intra += static_cast<std::uint64_t>(f.pre_me_intra_mbs);
      }
      t.frames += r.frames.size();
      t.bytes += r.total_bytes;
      t.intra_mbs += r.total_intra_mbs;
      t.concealed_mbs += r.concealed_mbs;
      t.energy_j += r.encode_energy.total_j();
      t.me_j += r.encode_energy.me_j;
      t.ops += r.encoder_ops;
      t.packets_sent += r.channel.packets_sent;
      t.media_packets += r.fec_encode.media_packets;
      t.repair_packets += r.fec_encode.repair_packets;
      t.unrecoverable_windows += r.fec_decode.windows_unrecoverable;
      t.packets_checked += r.wire.packets_checked;
      t.crc_corrupted += r.wire.crc_corrupted;
      t.digest = (t.digest ^ ref.digests[v][i]) * 1099511628211ull;
    }
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = fb::now_ns();
  Options o;
  if (!parse_options(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: framebench --workload paper_call|serve_fleet|"
                 "burst_wire --seed N --seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  const int cpus = available_cpus();
  // The fleet leaves one CPU to the rest of the system (the parent
  // process, the kernel, anything else on the host): with a worker on
  // every CPU, whichever worker shares its CPU stalls its sessions, and
  // throughput spread 7% from run to run against 3% on nproc - 1 shards.
  const int fleet_shards = std::max(1, cpus - 1);

  // Set-up, repeated at least 3 times and, while the whole loop (probes
  // included) has taken under a second, up to 201 times: the median is the
  // metric. The first one counts from process start. Each is scaled by the
  // host probes taken either side of it (the first has only the one after
  // it).
  std::vector<double> setups, setups_scaled, setup_units;
  std::unique_ptr<fb::Workload> w;
  std::int64_t setup_start = process_start;
  while (setups.size() < 3 ||
         (seconds_between(process_start, fb::now_ns()) < 1.0 && setups.size() < 201)) {
    w = set_up(o, fleet_shards);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
      return 2;
    }
    setups.push_back(seconds_between(setup_start, fb::now_ns()));
    setup_units.push_back(fb::probe_host(1));
    const std::size_t n = setup_units.size();
    setups_scaled.push_back(
        setups.back() *
        fb::speed_scale(0.5 * (setup_units[n > 1 ? n - 2 : 0] + setup_units[n - 1])));
    setup_start = fb::now_ns();
  }
  const int shards = w->fleet ? w->options.threads : 1;
  obs::set_enabled(w->obs_on);

  const Reference ref = make_reference(*w, fleet_shards);
  const Totals totals = sum_references(ref);
  const auto rf = totals.frames;
  std::printf("framebench %s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace);
  std::printf("digest %s %016llx (%zu variants x %d sessions, %d frames per "
              "repetition)\n",
              o.workload.c_str(), static_cast<unsigned long long>(totals.digest),
              w->variants.size(), w->sessions_per_rep(), w->frames_per_rep());

  std::vector<Metric> metrics;
  bool correct = true;
  Tally main_tally;
  if (o.trace == 0) {
    main_tally = run_for(*w, shards, ref, o.seconds, nullptr);
    const Tally& t = main_tally;
    metrics = {
        {"setup_s", fb::median(setups_scaled), "s"},
        {"frames_per_s", 1.0 / t.scaled_wall_per_frame(), "frames/s"},
        {"frame_ms.p50", fb::percentile(t.frame_ms_scaled, 0.50), "ms"},
        // The tails are reported as measured: on a host with a slow and a
        // fast speed, the slowest 1% of frames run at the slow speed
        // whatever the mix, while scaling mixed probe error into them
        // (p99 spread 10-12% scaled against 3-6% as measured).
        {"frame_ms.p99", fb::percentile(t.frame_ms, 0.99), "ms"},
        {"frame_gap_ms.p99", fb::percentile(t.gap_ms, 0.99), "ms"},
        {"psnr_db", per_frame(totals.psnr_sum, rf), "dB"},
        {"bytes_per_frame", per_frame(static_cast<double>(totals.bytes), rf), "B"},
        {"encode_mj_per_frame", per_frame(totals.energy_j * 1e3, rf), "mJ"},
    };
    std::printf("samples frame_ms=%zu frame_gap_ms=%zu (p99 leaves %zu and "
                "%zu beyond it)\n",
                t.frame_ms.size(), t.gap_ms.size(), t.frame_ms.size() / 100,
                t.gap_ms.size() / 100);
    std::printf("unscaled setup_s=%.6f frames_per_s=%.3f frame_ms.p50=%.6f\n",
                fb::median(setups), 1.0 / t.wall_per_frame(),
                fb::percentile(t.frame_ms, 0.50));
  } else {
    // Phases share the run's time: untraced (U), traced (W), obs flipped
    // (O); a fleet also steps one session per clip directly (S) and runs
    // on one shard (E1).
    const double s = o.seconds;
    Ledgers traced, split;
    const Tally u = run_for(*w, shards, ref, s * (w->fleet ? 0.2 : 0.3), nullptr);
    const Tally tw = run_for(*w, shards, ref, s * (w->fleet ? 0.2 : 0.4), &traced);
    obs::set_enabled(!w->obs_on);
    const Tally flipped = run_for(*w, shards, ref, s * (w->fleet ? 0.2 : 0.3), nullptr);
    obs::set_enabled(w->obs_on);
    Tally direct, one_shard;
    if (w->fleet) {
      direct = run_fleet_stage_split(*w, ref, s * 0.2, &split);
      one_shard = run_for(*w, 1, ref, s * 0.2, nullptr);
    }
    main_tally = u;
    for (const Tally* extra :
         std::initializer_list<const Tally*>{&tw, &flipped, &direct, &one_shard}) {
      main_tally.attempted += extra->attempted;
      main_tally.failed += extra->failed;
    }

    std::vector<const fb::SessionLedger*> stage_ledgers, fleet_ledgers;
    for (const auto& l : (w->fleet ? split : traced)) stage_ledgers.push_back(l.get());
    for (const auto& l : traced) fleet_ledgers.push_back(l.get());
    const fb::LayerTimes layers = fb::sum_layers(stage_ledgers);
    // Span times are scaled to nominal host speed with their own phase's
    // probes, like the end-to-end timings.
    const Tally& stage_phase = w->fleet ? direct : tw;
    const std::uint64_t stage_frames = stage_phase.frames;
    const double ks = stage_phase.scale();
    auto stage_ns = [&](const char* name) {
      return ks * per_frame(layers.get(std::string("stage.") + name), stage_frames);
    };
    const double source_ns =
        w->fleet ? tw.scale() *
                       per_frame(fb::sum_layers(fleet_ledgers).get("source"), tw.frames)
                 : ks * per_frame(layers.get("source"), stage_frames);
    const double coverage = ratio(layers.child_ns, layers.frame_ns);
    fb::FecTally fec;
    for (const fb::SessionLedger* l : stage_ledgers) {
      fec.media_lost += l->fec().media_lost;
      fec.recovered += l->fec().recovered;
    }
    const auto mbs = static_cast<double>(totals.ops.total_mbs());
    const double obs_on_wall = w->obs_on ? u.scaled_wall_per_frame()
                                         : flipped.scaled_wall_per_frame();
    const double obs_off_wall = w->obs_on ? flipped.scaled_wall_per_frame()
                                          : u.scaled_wall_per_frame();
    double busy = 0.0, efficiency = 0.0;
    if (w->fleet) {
      double in_frame_ms = 0.0;
      for (const double ms : u.frame_ms) in_frame_ms += ms;
      // Frames whose end the hook cannot see (the last of each slice) are
      // charged the mean in-slice frame time.
      busy = ratio(in_frame_ms / static_cast<double>(u.frame_ms.size()) *
                       static_cast<double>(u.frames) / 1e3,
                   u.wall_s * shards);
      efficiency = ratio(1.0 / u.scaled_wall_per_frame(),
                         shards / one_shard.scaled_wall_per_frame());
    }
    const energy::OpCounters& ops = totals.ops;
    auto count = [rf](std::uint64_t v) {
      return per_frame(static_cast<double>(v), rf);
    };
    metrics = {
        {"video.source_ns_per_frame", source_ns, "ns"},
        {"codec.encode_ns_per_frame", stage_ns("encode"), "ns"},
        {"codec.decode_ns_per_frame", stage_ns("decode"), "ns"},
        {"codec.concealed_mbs_per_frame", count(totals.concealed_mbs), "count"},
        {"codec.sad_pixel_ops_per_frame", count(ops.sad_pixel_ops), "count"},
        {"codec.sad_halfpel_ops_per_frame", count(ops.sad_halfpel_ops), "count"},
        {"codec.me_invocations_per_frame", count(ops.me_invocations), "count"},
        {"codec.dct_blocks_per_frame", count(ops.dct_blocks), "count"},
        {"codec.bits_per_frame", count(ops.bits_written), "bit"},
        {"core.me_skip_ratio", ratio(static_cast<double>(totals.pre_me_intra), mbs),
         "ratio"},
        {"core.intra_ratio", ratio(static_cast<double>(totals.intra_mbs), mbs),
         "ratio"},
        {"energy.me_share", ratio(totals.me_j, totals.energy_j), "ratio"},
        {"net.packetize_ns_per_frame", stage_ns("packetize"), "ns"},
        {"net.fec_encode_ns_per_frame", stage_ns("fec_encode"), "ns"},
        {"net.transmit_ns_per_frame", stage_ns("transmit"), "ns"},
        {"net.inject_faults_ns_per_frame", stage_ns("inject_faults"), "ns"},
        {"net.verify_integrity_ns_per_frame", stage_ns("verify_integrity"), "ns"},
        {"net.fec_decode_ns_per_frame", stage_ns("fec_decode"), "ns"},
        {"net.depacketize_ns_per_frame", stage_ns("depacketize"), "ns"},
        {"net.packets_per_frame", count(totals.packets_sent), "count"},
        {"net.fec.repair_ratio",
         ratio(static_cast<double>(totals.repair_packets),
               static_cast<double>(totals.media_packets)), "ratio"},
        {"net.fec.recovery_ratio",
         ratio(static_cast<double>(fec.recovered),
               static_cast<double>(fec.media_lost)), "ratio"},
        {"net.fec.unrecoverable_windows",
         ratio(static_cast<double>(totals.unrecoverable_windows),
               static_cast<double>(ref.results.size())), "count"},
        {"net.crc.corrupted_ratio",
         ratio(static_cast<double>(totals.crc_corrupted),
               static_cast<double>(totals.packets_checked)), "ratio"},
        {"net.copied_bytes_per_frame", count(ref.copied_bytes), "B"},
        {"sim.measure_ns_per_frame", stage_ns("measure"), "ns"},
        {"sim.session_overhead_ns_per_frame",
         ks * per_frame(layers.get("frame.self"), stage_frames), "ns"},
        {"sim.ledger_coverage", coverage, "ratio"},
        {"sim.engine.busy_share", busy, "ratio"},
        {"sim.engine.shard_efficiency", efficiency, "ratio"},
        {"sim.admit.accepted", static_cast<double>(u.admission.accepted), "count"},
        {"sim.admit.queued", static_cast<double>(u.admission.queued), "count"},
        {"sim.admit.shed", static_cast<double>(u.admission.shed), "count"},
        {"obs.overhead_ratio", ratio(obs_on_wall, obs_off_wall), "ratio"},
        {"trace.overhead_ratio",
         ratio(tw.scaled_wall_per_frame(), u.scaled_wall_per_frame()), "ratio"},
    };
    const Tally& wrapped = w->fleet ? direct : tw;
    std::printf("identity %llu of %llu stage-wrapped frames match the "
                "unwrapped reference\n",
                static_cast<unsigned long long>(wrapped.attempted - wrapped.failed),
                static_cast<unsigned long long>(wrapped.attempted));
    std::printf("ledger coverage %.4f (tolerance >= %.2f) over %llu frames\n",
                coverage, kMinLedgerCoverage,
                static_cast<unsigned long long>(layers.frames));
    if (coverage < kMinLedgerCoverage || coverage > 1.0) correct = false;

    std::vector<const fb::SessionLedger*> all = fleet_ledgers;
    for (const auto& l : split) all.push_back(l.get());
    const std::string path = o.out_dir + "/spans_" + o.workload + ".json";
    if (!fb::write_chrome_trace(path, all)) {
      std::printf("cannot write %s\n", path.c_str());
      correct = false;
    } else {
      std::printf("spans written to %s\n", path.c_str());
    }
  }

  const Tally& t = main_tally;
  std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
              "\"shards\": %d, \"backend\": \"%s\", \"obs\": %s, "
              "\"variants\": %zu, \"sessions_per_rep\": %d, "
              "\"frames_per_rep\": %d, \"reps\": %llu, \"frames\": %llu, "
              "\"wall_s\": %.3f, \"host_scale\": %.4f}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), cpus,
              shards,
              codec::kernels::backend_name(codec::kernels::active_backend()),
              w->obs_on ? "true" : "false", w->variants.size(),
              w->sessions_per_rep(), w->frames_per_rep(),
              static_cast<unsigned long long>(t.reps),
              static_cast<unsigned long long>(t.frames), t.wall_s, t.scale());
  std::printf("check %llu of %llu frames failed (error_rate %.6f)\n",
              static_cast<unsigned long long>(t.failed),
              static_cast<unsigned long long>(t.attempted),
              ratio(static_cast<double>(t.failed),
                    static_cast<double>(t.attempted)));
  if (t.failed > 0) correct = false;
  print_result(correct, t.attempted, t.failed, metrics);
  return 0;
}
