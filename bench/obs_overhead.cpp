// Observability overhead — sharded hot-path cost and pipeline drag.
//
// The sharded registry's claim (DESIGN.md §14) is that a counter bump or
// histogram observe from N concurrent threads is a handful of ns on a
// thread-local shard cell — no shared cache line, no mutex. Turning the
// whole obs layer on costs the paper pipeline (full search ±7) a fixed
// per-frame amount: spans, stage clocks and one flush of each counter,
// with no bump per SAD (those counts come from OpCounters, DESIGN.md §8).
// Over 10 runs at 24 frames on a 4-vCPU VM the median of the three row
// ratios was 1.05 at the median run and 1.18 at the worst, against 1.19
// and 1.42 when every SAD bumped two counters.
// Two row families measure exactly that, gated in CI by
// check_bench_regression against the committed BENCH_obs.json (rel 0.5
// growth in obs::default_gates()):
//
//   bump/tN      N threads hammer one Counter (+ one Histogram every 4th
//                op) of a private Registry for kOpsPerThread ops each.
//                ns_per_op is the gated number; mops_per_s is the same
//                measurement upside down. The merged value() afterwards
//                must equal the op count exactly — the shards may not
//                lose a single increment.
//
//   pipeline/tN  8 labeled health-tracked sessions (the serve shape) run
//                to completion under a SessionManager with N workers,
//                best-of-3 with obs disabled vs enabled.
//                overhead_ratio = on_ms / off_ms is the gated number. The
//                in-process abort bars are 1.5 per row and 1.3 on the
//                median of the three rows: obs costs every row the same
//                per-frame work, while scheduler noise on an oversubscribed
//                box (8 workers on 4 vCPUs) moved single rows from 0.67
//                to 1.44 across 10 runs.
//
// Both families are wall-clock, so the CI gate uses a generous relative
// threshold; the PB_CHECK scaling assertions only run on machines with
// enough cores for "parallel" to mean something.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "net/loss_model.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "sim/report.h"
#include "sim/session_manager.h"

using namespace pbpair;

namespace {

constexpr int kThreadCounts[] = {1, 2, 8};
constexpr std::uint64_t kOpsPerThread = 1u << 21;
constexpr int kPipelineSessions = 8;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct BumpRow {
  int threads = 0;
  double ns_per_op = 0.0;
  double mops_per_s = 0.0;
};

/// N threads bump one shared Counter/Histogram pair of a fresh private
/// Registry. Handles are resolved once outside the loop — the macro-site
/// caching every hot path in src/ uses — so this times the shard fast
/// path itself, not the name lookup.
BumpRow run_bump(int threads) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("bench.bump");
  obs::Histogram& histogram = registry.histogram("bench.bump_ns");

  const double t0 = now_ms();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&counter, &histogram] {
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        counter.add(1);
        if ((i & 3u) == 0) {
          histogram.observe(static_cast<std::uint64_t>(i & 0xFFFu));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double elapsed_ms = now_ms() - t0;

  const std::uint64_t total_ops =
      static_cast<std::uint64_t>(threads) * kOpsPerThread;
  // Sharding must be lossless: the merged value is exact, not sampled.
  PB_CHECK(counter.value() == total_ops);
  PB_CHECK(registry.shard_count() == static_cast<std::size_t>(threads));

  BumpRow row;
  row.threads = threads;
  row.ns_per_op = elapsed_ms * 1e6 / static_cast<double>(total_ops);
  row.mops_per_s =
      elapsed_ms > 0.0 ? static_cast<double>(total_ops) / (elapsed_ms * 1e3)
                       : 0.0;
  return row;
}

struct PipelineRow {
  int threads = 0;
  double off_ms = 0.0;
  double on_ms = 0.0;
  double overhead_ratio = 0.0;
};

/// The serve shape: labeled, health-tracked sessions over the paper
/// clips, per-session seeded 10% uniform loss. `tag` keeps the obs
/// session labels distinct across the on/off × thread-count grid.
double run_sessions(int threads, int frames, const char* tag) {
  std::vector<sim::SessionSpec> specs;
  specs.reserve(kPipelineSessions);
  for (int i = 0; i < kPipelineSessions; ++i) {
    sim::SessionSpec spec;
    core::PbpairConfig pbpair;
    pbpair.intra_th = 0.9;
    pbpair.plr = 0.10;
    spec.scheme = sim::SchemeSpec::pbpair(pbpair);
    spec.config = bench::paper_pipeline_config(frames);
    spec.config.health = obs::HealthConfig{};
    spec.source =
        bench::clip_source(bench::kPaperClips[static_cast<std::size_t>(i) % 3]);
    spec.label = sim::format("%s%02d", tag, i);
    const std::uint64_t seed = 2005 + static_cast<std::uint64_t>(i);
    spec.make_loss = [seed] {
      return std::make_unique<net::UniformFrameLoss>(0.10, seed);
    };
    specs.push_back(std::move(spec));
  }
  sim::SessionManager manager(std::move(specs));
  sim::SessionManagerOptions options;
  options.threads = threads;
  const double t0 = now_ms();
  manager.run(options);
  return now_ms() - t0;
}

PipelineRow run_pipeline(int threads, int frames) {
  PipelineRow row;
  row.threads = threads;
  // Interleaved best-of-3: identical specs modulo the session labels (the
  // clip caches are pre-warmed in main(), so no run pays generation), and
  // the min per arm strips scheduler spikes — on a loaded CI box a single
  // off/on pair can disagree with itself by ±30%.
  row.off_ms = 1e300;
  row.on_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    obs::set_enabled(false);
    row.off_ms = std::min(
        row.off_ms,
        run_sessions(threads, frames,
                     sim::format("off_t%d_s", threads).c_str()));
    obs::set_enabled(true);
    row.on_ms = std::min(
        row.on_ms, run_sessions(threads, frames,
                                sim::format("on_t%d_s", threads).c_str()));
  }
  row.overhead_ratio = row.off_ms > 0.0 ? row.on_ms / row.off_ms : 0.0;
  return row;
}

}  // namespace

int main() {
  bench::enable_observability("obs_overhead");
  const int frames = bench::bench_frames();
  std::printf(
      "=== Observability overhead: sharded bump cost and pipeline drag "
      "(%d QCIF frames, %d sessions) ===\n\n",
      frames, kPipelineSessions);

  // Pipeline off/on runs then time codec work only.
  bench::warm_paper_clips(frames);

  std::vector<BumpRow> bump_rows;
  for (int threads : kThreadCounts) {
    bump_rows.push_back(run_bump(threads));
  }
  // Contention bar, meaningful only where threads can actually run in
  // parallel: 8 threads on disjoint shard cells may not serialize into
  // worse than 8x the single-thread per-op cost.
  if (std::thread::hardware_concurrency() >= 4) {
    PB_CHECK(bump_rows[2].ns_per_op <= bump_rows[0].ns_per_op * 8.0);
  }

  std::vector<PipelineRow> pipeline_rows;
  for (int threads : kThreadCounts) {
    pipeline_rows.push_back(run_pipeline(threads, frames));
  }

  sim::Table bump_table({"row", "threads", "ns_per_op", "Mops_per_s"});
  for (const BumpRow& row : bump_rows) {
    bump_table.add_row({sim::format("bump/t%d", row.threads),
                        sim::format("%d", row.threads),
                        sim::format("%.2f", row.ns_per_op),
                        sim::format("%.1f", row.mops_per_s)});
  }
  bump_table.print();
  std::printf("\n");
  sim::Table pipe_table(
      {"row", "threads", "off_ms", "on_ms", "overhead_ratio"});
  for (const PipelineRow& row : pipeline_rows) {
    pipe_table.add_row({sim::format("pipeline/t%d", row.threads),
                        sim::format("%d", row.threads),
                        sim::format("%.1f", row.off_ms),
                        sim::format("%.1f", row.on_ms),
                        sim::format("%.3f", row.overhead_ratio)});
  }
  pipe_table.print();
  std::fflush(stdout);
  // The always-on telemetry bars, at CI's 24-frame quick setting (the
  // per-frame obs cost is fixed and the codec cost scales with frames, so
  // short runs overstate the ratio). Drift is gated by
  // check_bench_regression against the committed BENCH_obs.json.
  std::vector<double> ratios;
  for (const PipelineRow& row : pipeline_rows) {
    PB_CHECK(row.overhead_ratio < 1.5);  // one row: blowups only
    ratios.push_back(row.overhead_ratio);
  }
  // The median row: worst of 10 runs was 1.18 on a 4-vCPU VM; 1.3 leaves
  // ~10% headroom.
  std::sort(ratios.begin(), ratios.end());
  PB_CHECK(ratios[ratios.size() / 2] < 1.3);
  bench::maybe_write_csv(bump_table, "obs_overhead_bump");
  bench::maybe_write_csv(pipe_table, "obs_overhead_pipeline");

  std::string rows_json = "[";
  bool first = true;
  for (const BumpRow& row : bump_rows) {
    rows_json += first ? "\n      {" : ",\n      {";
    first = false;
    rows_json += sim::format(
        "\"name\": \"bump/t%d\", \"threads\": %d, \"ns_per_op\": %.4f, "
        "\"mops_per_s\": %.2f}",
        row.threads, row.threads, row.ns_per_op, row.mops_per_s);
  }
  for (const PipelineRow& row : pipeline_rows) {
    rows_json += sim::format(
        ",\n      {\"name\": \"pipeline/t%d\", \"threads\": %d, "
        "\"off_ms\": %.2f, \"on_ms\": %.2f, \"overhead_ratio\": %.4f}",
        row.threads, row.threads, row.off_ms, row.on_ms,
        row.overhead_ratio);
  }
  rows_json += "\n    ]";

  std::string payload = sim::format("\"frames\": %d,\n  ", frames);
  payload += "\"obs_rows\": " + rows_json;
  bench::write_json_report("obs", payload);
  return 0;
}
