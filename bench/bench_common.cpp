#include "bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pbpair::bench {

int bench_frames() {
  const char* env = std::getenv("PBPAIR_BENCH_FRAMES");
  if (env != nullptr) {
    int frames = std::atoi(env);
    if (frames >= 10) return frames;
  }
  return 300;
}

sim::FrameSource clip_source(video::SequenceKind kind) {
  const video::SyntheticSequence seq = video::make_paper_sequence(kind);
  return [seq](int i) { return seq.frame_at(i); };
}

void warm_paper_clips(int frames) {
  for (video::SequenceKind kind : kPaperClips) {
    const video::SyntheticSequence seq = video::make_paper_sequence(kind);
    for (int i = 0; i < frames; ++i) seq.frame_at(i);
  }
}

sim::PipelineConfig paper_pipeline_config(int frames) {
  sim::PipelineConfig config;
  config.frames = frames;
  config.encoder.qp = 10;
  config.encoder.search.strategy = codec::SearchStrategy::kFullSearch;
  config.encoder.search.range = 7;
  return config;
}

double calibrate_pbpair_to_size(video::SequenceKind kind,
                                std::uint64_t target_bytes, double plr) {
  // Calibrate on a 100-frame prefix: per-frame size is stationary, so the
  // matching threshold transfers to the full run (and the bisection stays
  // affordable: 8 encode passes).
  const int frames = std::min(bench_frames(), 100);
  const double scale =
      static_cast<double>(frames) / static_cast<double>(bench_frames());
  const auto scaled_target =
      static_cast<std::uint64_t>(static_cast<double>(target_bytes) * scale);
  sim::PipelineConfig config = paper_pipeline_config(frames);
  sim::FrameSource source = clip_source(kind);

  core::PbpairConfig pbpair;
  pbpair.plr = plr;
  double lo = 0.0, hi = 1.0, best = 0.9;
  double best_err = -1.0;
  for (int iter = 0; iter < 8; ++iter) {
    double mid = 0.5 * (lo + hi);
    pbpair.intra_th = mid;
    sim::PipelineResult r =
        sim::run_pipeline(source, sim::SchemeSpec::pbpair(pbpair), nullptr,
                          config);
    double err = std::abs(static_cast<double>(r.total_bytes) -
                          static_cast<double>(scaled_target));
    if (best_err < 0 || err < best_err) {
      best_err = err;
      best = mid;
    }
    if (r.total_bytes > scaled_target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return best;
}

void maybe_write_csv(const sim::Table& table, const std::string& name) {
  const char* dir = std::getenv("PBPAIR_BENCH_CSV_DIR");
  if (dir == nullptr) return;
  std::string path = std::string(dir) + "/" + name + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  table.print_csv(f);
  std::fclose(f);
  std::printf("(csv written to %s)\n", path.c_str());
}

void enable_observability(const char* bench_name) {
  obs::set_enabled(true);
  obs::set_thread_name(std::string("bench-") + bench_name);
}

std::string table_to_json(const sim::Table& table) {
  // Cells are emitted as strings exactly as formatted for the text table;
  // the report is for humans and regression diffs, not for re-computation.
  auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };
  std::string json = "[";
  for (std::size_t r = 0; r < table.rows().size(); ++r) {
    const std::vector<std::string>& row = table.rows()[r];
    json += r == 0 ? "\n      {" : ",\n      {";
    for (std::size_t c = 0; c < table.header().size() && c < row.size(); ++c) {
      if (c > 0) json += ", ";
      json += '"';
      json += escape(table.header()[c]);
      json += "\": \"";
      json += escape(row[c]);
      json += '"';
    }
    json += "}";
  }
  json += "\n    ]";
  return json;
}

void write_json_report(const std::string& name,
                       const std::string& payload_fields) {
  const char* path_env = std::getenv("PBPAIR_BENCH_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  %s,\n  \"metrics\": %s\n}\n",
               name.c_str(), payload_fields.c_str(),
               obs::Registry::global().to_json(false).c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  const char* trace_path = std::getenv("PBPAIR_TRACE_JSON");
  if (trace_path != nullptr) {
    if (obs::write_chrome_trace(trace_path)) {
      std::printf("wrote %s (%zu spans)\n", trace_path,
                  obs::trace_span_count());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path);
    }
  }
}

sim::PipelineResult run_clip(video::SequenceKind kind,
                             const sim::SchemeSpec& scheme,
                             net::LossModel* loss,
                             const sim::PipelineConfig& config) {
  return sim::run_pipeline(clip_source(kind), scheme, loss, config);
}

sim::SweepTask clip_task(
    video::SequenceKind kind, const sim::SchemeSpec& scheme,
    const sim::PipelineConfig& config,
    std::function<std::unique_ptr<net::LossModel>()> make_loss) {
  sim::SweepTask task;
  task.scheme = scheme;
  task.config = config;
  task.source = clip_source(kind);
  task.make_loss = std::move(make_loss);
  return task;
}

}  // namespace pbpair::bench
