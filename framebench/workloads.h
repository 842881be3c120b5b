// The benchmark's three workloads, built from the seed. README.md says
// why each exists and which layer it is meant to load.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/session_manager.h"

namespace framebench {

namespace sim = pbpair::sim;

struct Workload {
  /// Observability on for the end-to-end runs (the traced run flips it
  /// once to measure obs.overhead_ratio).
  bool obs_on = false;
  /// Runs through sim::SessionManager::run; otherwise the benchmark steps
  /// each session back to back on one thread (closed loop).
  bool fleet = false;
  sim::SessionManagerOptions options;  // fleet only
  /// Channel realizations drawn from the seed: repetition r runs every
  /// session of variants[r % variants.size()], in order. Variants differ
  /// only in their loss and fault streams; several of them average the
  /// seed-dependent metrics over more realizations in one run.
  std::vector<std::vector<sim::SessionSpec>> variants;

  int frames_per_rep() const;
  int sessions_per_rep() const;
};

/// Builds workload `name` for `seed`: pre-renders the clips it caches and
/// builds its specs. `shards` is the fleet's worker count. Returns null
/// for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int shards);

/// Builds one session from `spec` the way the session engine does (fresh
/// loss model from make_loss), but with `source` in place of spec.source.
std::unique_ptr<sim::StreamSession> build_session(
    const sim::SessionSpec& spec, const std::string& label,
    sim::FrameSource source);

}  // namespace framebench
