// §3.2 extension — power-aware adaptation.
//
// Two closed-loop scenarios the paper sketches:
//  (1) hold-intra-rate: the PLR swings 5% -> 25% -> 10% mid-session; the
//      controller moves Intra_Th opposite to the PLR so the intra-MB rate
//      (and hence bit rate) stays roughly constant, vs a fixed-threshold
//      run that balloons.
//  (2) max-resilience-in-budget: a session energy budget; each frame the
//      controller sees the true metered energy spent so far and raises
//      Intra_Th (cheaper, more robust frames) when the projection
//      overshoots, relaxing toward the user's base expectation when under.
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "codec/encoder.h"
#include "core/adaptation.h"
#include "core/pbpair_policy.h"
#include "net/feedback.h"
#include "net/loss_model.h"

using namespace pbpair;

namespace {

double plr_at(int frame, int frames) {
  if (frame < frames / 3) return 0.05;
  if (frame < 2 * frames / 3) return 0.25;
  return 0.10;
}

/// Feedback RTT in frames (PBPAIR_FEEDBACK_RTT): how many frames the
/// network's PLR reports lag behind the truth. 0 — the historical
/// instantaneous-feedback setup — reproduces the pre-delay numbers
/// exactly (a report pushed and polled at the same frame index is due
/// immediately, see net::DelayedFeedback).
int feedback_rtt_frames() {
  if (const char* env = std::getenv("PBPAIR_FEEDBACK_RTT")) {
    int n = std::atoi(env);
    if (n >= 0) return n;
  }
  return 0;
}

}  // namespace

int main() {
  const int frames = std::min(bench::bench_frames(), 180);
  const video::SequenceKind kind = video::SequenceKind::kForemanLike;
  const int rtt = feedback_rtt_frames();

  std::printf("=== Extension (3.2): power-aware adaptation (%d frames) ===\n\n",
              frames);

  // --- Scenario 1: hold intra rate under PLR swings -------------------
  std::printf("--- scenario 1: PLR swings 5%% -> 25%% -> 10%%; "
              "hold-intra-rate controller vs fixed threshold "
              "(feedback RTT %d frames) ---\n", rtt);
  for (bool adapt : {false, true}) {
    core::AdaptationConfig aconfig;
    aconfig.goal = core::AdaptationGoal::kHoldIntraRate;
    aconfig.base_intra_th = 0.95;
    aconfig.base_plr = 0.10;
    aconfig.plr_coupling = 0.6;
    core::PowerAwareController controller(aconfig);

    // The measured PLR travels through a delay line: the controller sees
    // the network as it was `rtt` frames ago, not as it is now.
    net::DelayedFeedback<double> plr_feedback(rtt);
    double reported_plr = aconfig.base_plr;  // until the first report lands

    sim::PipelineConfig config = bench::paper_pipeline_config(frames);
    config.pre_frame = [&](int index, codec::RefreshPolicy& policy) {
      auto* p = dynamic_cast<core::PbpairPolicy*>(&policy);
      plr_feedback.push(index, plr_at(index, frames));
      for (double plr : plr_feedback.take_due(index)) reported_plr = plr;
      p->set_plr(reported_plr);  // network feedback reaches the model
      if (adapt) {
        controller.on_plr_update(reported_plr);
        p->set_intra_th(controller.intra_th());
      }
    };
    core::PbpairConfig pbpair;
    pbpair.intra_th = 0.95;
    pbpair.plr = 0.10;
    sim::PipelineResult r = bench::run_clip(
        kind, sim::SchemeSpec::pbpair(pbpair), nullptr, config);

    double phase_intra[3] = {};
    int phase_frames[3] = {};
    for (const sim::FrameTrace& f : r.frames) {
      int phase = f.index < frames / 3 ? 0 : (f.index < 2 * frames / 3 ? 1 : 2);
      phase_intra[phase] += f.intra_mbs;
      phase_frames[phase] += 1;
    }
    std::printf(
        "%-18s intra MBs/frame by phase: %5.1f | %5.1f | %5.1f   "
        "size %.1f KB  encode %.3f J\n",
        adapt ? "adaptive" : "fixed threshold",
        phase_intra[0] / phase_frames[0], phase_intra[1] / phase_frames[1],
        phase_intra[2] / phase_frames[2],
        static_cast<double>(r.total_bytes) / 1024.0,
        r.encode_energy.total_j());
  }

  // --- Scenario 2: energy budget --------------------------------------
  std::printf("\n--- scenario 2: residual-energy budget "
              "(max resilience within budget, true metered feedback) ---\n");
  const video::SyntheticSequence seq = video::make_paper_sequence(kind);
  const energy::DeviceProfile& profile = energy::ipaq_h5555();
  sim::PipelineConfig pconfig = bench::paper_pipeline_config(frames);

  // Reference: what the user's base expectation costs unconstrained.
  auto run_budgeted = [&](bool adapt, double budget_j, double* final_th,
                          std::uint64_t* intra_mbs) {
    core::PbpairConfig base;
    base.intra_th = 0.80;
    base.plr = 0.10;
    core::PbpairPolicy policy(11, 9, base);
    codec::Encoder encoder(pconfig.encoder, &policy);

    core::AdaptationConfig aconfig;
    aconfig.goal = core::AdaptationGoal::kMaxResilienceInBudget;
    aconfig.base_intra_th = 0.80;
    aconfig.energy_budget_j = budget_j > 0 ? budget_j : 1.0;
    aconfig.planned_frames = frames;
    aconfig.step = 0.03;
    core::PowerAwareController controller(aconfig);

    std::uint64_t intra = 0;
    for (int i = 0; i < frames; ++i) {
      if (adapt && i > 0) {
        double spent = encode_energy(encoder.ops(), profile).total_j();
        controller.on_energy_update(spent, i);
        policy.set_intra_th(controller.intra_th());
      }
      codec::EncodedFrame f = encoder.encode_frame(seq.frame_at(i));
      intra += static_cast<std::uint64_t>(f.intra_mb_count());
    }
    *final_th = adapt ? controller.intra_th() : 0.80;
    *intra_mbs = intra;
    return encode_energy(encoder.ops(), profile).total_j();
  };

  double th_unused;
  std::uint64_t intra_unused;
  double unconstrained_j = run_budgeted(false, 0.0, &th_unused, &intra_unused);
  const double budget_j = unconstrained_j * 0.85;
  std::printf("unconstrained run at Intra_Th 0.80: %.3f J; budget: %.3f J\n",
              unconstrained_j, budget_j);

  for (bool adapt : {false, true}) {
    double final_th = 0.0;
    std::uint64_t intra_mbs = 0;
    double spent = run_budgeted(adapt, budget_j, &final_th, &intra_mbs);
    std::printf(
        "%-18s encode %.3f J (budget %.3f) -> %s; final Intra_Th %.3f; "
        "intra MBs %llu\n",
        adapt ? "adaptive" : "fixed threshold", spent, budget_j,
        spent <= budget_j ? "WITHIN budget" : "OVER budget", final_th,
        static_cast<unsigned long long>(intra_mbs));
  }

  std::printf(
      "\nexpected shape: the adaptive run keeps the intra rate (and bit\n"
      "rate) stable across PLR phases, and lands within the energy budget\n"
      "by raising Intra_Th (more intra = less ME = less encode energy),\n"
      "gaining MORE refresh (robustness) in the process.\n");
  return 0;
}
