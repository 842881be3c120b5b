#include "workloads.h"

#include "core/pbpair_policy.h"
#include "net/loss_model.h"
#include "video/sequence.h"

namespace framebench {

using namespace pbpair;
namespace {

constexpr video::SequenceKind kClipKinds[] = {
    video::SequenceKind::kForemanLike, video::SequenceKind::kAkiyoLike,
    video::SequenceKind::kGardenLike};
constexpr const char* kClipNames[] = {"foreman", "akiyo", "garden"};

// splitmix64: spreads one command-line seed over independent stream seeds.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed + salt * 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Renders `frames` frames of a paper clip once; the source hands out
// copies, as a caller holding decoded frames in memory would.
sim::FrameSource prerendered_source(video::SequenceKind kind, int frames) {
  const video::SyntheticSequence sequence = video::make_paper_sequence(kind);
  auto clip = std::make_shared<std::vector<video::YuvFrame>>();
  clip->reserve(static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i) clip->push_back(sequence.frame_at(i));
  return [clip](int i) { return (*clip)[static_cast<std::size_t>(i)]; };
}

sim::SchemeSpec pbpair_scheme() {
  core::PbpairConfig pbpair;
  pbpair.intra_th = 0.9;
  pbpair.plr = 0.10;
  return sim::SchemeSpec::pbpair(pbpair);
}

// The paper's evaluation path: full search +/-7 half-pel, QP 10, MTU 1400,
// uniform 10% frame loss, one 300-frame session per paper clip.
std::vector<sim::SessionSpec> paper_call(
    std::uint64_t stream, const std::vector<sim::FrameSource>& clips) {
  std::vector<sim::SessionSpec> specs;
  for (std::size_t c = 0; c < 3; ++c) {
    sim::SessionSpec spec;
    spec.scheme = pbpair_scheme();
    spec.config.frames = 300;
    spec.config.encoder.qp = 10;
    spec.config.encoder.search.strategy = codec::SearchStrategy::kFullSearch;
    spec.config.encoder.search.range = 7;
    spec.config.packetizer.mtu = 1400;
    spec.source = clips[c];
    const std::uint64_t loss_seed = mix(stream, 100 + c);
    spec.make_loss = [loss_seed] {
      return std::make_unique<net::UniformFrameLoss>(0.10, loss_seed);
    };
    spec.label = std::string("paper_call.") + kClipNames[c];
    specs.push_back(std::move(spec));
  }
  return specs;
}

// `pbpair serve` as tools/pbpair_cli.cpp builds it: procedural source,
// default (diamond +/-15 half-pel) encoder, health on, per-session seeded
// 10% uniform loss, clips rotating. Four sessions per shard against a live
// cap of 2 per shard, so admission queues some of them.
std::vector<sim::SessionSpec> serve_fleet(std::uint64_t stream, int shards) {
  std::vector<sim::SessionSpec> specs;
  for (int i = 0; i < 4 * shards; ++i) {
    sim::SessionSpec spec;
    spec.scheme = pbpair_scheme();
    spec.config.frames = 60;
    spec.config.encoder.qp = 10;
    spec.config.health = obs::HealthConfig{};
    const video::SyntheticSequence sequence =
        video::make_paper_sequence(kClipKinds[i % 3]);
    spec.source = [sequence](int f) { return sequence.frame_at(f); };
    const std::uint64_t loss_seed =
        mix(stream, 200 + static_cast<std::uint64_t>(i));
    spec.make_loss = [loss_seed] {
      return std::make_unique<net::UniformFrameLoss>(0.10, loss_seed);
    };
    specs.push_back(std::move(spec));
  }
  return specs;
}

// The damaged network: garden at QP 4 / MTU 400 (about 17 packets a frame
// on the wire), RS(4,2) FEC, CRC framing, bit flips + duplicates +
// reorders, Gilbert-Elliott bursts, RTCP receiver reports every 10 frames
// at a fixed 2-frame RTT steering PBPAIR's PLR (paper section 3.2).
std::vector<sim::SessionSpec> burst_wire(std::uint64_t stream,
                                         const sim::FrameSource& garden) {
  sim::SessionSpec spec;
  spec.scheme = pbpair_scheme();
  spec.config.frames = 300;
  spec.config.encoder.qp = 4;
  spec.config.packetizer.mtu = 400;
  net::FecConfig fec;
  fec.scheme = net::FecScheme::kReedSolomon;
  fec.k = 4;
  fec.m = 2;
  spec.config.fec = fec;
  spec.config.wire = net::WireConfig{};
  net::FaultInjectorConfig faults;
  faults.seed = mix(stream, 300);
  faults.p_bit_flip = 0.02;
  faults.p_duplicate = 0.02;
  faults.p_reorder = 0.02;
  spec.config.faults = faults;
  spec.config.feedback_rtt_frames = 2;
  spec.config.feedback_interval_frames = 10;
  spec.config.on_feedback = [](int, const net::ReceiverReport& report,
                               codec::RefreshPolicy& policy) {
    if (auto* p = dynamic_cast<core::PbpairPolicy*>(&policy)) {
      p->set_plr(report.fraction_lost_as_double());
    }
  };
  spec.source = garden;
  const std::uint64_t loss_seed = mix(stream, 301);
  spec.make_loss = [loss_seed] {
    return std::make_unique<net::GilbertElliottLoss>(
        net::GilbertElliottLoss::Params{}, loss_seed);
  };
  spec.label = "burst_wire.garden";
  return {std::move(spec)};
}

}  // namespace

int Workload::frames_per_rep() const {
  int frames = 0;
  for (const sim::SessionSpec& spec : variants.front()) frames += spec.config.frames;
  return frames;
}

int Workload::sessions_per_rep() const {
  return static_cast<int>(variants.front().size());
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int shards) {
  auto w = std::make_unique<Workload>();
  // Variant counts: enough realizations that the seed-dependent metrics
  // (PSNR; bytes and joules where feedback steers the encoder) move by
  // well under their bounds from seed to seed.
  if (name == "paper_call") {
    w->obs_on = true;
    std::vector<sim::FrameSource> clips;
    for (const video::SequenceKind kind : kClipKinds) {
      clips.push_back(prerendered_source(kind, 300));
    }
    for (std::uint64_t v = 1; v <= 2; ++v) {
      w->variants.push_back(paper_call(mix(seed, v), clips));
    }
  } else if (name == "serve_fleet") {
    w->obs_on = true;
    w->fleet = true;
    w->options.threads = shards;
    w->options.frames_per_slice = 4;
    sim::AdmissionConfig admission;
    admission.max_live_per_shard = 2;
    w->options.admission = admission;
    for (std::uint64_t v = 1; v <= 6; ++v) {
      w->variants.push_back(serve_fleet(mix(seed, v), shards));
    }
  } else if (name == "burst_wire") {
    const sim::FrameSource garden =
        prerendered_source(video::SequenceKind::kGardenLike, 300);
    for (std::uint64_t v = 1; v <= 8; ++v) {
      w->variants.push_back(burst_wire(mix(seed, v), garden));
    }
  } else {
    return nullptr;
  }
  return w;
}

std::unique_ptr<sim::StreamSession> build_session(
    const sim::SessionSpec& spec, const std::string& label,
    sim::FrameSource source) {
  std::unique_ptr<net::LossModel> loss;
  if (spec.make_loss) loss = spec.make_loss();
  return std::make_unique<sim::StreamSession>(
      std::move(source), spec.scheme, std::move(loss), spec.config, label);
}

}  // namespace framebench
