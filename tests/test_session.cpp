// StreamSession: the stage-composable pipeline (DESIGN.md §9).
//
// The load-bearing test here is ShimMatchesMonolithicReferenceLoop: it
// re-implements the historical run_pipeline() loop verbatim (encoder ->
// packetizer -> channel -> depacketize -> decoder -> metrics, no stages)
// and asserts the session-based shim reproduces it byte-for-byte —
// bitstream, every report field, and the energy joules — so the whole
// existing bench/test corpus doubles as a regression harness for the
// session refactor.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "codec/kernels/kernels.h"
#include "net/feedback.h"
#include "net/loss_model.h"
#include "sim/pipeline.h"
#include "sim/session.h"

namespace pbpair::sim {
namespace {

PipelineConfig short_config(int frames = 20) {
  PipelineConfig config;
  config.frames = frames;
  return config;
}

core::PbpairConfig pbpair_config(double th, double plr) {
  core::PbpairConfig c;
  c.intra_th = th;
  c.plr = plr;
  return c;
}

// The pre-session pipeline loop, kept as the byte-identity reference.
struct ReferenceRun {
  std::vector<std::uint8_t> bitstream;  // all encoded frames concatenated
  PipelineResult result;
};

ReferenceRun run_monolithic_reference(const video::SyntheticSequence& seq,
                                      const SchemeSpec& scheme,
                                      net::LossModel* loss,
                                      const PipelineConfig& config) {
  const int mb_cols = config.encoder.width / 16;
  const int mb_rows = config.encoder.height / 16;
  std::unique_ptr<codec::RefreshPolicy> policy =
      make_policy(scheme, mb_cols, mb_rows);
  codec::Encoder encoder(config.encoder, policy.get());
  codec::Decoder decoder(codec::DecoderConfig{
      config.encoder.width, config.encoder.height, config.concealment});
  net::Packetizer packetizer(config.packetizer);
  net::NoLoss no_loss;
  net::Channel channel(loss != nullptr ? loss : &no_loss);
  std::optional<codec::RateController> rate;
  if (config.rate_control.has_value()) rate.emplace(*config.rate_control);

  ReferenceRun run;
  double psnr_sum = 0.0;
  for (int i = 0; i < config.frames; ++i) {
    if (config.pre_frame) config.pre_frame(i, *policy);
    if (rate) encoder.set_qp(rate->qp());
    video::YuvFrame original = seq.frame_at(i);
    codec::EncodedFrame encoded = encoder.encode_frame(original);
    if (rate) {
      rate->on_frame_encoded(encoded.size_bytes(),
                             encoded.type == codec::FrameType::kIntra);
    }
    run.bitstream.insert(run.bitstream.end(), encoded.bytes.begin(),
                         encoded.bytes.end());
    std::vector<net::Packet> packets = packetizer.packetize(encoded);
    std::vector<net::Packet> delivered = channel.transmit(packets);
    codec::ReceivedFrame received = net::depacketize(delivered, i);
    const video::YuvFrame& output = decoder.decode_frame(received);

    FrameTrace trace;
    trace.index = i;
    trace.qp = encoded.qp;
    trace.type = encoded.type;
    trace.bytes = encoded.size_bytes();
    trace.intra_mbs = encoded.intra_mb_count();
    for (const codec::MbEncodeRecord& record : encoded.mb_records) {
      if (record.pre_me_intra) ++trace.pre_me_intra_mbs;
    }
    trace.lost = delivered.size() != packets.size();
    trace.psnr_db = video::psnr_luma(original, output);
    trace.bad_pixels =
        video::bad_pixel_count(original, output, config.bad_pixel_threshold);
    psnr_sum += trace.psnr_db;
    run.result.total_bytes += trace.bytes;
    run.result.total_bad_pixels += trace.bad_pixels;
    run.result.total_intra_mbs += static_cast<std::uint64_t>(trace.intra_mbs);
    run.result.frames.push_back(trace);
  }
  run.result.avg_psnr_db = psnr_sum / config.frames;
  run.result.encoder_ops = encoder.ops();
  run.result.encode_energy = encode_energy(encoder.ops(), *config.profile);
  run.result.channel = channel.stats();
  run.result.tx_energy_j =
      energy::tx_energy_j(channel.stats().bytes_sent, *config.profile);
  run.result.concealed_mbs = decoder.concealed_mbs();
  return run;
}

void expect_results_identical(const PipelineResult& a,
                              const PipelineResult& b) {
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.total_bad_pixels, b.total_bad_pixels);
  EXPECT_EQ(a.total_intra_mbs, b.total_intra_mbs);
  EXPECT_EQ(a.concealed_mbs, b.concealed_mbs);
  EXPECT_DOUBLE_EQ(a.avg_psnr_db, b.avg_psnr_db);
  EXPECT_DOUBLE_EQ(a.encode_energy.total_j(), b.encode_energy.total_j());
  EXPECT_DOUBLE_EQ(a.tx_energy_j, b.tx_energy_j);
  EXPECT_EQ(a.channel.packets_sent, b.channel.packets_sent);
  EXPECT_EQ(a.channel.packets_dropped, b.channel.packets_dropped);
  EXPECT_EQ(a.channel.bytes_sent, b.channel.bytes_sent);
  EXPECT_EQ(a.encoder_ops.sad_pixel_ops, b.encoder_ops.sad_pixel_ops);
  EXPECT_EQ(a.encoder_ops.bits_written, b.encoder_ops.bits_written);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].bytes, b.frames[i].bytes);
    EXPECT_EQ(a.frames[i].intra_mbs, b.frames[i].intra_mbs);
    EXPECT_EQ(a.frames[i].lost, b.frames[i].lost);
    EXPECT_DOUBLE_EQ(a.frames[i].psnr_db, b.frames[i].psnr_db);
    EXPECT_EQ(a.frames[i].bad_pixels, b.frames[i].bad_pixels);
  }
}

TEST(StreamSession, ShimMatchesMonolithicReferenceLoop) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  PipelineConfig config = short_config(25);
  SchemeSpec scheme = SchemeSpec::pbpair(pbpair_config(0.9, 0.10));

  net::UniformFrameLoss ref_loss(0.15, /*seed=*/2005);
  ReferenceRun reference =
      run_monolithic_reference(seq, scheme, &ref_loss, config);

  // Session side: same inputs, plus a tap stage collecting the bitstream —
  // the stage API at work on the exact path under test.
  net::UniformFrameLoss session_loss(0.15, /*seed=*/2005);
  StreamSession session([&seq](int i) { return seq.frame_at(i); }, scheme,
                        &session_loss, config);
  std::vector<std::uint8_t> bitstream;
  session.insert_stage_after(
      "encode", {"bitstream-tap", [&bitstream](FrameContext& ctx,
                                               StreamSession&) {
                   bitstream.insert(bitstream.end(), ctx.encoded.bytes.begin(),
                                    ctx.encoded.bytes.end());
                 }});
  session.run_to_end();
  PipelineResult result = session.take_result();

  EXPECT_EQ(bitstream, reference.bitstream);  // bitstream byte-identical
  expect_results_identical(reference.result, result);

  // And run_pipeline (the public shim) agrees with both.
  net::UniformFrameLoss shim_loss(0.15, /*seed=*/2005);
  PipelineResult shim = run_pipeline(seq, scheme, &shim_loss, config);
  expect_results_identical(reference.result, shim);
}

TEST(StreamSession, ShimMatchesReferenceWithRateControlAndHooks) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kGardenLike);
  PipelineConfig config = short_config(15);
  codec::RateControlConfig rate;
  rate.target_kbps = 96.0;
  rate.initial_qp = 12;
  config.rate_control = rate;
  config.pre_frame = [](int index, codec::RefreshPolicy& policy) {
    if (auto* p = dynamic_cast<core::PbpairPolicy*>(&policy)) {
      p->set_intra_th(index < 8 ? 0.85 : 0.95);
    }
  };
  SchemeSpec scheme = SchemeSpec::pbpair(pbpair_config(0.85, 0.10));

  net::UniformFrameLoss ref_loss(0.10, /*seed=*/7);
  ReferenceRun reference =
      run_monolithic_reference(seq, scheme, &ref_loss, config);
  net::UniformFrameLoss shim_loss(0.10, /*seed=*/7);
  PipelineResult shim = run_pipeline(seq, scheme, &shim_loss, config);
  expect_results_identical(reference.result, shim);
}

// The "measure" stage computes PSNR and bad pixels from one fused per-MB
// pass (codec/mb_error.h); on a lossy run, under every kernel backend, its
// values must equal the scalar reference metrics bit for bit.
TEST(StreamSession, MeasureStageMatchesScalarMetricsBitForBit) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  const codec::kernels::Backend original =
      codec::kernels::active_backend();
  for (codec::kernels::Backend backend :
       codec::kernels::supported_backends()) {
    ASSERT_TRUE(codec::kernels::set_active(backend));
    SCOPED_TRACE(codec::kernels::backend_name(backend));
    PipelineConfig config = short_config(20);
    config.bad_pixel_threshold = 7;
    net::UniformFrameLoss loss(0.2, /*seed=*/2005);
    StreamSession session([&seq](int i) { return seq.frame_at(i); },
                          SchemeSpec::no_resilience(), &loss, config);
    int checked = 0;
    int damaged = 0;
    auto check = [&](FrameContext& ctx, StreamSession& s) {
      const double want = video::psnr_luma(ctx.original, *ctx.output);
      EXPECT_EQ(std::memcmp(&want, &ctx.trace.psnr_db, sizeof(want)), 0)
          << "frame " << ctx.index;
      EXPECT_EQ(ctx.trace.bad_pixels,
                video::bad_pixel_count(ctx.original, *ctx.output, 7));
      ASSERT_EQ(s.mb_errors().size(),
                static_cast<std::size_t>(ctx.original.mb_count()));
      std::uint64_t sse = 0;
      for (const codec::MbError& e : s.mb_errors()) sse += e.sse;
      EXPECT_EQ(sse, video::sse_luma(ctx.original, *ctx.output));
      ++checked;
      if (ctx.trace.lost) ++damaged;
    };
    session.insert_stage_after("measure", {"metrics-check", check});
    session.run_to_end();
    EXPECT_EQ(checked, 20);
    EXPECT_GT(damaged, 0);  // the loss actually reached the metrics
  }
  ASSERT_TRUE(codec::kernels::set_active(original));
}

TEST(StreamSession, StepAdvancesExactlyOneFrame) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  StreamSession session([&seq](int i) { return seq.frame_at(i); },
                        SchemeSpec::no_resilience(), nullptr,
                        short_config(5));
  EXPECT_FALSE(session.done());
  EXPECT_EQ(session.frames_done(), 0);
  const FrameTrace& first = session.step();
  EXPECT_EQ(first.index, 0);
  EXPECT_EQ(session.frames_done(), 1);
  while (!session.done()) session.step();
  EXPECT_EQ(session.frames_done(), 5);
  PipelineResult result = session.take_result();
  EXPECT_EQ(result.frames.size(), 5u);
}

TEST(StreamSession, ReplaceStageSwapsTheChannel) {
  // Swap "transmit" for a black-hole channel: every frame is lost, the
  // decoder conceals everything — no loop code touched.
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  StreamSession session([&seq](int i) { return seq.frame_at(i); },
                        SchemeSpec::no_resilience(), nullptr,
                        short_config(6));
  session.replace_stage("transmit",
                        {"black-hole", [](FrameContext& ctx, StreamSession&) {
                           ctx.delivered.clear();
                         }});
  session.run_to_end();
  PipelineResult result = session.take_result();
  EXPECT_GT(result.concealed_mbs, 0u);
  for (const FrameTrace& f : result.frames) EXPECT_TRUE(f.lost);
}

TEST(StreamSession, InsertAndRemoveStagesByName) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  StreamSession session([&seq](int i) { return seq.frame_at(i); },
                        SchemeSpec::no_resilience(), nullptr,
                        short_config(3));
  int taps = 0;
  session.insert_stage_before("decode",
                              {"tap", [&taps](FrameContext&, StreamSession&) {
                                 ++taps;
                               }});
  ASSERT_EQ(session.stages().size(), 7u);
  session.step();
  EXPECT_EQ(taps, 1);
  session.remove_stage("tap");
  ASSERT_EQ(session.stages().size(), 6u);
  session.run_to_end();
  EXPECT_EQ(taps, 1);
}

// Re-entrancy audit: interleaving two live sessions frame-by-frame must
// give exactly the results of running each alone — the codec keeps no
// hidden per-process coding state (the only process-wide pieces are the
// read-only kernel table and the obs registry, which never feeds back).
TEST(StreamSession, InterleavedSessionsMatchIsolatedRuns) {
  video::SyntheticSequence foreman =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::SyntheticSequence garden =
      video::make_paper_sequence(video::SequenceKind::kGardenLike);
  PipelineConfig config = short_config(12);
  SchemeSpec scheme_a = SchemeSpec::pbpair(pbpair_config(0.9, 0.10));
  SchemeSpec scheme_b = SchemeSpec::gop(3);

  net::UniformFrameLoss loss_a1(0.2, 11), loss_b1(0.2, 22);
  StreamSession a([&foreman](int i) { return foreman.frame_at(i); }, scheme_a,
                  &loss_a1, config);
  StreamSession b([&garden](int i) { return garden.frame_at(i); }, scheme_b,
                  &loss_b1, config);
  while (!a.done() || !b.done()) {
    if (!a.done()) a.step();
    if (!b.done()) b.step();
  }
  PipelineResult interleaved_a = a.take_result();
  PipelineResult interleaved_b = b.take_result();

  net::UniformFrameLoss loss_a2(0.2, 11), loss_b2(0.2, 22);
  PipelineResult isolated_a = run_pipeline(foreman, scheme_a, &loss_a2, config);
  PipelineResult isolated_b = run_pipeline(garden, scheme_b, &loss_b2, config);
  expect_results_identical(isolated_a, interleaved_a);
  expect_results_identical(isolated_b, interleaved_b);
}

// --- Delayed feedback ---

TEST(DelayedFeedback, ZeroDelayDeliversSameFrame) {
  net::DelayedFeedback<double> queue(0);
  queue.push(3, 0.25);
  std::vector<double> due = queue.take_due(3);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_DOUBLE_EQ(due[0], 0.25);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(DelayedFeedback, PositiveDelayHoldsUntilRtt) {
  net::DelayedFeedback<int> queue(4);
  queue.push(0, 100);
  queue.push(1, 101);
  EXPECT_TRUE(queue.take_due(3).empty());
  std::vector<int> due = queue.take_due(4);  // frame 0's payload is due
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 100);
  due = queue.take_due(10);  // everything else, FIFO
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 101);
}

TEST(StreamSession, FeedbackLoopSeesLossOnlyAfterRtt) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);

  // Drop frame 2 entirely; record when reports arrive and when the
  // reported loss first turns nonzero, at two RTTs.
  auto report_frames = [&seq](int rtt, int* first_report,
                              int* first_loss_report) {
    PipelineConfig config = short_config(14);
    config.feedback_rtt_frames = rtt;
    *first_report = -1;
    *first_loss_report = -1;
    config.on_feedback = [&](int frame, const net::ReceiverReport& report,
                             codec::RefreshPolicy&) {
      if (*first_report < 0) *first_report = frame;
      if (*first_loss_report < 0 && report.cumulative_lost > 0) {
        *first_loss_report = frame;
      }
    };
    net::ScriptedFrameLoss loss({2});
    StreamSession session([&seq](int i) { return seq.frame_at(i); },
                          SchemeSpec::pbpair(pbpair_config(0.9, 0.1)), &loss,
                          config);
    session.run_to_end();
  };

  int first_rtt0 = -1, first_loss_rtt0 = -1;
  report_frames(0, &first_rtt0, &first_loss_rtt0);
  EXPECT_EQ(first_rtt0, 1);  // frame 0's report lands before frame 1
  // The gap left by frame 2 is noticed when frame 3's packets arrive, so
  // the loss-bearing report is pushed at frame 3 and (RTT 0) delivered
  // before frame 4.
  EXPECT_EQ(first_loss_rtt0, 4);

  int first_rtt5 = -1, first_loss_rtt5 = -1;
  report_frames(5, &first_rtt5, &first_loss_rtt5);
  EXPECT_EQ(first_rtt5, 5);           // frame 0's report delayed by RTT
  EXPECT_EQ(first_loss_rtt5, 3 + 5);  // pushed at 3, due RTT frames later
}

TEST(StreamSession, FeedbackLoopDoesNotPerturbPipelineOutput) {
  // A feedback consumer that only observes must leave every output byte
  // unchanged (the estimator and queue live outside the coding loop).
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  PipelineConfig plain = short_config(10);
  SchemeSpec scheme = SchemeSpec::pbpair(pbpair_config(0.9, 0.1));
  net::UniformFrameLoss loss_a(0.2, 5);
  PipelineResult without = run_pipeline(seq, scheme, &loss_a, plain);

  PipelineConfig with_feedback = plain;
  with_feedback.feedback_rtt_frames = 2;
  int reports = 0;
  with_feedback.on_feedback = [&reports](int, const net::ReceiverReport&,
                                         codec::RefreshPolicy&) { ++reports; };
  net::UniformFrameLoss loss_b(0.2, 5);
  PipelineResult with = run_pipeline(seq, scheme, &loss_b, with_feedback);
  EXPECT_GT(reports, 0);
  expect_results_identical(without, with);
}

// --- make_pipeline_evaluator lifetime (the dangling-capture fix) ---

TEST(PipelineEvaluator, OutlivesTheSourceSequence) {
  PipelineConfig config = short_config(8);
  core::PointEvaluator evaluator;
  {
    video::SyntheticSequence doomed =
        video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
    evaluator = make_pipeline_evaluator(doomed, config, /*seed=*/7);
  }  // `doomed` destroyed: the evaluator must hold its own copy

  core::OperatingPoint point;
  point.intra_th = 0.9;
  point.plr = 0.1;
  evaluator(point);

  video::SyntheticSequence fresh =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  core::OperatingPoint expected;
  expected.intra_th = 0.9;
  expected.plr = 0.1;
  make_pipeline_evaluator(fresh, config, /*seed=*/7)(expected);
  EXPECT_DOUBLE_EQ(point.avg_psnr_db, expected.avg_psnr_db);
  EXPECT_DOUBLE_EQ(point.size_kb, expected.size_kb);
  EXPECT_DOUBLE_EQ(point.total_energy_j, expected.total_energy_j);
}

// --- frame-trace file (header + flush-on-close) ---

TEST(StreamSession, FrameTraceFlushedOnTakeResultWhileSessionLives) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  PipelineConfig config = short_config(4);
  const std::string path = "/tmp/pbpair_session_trace_test.jsonl";
  config.frame_trace_path = path;
  config.frame_trace_seed = 99;

  StreamSession session([&seq](int i) { return seq.frame_at(i); },
                        SchemeSpec::gop(2), nullptr, config);
  session.run_to_end();
  session.take_result();

  // The session object is still alive; the file must already be complete.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"scheme\":\"GOP-2\""), std::string::npos);
  EXPECT_NE(line.find("\"seed\":99"), std::string::npos);
  EXPECT_NE(line.find("\"width\":176"), std::string::npos);
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, config.frames);
  std::remove(path.c_str());
}

TEST(StreamSession, FrameTraceRerunsAreByteIdentical) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  PipelineConfig config = short_config(6);
  const std::string path = "/tmp/pbpair_session_trace_rerun.jsonl";
  config.frame_trace_path = path;
  config.frame_trace_seed = 2005;

  auto run_once = [&] {
    net::UniformFrameLoss loss(0.2, /*seed=*/2005);
    run_pipeline(seq, SchemeSpec::pbpair(pbpair_config(0.9, 0.1)), &loss,
                 config);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pbpair::sim
