#include "hostspeed.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "ledger.h"

namespace framebench {
namespace {

constexpr int kW = 176, kH = 144;  // QCIF luma, like the workloads

// Keeps each unit's result alive; atomic because probe threads store at once.
std::atomic<std::int64_t> g_sink{0};

struct Unit {
  std::vector<std::uint8_t> cur, ref, copy;
  std::vector<std::uint32_t> bits;
  std::int64_t acc = 0;
  double dct_acc = 0.0;
  std::uint32_t word = 0;
  int fill = 0;
  std::size_t pos = 0;
};

// Half a unit: full search +/-6 over 24 blocks, 300 8x8 float
// transforms, 60k variable-length codes packed into words, 40 frame copies.
void half(Unit& u) {
  for (int mb = 0; mb < 24; ++mb) {
    const int ox = 16 + (mb % 8) * 16, oy = 16 + (mb / 8) * 32;
    for (int dy = -6; dy <= 6; ++dy) {
      for (int dx = -6; dx <= 6; ++dx) {
        int sad = 0;
        for (int r = 0; r < 16; ++r) {
          const std::uint8_t* a = &u.cur[static_cast<std::size_t>((oy + r) * kW + ox)];
          const std::uint8_t* b =
              &u.ref[static_cast<std::size_t>((oy + r + dy) * kW + ox + dx)];
          for (int c = 0; c < 16; ++c) sad += std::abs(a[c] - b[c]);
        }
        u.acc += sad;
      }
    }
  }
  for (int blk = 0; blk < 300; ++blk) {
    double in[64], out[64];
    for (int i = 0; i < 64; ++i) in[i] = u.cur[static_cast<std::size_t>(blk * 64 + i)];
    for (int row = 0; row < 8; ++row) {
      for (int k = 0; k < 8; ++k) {
        double s = 0.0;
        for (int i = 0; i < 8; ++i) {
          s += in[row * 8 + i] * std::cos((2 * i + 1) * k * 0.19634954084936207);
        }
        out[row * 8 + k] = s;
      }
    }
    u.dct_acc += out[blk % 64];
  }
  for (std::size_t i = 0; i < 60000; ++i) {
    const std::uint32_t symbol = u.cur[i % u.cur.size()];
    const int len = symbol < 16 ? 3 : symbol < 64 ? 6 : symbol < 192 ? 9 : 12;
    u.word = (u.word << len) | (symbol & ((1u << len) - 1));
    u.fill += len;
    if (u.fill >= 20) {
      u.bits[u.pos++ % u.bits.size()] = u.word;
      u.word = 0;
      u.fill = 0;
    }
  }
  for (int i = 0; i < 40; ++i) {
    std::memcpy(u.copy.data(), (i & 1) ? u.cur.data() : u.ref.data(), u.copy.size());
    u.acc += u.copy[static_cast<std::size_t>(i * 97)];
  }
}

// The same mix of work a frame costs: block SAD search, a floating-point
// transform, branchy bit packing and frame copies. Inputs come from a
// run-time PRNG and the result feeds an atomic sink, so nothing can be
// folded away. Returns the unit's wall time.
double reference_unit() {
  Unit u;
  u.cur.resize(kW * kH);
  u.ref.resize(kW * kH);
  u.copy.resize(kW * kH);
  u.bits.resize(4096);
  std::uint32_t x = 2005;
  for (std::size_t i = 0; i < u.cur.size(); ++i) {
    x = x * 1664525u + 1013904223u;
    u.cur[i] = static_cast<std::uint8_t>(x >> 24);
    u.ref[i] = static_cast<std::uint8_t>((x >> 24) + ((x >> 8) & 7));
  }
  const std::int64_t start = now_ns();
  for (int q = 0; q < 2; ++q) half(u);
  g_sink.store(u.acc + static_cast<std::int64_t>(u.dct_acc) + u.bits[u.pos % u.bits.size()],
               std::memory_order_relaxed);
  return static_cast<double>(now_ns() - start) / 1e9;
}

}  // namespace

double probe_host(int threads) {
  if (threads <= 1) return reference_unit();
  std::vector<double> times(static_cast<std::size_t>(threads), 0.0);
  {
    std::vector<std::jthread> workers;  // joined on scope exit
    workers.reserve(times.size());
    for (double& t : times) workers.emplace_back([&t] { t = reference_unit(); });
  }
  // The median: one probe thread preempted for a few milliseconds says
  // nothing about the speed the other threads saw.
  return median(std::move(times));
}

}  // namespace framebench
