#include "obs/bench_compare.h"

#include <algorithm>

namespace pbpair::obs {
namespace {

const common::JsonValue* find_row(const common::JsonValue& report,
                                  const std::string& rows,
                                  const std::string& name) {
  const common::JsonValue* array = report.find(rows);
  if (array == nullptr || !array->is_array()) return nullptr;
  for (const common::JsonValue& entry : array->items()) {
    if (entry.string_at("name") == name) return &entry;
  }
  return nullptr;
}

// "*suffix" matches any longer key ending in suffix; anything else is exact.
bool field_matches(const std::string& pattern, const std::string& key) {
  if (pattern.empty() || pattern[0] != '*') return key == pattern;
  const std::size_t n = pattern.size() - 1;
  return key.size() > n && key.compare(key.size() - n, n, pattern, 1, n) == 0;
}

bool regressed(const Gate& gate, double baseline, double current) {
  const double t = gate.value;
  if (gate.better == Better::kLower) {
    return gate.tolerance == Tolerance::kAbs
               ? current > baseline + t
               : baseline > 0.0 && current > baseline * (1.0 + t);
  }
  // A floor is phrased baseline > current * (1 + t), not current <
  // baseline * (1 - t), so a tolerance above 1.0 still bounds the drop; a
  // collapse to zero fails for any positive baseline.
  return gate.tolerance == Tolerance::kAbs ? current < baseline - t
                                           : baseline > current * (1.0 + t);
}

}  // namespace

const std::vector<Gate>& default_gates() {
  static const std::vector<Gate> gates = {
      // Wall-clock ns/call, one column per compiled kernel backend.
      {"kernels", "*_ns", Better::kLower, Tolerance::kRel, 0.25},
      // Seeded loss, modeled energy and copy-ledger counts reproduce bit for
      // bit at the baseline's 300 frames under any kernel backend or thread
      // count, so these tolerances only absorb cross-compiler floating-point
      // noise. packets_per_s is wall-clock and never gated.
      {"fec_rows", "recovery_rate", Better::kHigher, Tolerance::kAbs, 0.001},
      {"fec_rows", "j_per_frame", Better::kLower, Tolerance::kRel, 0.001},
      {"fec_rows", "psnr_db", Better::kHigher, Tolerance::kAbs, 0.01},
      {"wire_rows", "copy_reduction", Better::kHigher, Tolerance::kAbs, 0.001},
      {"wire_rows", "copied_bytes_per_frame", Better::kLower, Tolerance::kRel,
       0.001},
      // Wall-clock on shared runners: catches a sharding regression (bumps
      // on the locked slow path), not noise.
      {"obs_rows", "ns_per_op", Better::kLower, Tolerance::kRel, 0.5},
      {"obs_rows", "overhead_ratio", Better::kLower, Tolerance::kRel, 0.5},
      // The p99 comes from log2-bucket histograms whose quantiles sit on
      // power-of-two plateaus: 3.5 passes two bucket jumps (4x, one flaky
      // frame on a small fleet) and fails on three (8x).
      {"sessions_rows", "sessions_per_sec", Better::kHigher, Tolerance::kRel,
       3.5},
      {"sessions_rows", "p99_frame_ms", Better::kLower, Tolerance::kRel, 3.5},
  };
  return gates;
}

Comparison compare_reports(const common::JsonValue& baseline,
                           const common::JsonValue& current,
                           const std::vector<Gate>& gates) {
  std::vector<std::string> arrays;
  for (const Gate& gate : gates) {
    if (std::find(arrays.begin(), arrays.end(), gate.rows) == arrays.end()) {
      arrays.push_back(gate.rows);
    }
  }

  Comparison result;
  for (const std::string& rows : arrays) {
    const common::JsonValue* base_rows = baseline.find(rows);
    if (base_rows == nullptr || !base_rows->is_array()) continue;
    for (const common::JsonValue& base_entry : base_rows->items()) {
      const std::string& name = base_entry.string_at("name");
      if (name.empty()) continue;
      const common::JsonValue* cur_entry = find_row(current, rows, name);
      if (cur_entry == nullptr) {
        result.missing_rows.push_back(name);
        continue;
      }
      for (const Gate& gate : gates) {
        if (gate.rows != rows) continue;
        for (const auto& [key, value] : base_entry.members()) {
          if (!field_matches(gate.field, key) || !value.is_number()) continue;
          const common::JsonValue* cur_value = cur_entry->find(key);
          if (cur_value == nullptr || !cur_value->is_number()) continue;
          const double base = value.as_number();
          const double cur = cur_value->as_number();
          result.deltas.push_back(
              {gate, name, key, base, cur, regressed(gate, base, cur)});
        }
      }
    }
    const common::JsonValue* cur_rows = current.find(rows);
    if (cur_rows == nullptr || !cur_rows->is_array()) continue;
    for (const common::JsonValue& cur_entry : cur_rows->items()) {
      const std::string& name = cur_entry.string_at("name");
      if (!name.empty() && find_row(baseline, rows, name) == nullptr) {
        result.unknown_rows.push_back(name);
      }
    }
  }
  return result;
}

}  // namespace pbpair::obs
