// Benchmark regression gate over BENCH_*.json reports.
//
// Every BENCH_*.json report holds one array of named rows ("kernels",
// "fec_rows", ...). One gate table says which (rows array, field) pairs
// are gated, which direction is better and how far a value may move; one
// comparator applies it to a committed baseline and a fresh report. The
// comparison logic lives in the library so tests can drive it;
// tools/check_bench_regression is the thin CLI used by CI.
#pragma once

#include <string>
#include <vector>

#include "common/json.h"

namespace pbpair::obs {

enum class Better { kHigher, kLower };
enum class Tolerance { kRel, kAbs };

/// One row of the gate table.
struct Gate {
  std::string rows;    // report array, e.g. "fec_rows"
  std::string field;   // row field; "*_ns" matches every field ending in _ns
  Better better = Better::kLower;
  Tolerance tolerance = Tolerance::kRel;
  /// Allowed move in the worse direction. kAbs: current may fall below
  /// baseline - value (or rise above baseline + value). kRel, lower is
  /// better: current may not exceed baseline * (1 + value). kRel, higher
  /// is better: baseline may not exceed current * (1 + value), a floor
  /// that stays meaningful for values above 1.0.
  double value = 0.0;
};

/// One gated measurement: a field both reports carry as a number.
struct Delta {
  Gate gate;
  std::string row;    // the row's "name", e.g. "ge/hybrid/k8m2"
  std::string field;  // the matched field, e.g. "sse2_ns"
  double baseline = 0.0;
  double current = 0.0;
  bool regression = false;
};

struct Comparison {
  std::vector<Delta> deltas;
  /// Baseline rows the current report no longer emits (failures: a
  /// vanished row hides a regression).
  std::vector<std::string> missing_rows;
  /// Rows measured now but absent from the baseline (warn-only: a new row
  /// must not fail CI before its baseline row is committed).
  std::vector<std::string> unknown_rows;

  bool ok() const {
    if (!missing_rows.empty()) return false;
    for (const Delta& d : deltas) {
      if (d.regression) return false;
    }
    return true;
  }
};

/// The gate table CI runs, one entry per gated (rows array, field).
const std::vector<Gate>& default_gates();

/// Diffs two reports under `gates`, matching rows by "name" within each
/// gated array the baseline carries. A field compares only when both rows
/// carry it as a number (a kernel backend absent on this host is
/// skipped). Improvements never fail.
Comparison compare_reports(const common::JsonValue& baseline,
                           const common::JsonValue& current,
                           const std::vector<Gate>& gates);

}  // namespace pbpair::obs
