// check_bench_regression — CI gate over BENCH_*.json reports.
//
//   check_bench_regression --baseline BENCH_fec.json
//                          --current build/BENCH_fec.json
//
// Diffs the current report against the committed baseline under the gate
// table obs::default_gates() (src/obs/bench_compare.cpp): the table's row
// arrays that the baseline carries pick the gates, rows match by name, and
// each gated field fails when it moved further in the worse direction than
// its tolerance. A baseline row missing from the current report fails; a
// current row with no baseline only warns. Exit 1 = regression or missing
// row, 2 = usage/parse error or a baseline with no gated rows.
// Better-than-baseline results are reported but never fail — baselines
// are refreshed by re-running the bench and committing the new file.
#include <cstdio>
#include <string>

#include "common/args.h"
#include "common/json.h"
#include "obs/bench_compare.h"
#include "sim/report.h"

using namespace pbpair;

int main(int argc, char** argv) {
  common::ArgParser args(argc, argv);
  const std::string baseline_path = args.get("baseline");
  const std::string current_path = args.get("current");
  if (baseline_path.empty() || current_path.empty() ||
      !args.unknown_flags().empty() || !args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: check_bench_regression --baseline FILE --current "
                 "FILE\n");
    return 2;
  }

  common::JsonValue baseline, current;
  std::string error;
  if (!common::parse_json_file(baseline_path, &baseline, &error)) {
    std::fprintf(stderr, "baseline %s: %s\n", baseline_path.c_str(),
                 error.c_str());
    return 2;
  }
  if (!common::parse_json_file(current_path, &current, &error)) {
    std::fprintf(stderr, "current %s: %s\n", current_path.c_str(),
                 error.c_str());
    return 2;
  }

  const obs::Comparison comparison =
      obs::compare_reports(baseline, current, obs::default_gates());
  if (comparison.deltas.empty() && comparison.missing_rows.empty()) {
    std::fprintf(stderr, "no gated rows found in %s\n", baseline_path.c_str());
    return 2;
  }

  sim::Table table(
      {"row", "field", "baseline", "current", "delta", "gate", "verdict"});
  for (const obs::Delta& d : comparison.deltas) {
    const bool relative = d.gate.tolerance == obs::Tolerance::kRel;
    table.add_row(
        {d.row, d.field, sim::format("%.6g", d.baseline),
         sim::format("%.6g", d.current),
         relative ? sim::format("%+.1f%%", d.baseline != 0.0
                                               ? (d.current / d.baseline -
                                                  1.0) * 100.0
                                               : 0.0)
                  : sim::format("%+.4g", d.current - d.baseline),
         sim::format("%s %s %g",
                     d.gate.better == obs::Better::kHigher ? "higher"
                                                           : "lower",
                     relative ? "rel" : "abs", d.gate.value),
         d.regression ? "REGRESSION" : "ok"});
  }
  table.print();
  for (const std::string& name : comparison.missing_rows) {
    std::printf("MISSING: row \"%s\" is in the baseline but not in the "
                "current report\n",
                name.c_str());
  }
  for (const std::string& name : comparison.unknown_rows) {
    std::printf("WARNING: row \"%s\" has no baseline yet (measured but not "
                "gated; refresh %s to start gating it)\n",
                name.c_str(), baseline_path.c_str());
  }
  if (!comparison.ok()) {
    std::printf("FAIL: regression beyond its gate (or missing row) vs %s\n",
                baseline_path.c_str());
    return 1;
  }
  std::printf("OK: every gated field within its gate vs %s\n",
              baseline_path.c_str());
  return 0;
}
