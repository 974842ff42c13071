// What one perfbench invocation reports: named metrics with units, the
// correctness verdict with its reasons, and the op accounting. Printed as a
// human-readable table followed by one JSON line (the last line of stdout).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< empty == every check passed
  std::vector<std::string> notes;     ///< informational lines
  std::uint64_t attempted = 0;        ///< ops invoked
  std::uint64_t failed = 0;           ///< see stats.h failed_ops

  /// Account one trial's ops.
  void count(const TrialOps& t) {
    attempted += t.invoked;
    failed += failed_ops(t);
  }
  /// failed / attempted: 0 when every op of every trial succeeded.
  [[nodiscard]] double failed_ops_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }

  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) fail("metric " + name + " is not finite");
    metrics.push_back(Metric{name, std::isfinite(value) ? value : 0, unit});
  }
  void fail(const std::string& why) {
    for (const std::string& f : failures) {
      if (f == why) return;
    }
    failures.push_back(why);
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Fail with `what` unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  [[nodiscard]] bool correct() const { return failures.empty(); }

  void print(const std::string& workload) const {
    for (const std::string& n : notes) std::printf("# %s\n", n.c_str());
    for (const std::string& f : failures) {
      std::printf("# CHECK FAILED: %s\n", f.c_str());
    }
    std::printf("# %s: attempted=%llu failed=%llu failed_ops_frac=%.6g\n",
                workload.c_str(), static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), failed_ops_frac());
    for (const Metric& m : metrics) {
      std::printf("%-44s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

/// One report from the rounds of a traced run: each metric's median over the
/// rounds, every round's failures, the first round's notes and the ops of
/// all rounds. Counts (unit "count" or "B") come from deterministic runs, so
/// one that differs between rounds is a failure.
inline Report merge_rounds(const std::vector<Report>& rounds) {
  Report out;
  if (rounds.empty()) return out;
  out.notes = rounds.front().notes;
  out.note("per-layer values are medians over " +
           std::to_string(rounds.size()) + " traced rounds");
  for (const Report& r : rounds) {
    for (const std::string& f : r.failures) out.fail(f);
    out.attempted += r.attempted;
    out.failed += r.failed;
  }
  const std::vector<Metric>& first = rounds.front().metrics;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const Metric& m = first[i];
    const bool is_count = m.unit == "count" || m.unit == "B";
    std::vector<double> values;
    for (const Report& r : rounds) {
      if (i >= r.metrics.size() || r.metrics[i].name != m.name) {
        out.fail("rounds report different metrics");
        continue;
      }
      out.check(!is_count || r.metrics[i].value == m.value,
                m.name + " differs between rounds");
      values.push_back(r.metrics[i].value);
    }
    out.add(m.name, median(values), m.unit);
  }
  return out;
}

}  // namespace perfbench
