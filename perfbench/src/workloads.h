// The four perfbench workloads. Each runs in its own process; run_* fills
// `out` with the end-to-end metrics (trace == false) or the per-layer
// metrics (trace == true) and with every correctness failure it found.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// kv_abd, kv_abd_checked, kv_fastread.
bool is_keyspace_workload(const std::string& name);
void run_keyspace(const Args& args, Report& out);
/// design_sweep.
void run_design_sweep(const Args& args, Report& out);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// Threads of a timed run: min(4, hardware threads).
int bench_threads();

}  // namespace perfbench
