// perfbench: runs one workload through the library's public API and prints
// its metrics, then one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// --trace 0 reports the end-to-end metrics over repeated runs of the
// workload until --seconds have passed; --trace 1 reports the per-layer
// metrics from an untraced run, a traced run and the replays, as medians
// over rounds of them until --seconds have passed.
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4U, std::max(1U, hw)));
}

}  // namespace perfbench

namespace {

bool parse(int argc, char** argv, perfbench::Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] == '1';
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

bool known_workload(const std::string& name) {
  return name == "design_sweep" || perfbench::is_keyspace_workload(name);
}

perfbench::Report run_once(const perfbench::Args& args) {
  perfbench::Report r;
  if (args.workload == "design_sweep") {
    perfbench::run_design_sweep(args, r);
  } else {
    perfbench::run_keyspace(args, r);
  }
  return r;
}

/// The traced run repeats in rounds while the next one, at the mean round
/// time so far, is expected to end within --seconds (at least one round);
/// only the first round writes its spans.
perfbench::Report traced_rounds(const perfbench::Args& args) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  std::vector<perfbench::Report> rounds;
  double elapsed = 0;
  do {
    perfbench::Args a = args;
    if (!rounds.empty()) a.trace_dir.clear();
    rounds.push_back(run_once(a));
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed + elapsed / static_cast<double>(rounds.size()) <=
           args.seconds);
  return perfbench::merge_rounds(rounds);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  perfbench::Report report;
  try {
    if (!known_workload(args.workload)) {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
    report = args.trace ? traced_rounds(args) : run_once(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s threw: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  report.print(args.workload);
  return report.correct() ? 0 : 1;
}
