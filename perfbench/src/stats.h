// Small numeric helpers shared by the perfbench workloads: medians and
// interpolated quantiles, the "ten samples beyond" percentile rule, the
// failed-ops accounting and the completion digest. Header-only so the unit
// tests (tests/perfbench_test.cpp) exercise exactly what the bench runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Interpolated quantile of an ascending sample vector, numpy's default
/// ("linear") convention — the same one mwreg::summarize_latency uses, so a
/// p99 reported here and one from the library agree on the same samples.
inline double quantile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

inline double quantile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, p);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Whole samples strictly above the p-quantile of n samples: n * (1 - p),
/// rounded down (the epsilon absorbs 1 - 0.99 not being exact in binary).
inline std::uint64_t samples_beyond(std::uint64_t n, double p) {
  return static_cast<std::uint64_t>(
      std::floor(static_cast<double>(n) * (1.0 - p) + 1e-9));
}

/// The percentile rule: a percentile may be reported only when at least ten
/// samples lie beyond it (p99 needs n >= 1000, p99.9 needs n >= 10000).
constexpr std::uint64_t kMinSamplesBeyond = 10;
inline bool percentile_reportable(std::uint64_t n, double p) {
  return samples_beyond(n, p) >= kMinSamplesBeyond;
}

/// Repeat rule of a timed run: repeat 0 is a warm-up (checked, not timed),
/// then timed repeats follow while the next one, at the mean duration of
/// those so far, is expected to end within the budget — and at least
/// kMinTimedReps of them whatever the budget, so that the median of the
/// per-repeat rates always has ten repeats beyond it.
constexpr int kMinTimedReps = 20;
inline bool another_rep(int timed_reps, double elapsed_s, double timed_s,
                        double budget_s) {
  if (timed_reps < kMinTimedReps) return true;
  return elapsed_s + timed_s / timed_reps <= budget_s;
}

/// "min, median, max" of a sample, for a run's notes.
inline std::string spread_note(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  char buf[128];
  std::snprintf(buf, sizeof buf, "min %.6g, median %.6g, max %.6g",
                v.empty() ? 0.0 : v.front(), quantile_sorted(v, 0.5),
                v.empty() ? 0.0 : v.back());
  return buf;
}

/// Operation accounting of one trial (one harness run).
struct TrialOps {
  std::uint64_t invoked = 0;
  std::uint64_t completed = 0;
  bool expected_atomic = false;  ///< the protocol guarantees atomicity here
  bool atomic = true;            ///< every checker's verdict on the trial
};

/// Failed ops of one trial: every op of a trial whose protocol promised
/// atomicity but whose history is not atomic, otherwise the ops that were
/// invoked and never completed. Never counts an op twice.
inline std::uint64_t failed_ops(const TrialOps& t) {
  if (t.expected_atomic && !t.atomic) return t.invoked;
  return t.invoked - std::min(t.invoked, t.completed);
}

/// 64-bit FNV-1a, fed one integer at a time (all eight bytes, little end
/// first) so digests do not depend on struct padding.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffU)) * 1099511628211ULL;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof d, "double is 64-bit");
    std::copy_n(reinterpret_cast<const unsigned char*>(&d), sizeof d,
                reinterpret_cast<unsigned char*>(&bits));
    mix(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace perfbench
