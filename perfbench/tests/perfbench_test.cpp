// Unit tests of the benchmark's own rules: the interpolated quantile and
// the "ten samples beyond" percentile rule, failed-ops accounting, span
// self-time subtraction, and that the probes leave a run unchanged.
//
//   ctest --test-dir .bench_build/perfbench --output-on-failure
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "consistency/streaming_checker.h"
#include "core/harness.h"
#include "core/workload.h"
#include "probes.h"
#include "protocols/protocols.h"
#include "report.h"
#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAILED: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

void test_quantile_matches_library() {
  mwreg::Rng rng(7);
  std::vector<double> v;
  for (int i = 0; i < 1234; ++i) v.push_back(rng.next_double() * 100);
  const mwreg::LatencyStats lib = mwreg::summarize_latency(v);
  expect(near(perfbench::quantile(v, 0.5), lib.p50_ms), "p50 == library p50");
  expect(near(perfbench::quantile(v, 0.99), lib.p99_ms), "p99 == library p99");
  expect(near(perfbench::quantile({1, 2, 3, 4}, 0.5), 2.5), "even median");
  expect(near(perfbench::median({5, 1, 3}), 3), "odd median");
  expect(perfbench::quantile({}, 0.5) == 0, "empty quantile is 0");
}

void test_percentile_rule() {
  using perfbench::percentile_reportable;
  using perfbench::samples_beyond;
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  expect(percentile_reportable(1000, 0.99), "p99 reportable at n=1000");
  expect(!percentile_reportable(999, 0.99), "p99 not reportable at n=999");
  expect(samples_beyond(2560, 0.99) == 25, "2560 writes: 25 beyond p99");
  expect(samples_beyond(19200, 0.999) == 19, "19200 trials: 19 beyond p99.9");
  expect(percentile_reportable(10000, 0.999), "p99.9 reportable at n=10^4");
  expect(!percentile_reportable(9999, 0.999), "p99.9 not at n=9999");
  expect(percentile_reportable(20, 0.5), "p50 reportable at n=20");
  expect(!percentile_reportable(19, 0.5), "p50 not reportable at n=19");
}

void test_repeat_rule() {
  using perfbench::another_rep;
  using perfbench::kMinTimedReps;
  expect(another_rep(0, 100, 0, 10), "first timed repeat always runs");
  expect(another_rep(kMinTimedReps - 1, 100, 50, 10),
         "repeats up to the minimum always run");
  expect(another_rep(400, 10, 16, 15), "10 s + 0.04 s mean fits in 15 s");
  expect(!another_rep(400, 14.99, 16, 15), "14.99 s + 0.04 s overshoots 15 s");
  expect(perfbench::percentile_reportable(kMinTimedReps, 0.5),
         "the median rate has ten repeats beyond it at the minimum");
}

void test_merge_rounds() {
  std::vector<perfbench::Report> rounds(3);
  const double times[] = {3.0, 1.0, 2.0};
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    rounds[i].add("x.wall_s", times[i], "s");
    rounds[i].add("x.frames", 7, "count");
    rounds[i].count(perfbench::TrialOps{10, 10, true, true});
  }
  rounds[0].note("first");
  rounds[2].fail("round 2 failed");
  perfbench::Report m = perfbench::merge_rounds(rounds);
  expect(m.metrics.size() == 2 && near(m.metrics[0].value, 2.0),
         "timings merge to their median");
  expect(near(m.metrics[1].value, 7) && m.attempted == 30,
         "equal counts merge, ops add up");
  expect(!m.correct() && m.notes.front() == "first",
         "failures of any round kept, first round's notes kept");
  rounds[2].failures.clear();
  rounds[1].metrics[1].value = 8;
  m = perfbench::merge_rounds(rounds);
  expect(!m.correct(), "a count that differs between rounds fails");
}

void test_failed_ops_accounting() {
  using perfbench::TrialOps;
  using perfbench::failed_ops;
  expect(failed_ops(TrialOps{40, 40, true, true}) == 0, "clean trial: 0");
  expect(failed_ops(TrialOps{40, 37, true, true}) == 3,
         "incomplete ops count as failed");
  expect(failed_ops(TrialOps{40, 37, true, false}) == 40,
         "violation under a guarantee: every op, incomplete ones once");
  expect(failed_ops(TrialOps{40, 40, false, false}) == 0,
         "violation without a guarantee is not a failure");
  expect(failed_ops(TrialOps{40, 38, false, false}) == 2,
         "without a guarantee only incomplete ops fail");
  perfbench::Report run;
  expect(run.failed_ops_frac() == 0, "empty run: 0");
  run.count(TrialOps{100, 100, true, true});
  run.count(TrialOps{100, 90, true, true});
  run.count(TrialOps{50, 50, true, false});
  expect(run.attempted == 250 && run.failed == 60, "60 of 250 ops failed");
  expect(near(run.failed_ops_frac(), 60.0 / 250.0),
         "failed_ops_frac = (10 + 50) / 250");
}

void test_self_time() {
  perfbench::SpanRecorder rec;
  const std::uint32_t a = rec.layer("a");
  const std::uint32_t b = rec.layer("b");
  const std::uint32_t c = rec.layer("c");
  // a[0,100] holds b[10,40] and c[50,70]; c holds b[55,60].
  const auto sa = rec.begin_at(a, 0);
  const auto sb = rec.begin_at(b, 10);
  rec.end_at(sb, 40);
  const auto sc = rec.begin_at(c, 50);
  const auto sb2 = rec.begin_at(b, 55);
  rec.end_at(sb2, 60);
  rec.end_at(sc, 70);
  rec.end_at(sa, 100);
  const auto lt = rec.layer_times();
  expect(lt[a].incl_ns == 100 && lt[a].self_ns == 50, "a: 100 - 30 - 20");
  expect(lt[b].incl_ns == 35 && lt[b].self_ns == 35, "b: 30 + 5, no children");
  expect(lt[c].incl_ns == 20 && lt[c].self_ns == 15, "c: 20 - 5");
  expect(rec.spans()[static_cast<std::size_t>(sb2)].parent == sc,
         "parent is the enclosing span");
  std::int64_t self_sum = 0;
  for (const auto& t : lt) self_sum += t.self_ns;
  expect(self_sum == 100, "self times partition the root span");

  // A layer re-entered inside itself counts its inclusive time once.
  perfbench::SpanRecorder re;
  const std::uint32_t x = re.layer("x");
  const auto outer = re.begin_at(x, 0);
  const auto inner = re.begin_at(x, 10);
  re.end_at(inner, 20);
  re.end_at(outer, 50);
  const auto rt = re.layer_time("x");
  expect(rt.incl_ns == 50 && rt.self_ns == 50 && rt.spans == 2,
         "nested same-layer spans: incl 50, self 50");
}

/// Digest and counts of a small checked keyspace run, with or without the
/// probes the traced run attaches.
struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t completed = 0;
  std::uint64_t sent = 0;
  double mean_run_len = 0;
  std::size_t spans = 0;
};

Outcome small_run(bool probed) {
  mwreg::SimHarness::Options o;
  o.cfg = mwreg::ClusterConfig{5, 100, 100, 1};
  o.keyspace = mwreg::KeyspaceConfig{8, 2, 0.99};
  o.seed = 11;
  o.tick = 10 * mwreg::kMicrosecond;
  mwreg::SimHarness h(*mwreg::protocol_by_name("mw-abd(W2R2)"), std::move(o));
  perfbench::SpanRecorder rec;
  perfbench::RecordState st;
  std::vector<std::unique_ptr<perfbench::Recorder>> sinks;
  std::vector<std::unique_ptr<mwreg::StreamingTagWitness>> checkers;
  std::vector<std::unique_ptr<perfbench::TracedSink>> traced;
  for (int k = 0; k < h.num_keys(); ++k) {
    sinks.push_back(std::make_unique<perfbench::Recorder>(
        st, static_cast<std::uint32_t>(k)));
    h.key_history(k).subscribe(sinks.back().get());
    checkers.push_back(std::make_unique<mwreg::StreamingTagWitness>());
    checkers.back()->retire_history(&h.key_history(k));
    if (probed) {
      traced.push_back(std::make_unique<perfbench::TracedSink>(
          *checkers.back(), rec, rec.layer("consistency.stream")));
      h.key_history(k).subscribe(traced.back().get());
    } else {
      h.key_history(k).subscribe(checkers.back().get());
    }
  }
  std::unique_ptr<perfbench::TableProbe> probe;
  if (probed) {
    probe = std::make_unique<perfbench::TableProbe>(h, rec,
                                                    rec.layer("core.table"));
  }
  mwreg::WorkloadOptions w;
  w.ops_per_writer = 6;
  w.ops_per_reader = 6;
  mwreg::run_keyspace_workload(h, w);
  for (auto& c : checkers) expect(c->finish().atomic, "small run is atomic");
  Outcome out;
  out.digest = st.digest.value();
  out.completed = st.completed;
  out.sent = h.net().stats().sent;
  out.mean_run_len = h.net().coalesce_stats().mean_run_len();
  out.spans = rec.spans().size();
  for (int k = 0; k < h.num_keys(); ++k) h.key_history(k).clear();
  return out;
}

void test_probes_do_not_perturb() {
  const Outcome plain = small_run(false);
  const Outcome probed = small_run(true);
  expect(plain.completed == 1200, "every op completed");
  expect(plain.digest == probed.digest, "probes keep the completion digest");
  expect(plain.sent == probed.sent, "probes keep the frame count");
  expect(plain.mean_run_len == probed.mean_run_len,
         "probes keep the dispatched run lengths");
  expect(plain.spans == 0 && probed.spans > 0, "only the probed run has spans");
}

}  // namespace

int main() {
  test_quantile_matches_library();
  test_percentile_rule();
  test_repeat_rule();
  test_merge_rounds();
  test_failed_ops_accounting();
  test_self_time();
  test_probes_do_not_perturb();
  if (g_failures != 0) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all perfbench tests passed\n");
  return 0;
}
