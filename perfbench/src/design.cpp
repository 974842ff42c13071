// design_sweep: exp::Runner over the Table-1 design space — 6 protocols x 4
// clusters x {no fault plan + scenarios::all()} x 100 seeds, 8 ops per
// client, graph and streaming checkers on, then aggregate + CSV/JSON.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "consistency/checkers.h"
#include "consistency/streaming_checker.h"
#include "core/harness.h"
#include "core/workload.h"
#include "exp/aggregator.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "probes.h"
#include "protocols/protocols.h"
#include "sim/fault_plan.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mwreg::exp::ExperimentSpec;
using mwreg::exp::TrialResult;

/// Seeds per cell of the traced sweep (19,200 trials, enough for p99.9 of
/// trial time) and of each timed repeat (384 trials, ~0.07 s at 4 threads,
/// so that a run holds the hundreds of repeats its rate quantile needs).
constexpr int kSeedsPerCell = 100;
constexpr int kRepSeedsPerCell = 2;
constexpr int kOpsPerClient = 8;
/// setup_s samples per run (each ~2 ms).
constexpr int kSetupSamples = 101;

ExperimentSpec design_spec(std::uint64_t seed, int seeds_per_cell) {
  ExperimentSpec spec;
  spec.name = "design_sweep";
  spec.protocols = {"mw-abd(W2R2)",       "abd-swmr(W1R2)",
                    "fast-read-mw(W2R1)", "fast-read-mw-nogc(W2R1)",
                    "fast-swmr(W1R1)",    "regular-fast-read(W2R1)"};
  spec.clusters = {
      mwreg::ClusterConfig{5, 2, 2, 1},
      mwreg::ClusterConfig{7, 2, 3, 1},
      mwreg::ClusterConfig{7, 1, 3, 1},
      mwreg::ClusterConfig{9, 3, 4, 1},
  };
  mwreg::FaultPlan none;
  none.name = "none";
  spec.fault_plans.push_back(none);
  for (const mwreg::FaultPlan& p : mwreg::scenarios::all()) {
    spec.fault_plans.push_back(p);
  }
  // Disjoint seed blocks per benchmark seed.
  spec.seed_lo = 1 + seed * kSeedsPerCell;
  spec.seeds = seeds_per_cell;
  spec.delay =
      mwreg::exp::uniform_delay(mwreg::kMillisecond, 10 * mwreg::kMillisecond);
  spec.workload.ops_per_writer = kOpsPerClient;
  spec.workload.ops_per_reader = kOpsPerClient;
  spec.check_graph = true;
  spec.check_streaming = true;
  return spec;
}


std::uint64_t invoked_of(const TrialResult& tr) {
  return static_cast<std::uint64_t>(tr.cfg.w() + tr.cfg.r()) * kOpsPerClient;
}

/// Digest of a trial's observable outcome (the Runner exposes results, not
/// histories, so this stands in for the completion digest).
void mix_trial(Fnv& d, const TrialResult& tr) {
  d.mix(tr.harness_seed);
  d.mix(tr.completed_ops);
  d.mix(tr.msgs_sent);
  d.mix(tr.sim_events);
  d.mix(static_cast<std::uint64_t>(tr.tag_atomic) |
        static_cast<std::uint64_t>(tr.graph_atomic) << 1 |
        static_cast<std::uint64_t>(tr.stream_atomic) << 2);
  for (const double v : tr.write_ms) d.mix_double(v);
  for (const double v : tr.read_ms) d.mix_double(v);
}

struct SweepRun {
  std::vector<TrialResult> results;
  double runner_s = 0;  ///< Runner::run
  double report_s = 0;  ///< aggregate + to_csv + to_json
  std::uint64_t digest = 0;
  std::uint64_t completed = 0;
};

SweepRun run_sweep(const ExperimentSpec& spec, int threads) {
  SweepRun out;
  mwreg::exp::Runner::Options ro;
  ro.threads = threads;
  const mwreg::exp::Runner runner(ro);
  const std::int64_t t0 = SpanRecorder::now_ns();
  out.results = runner.run(spec);
  const std::int64_t t1 = SpanRecorder::now_ns();
  const std::vector<mwreg::exp::CellStats> cells =
      mwreg::exp::aggregate(out.results);
  const std::string csv = mwreg::exp::to_csv(cells);
  const std::string json = mwreg::exp::to_json(cells);
  const std::int64_t t2 = SpanRecorder::now_ns();
  out.runner_s = static_cast<double>(t1 - t0) / 1e9;
  out.report_s = static_cast<double>(t2 - t1) / 1e9;
  Fnv d;
  for (const TrialResult& tr : out.results) {
    mix_trial(d, tr);
    out.completed += tr.completed_ops;
  }
  for (const char ch : csv) d.mix(static_cast<unsigned char>(ch));
  d.mix(json.size());
  out.digest = d.value();
  return out;
}

/// Correctness of one sweep: every op completed, checkers agree on every
/// trial, and protocols that guarantee atomicity got an atomic verdict.
void check_sweep(const SweepRun& s, const ExperimentSpec& spec, Report& out,
                 const std::string& what) {
  out.check(s.results.size() == static_cast<std::size_t>(spec.trials()),
            what + ": trial count != spec.trials()");
  const std::uint64_t failed_before = out.failed;
  for (const TrialResult& tr : s.results) {
    // The registry's documented relations: the streaming checker equals
    // tag-witness, and a tag-witness pass implies a graph pass (tags are a
    // sufficient witness, so a protocol without the guarantee may fail
    // tag-witness on an atomic history).
    out.check(tr.tag_atomic == tr.stream_atomic &&
                  (!tr.tag_atomic || tr.graph_atomic),
              what + ": checkers disagree on " + tr.protocol + " / " +
                  tr.fault_plan);
    out.count(TrialOps{invoked_of(tr), tr.completed_ops, tr.expected_atomic,
                       tr.atomic()});
  }
  out.check(out.failed == failed_before,
            what + ": failed ops (incomplete ops or a violation)");
}

/// Time from the start of the workload to its first op: build and validate
/// the spec, expand it, build the first trial's harness and install its
/// plan, and drive it until its first invocation.
double setup_sample(std::uint64_t seed) {
  const std::int64_t t0 = SpanRecorder::now_ns();
  const ExperimentSpec spec = design_spec(seed, kRepSeedsPerCell);
  mwreg::exp::expansion_info({spec});  // expands every trial, as the Runner does
  const std::string& proto_name = spec.protocols.front();
  const mwreg::ClusterConfig& cfg = spec.clusters.front();
  const mwreg::FaultPlan& plan = spec.fault_plans.front();
  mwreg::SimHarness::Options o;
  o.cfg = cfg;
  o.seed = mwreg::derive_seed(
      spec.seed_lo,
      mwreg::exp::cell_digest(proto_name, cfg, &plan, mwreg::KeyspaceConfig{}));
  o.delay = spec.delay(cfg);
  o.streaming_check = spec.check_streaming;
  mwreg::SimHarness h(*mwreg::protocol_by_name(proto_name), std::move(o));
  h.install_fault_plan(plan);
  RecordState st;
  Recorder r(st, 0);
  h.history().subscribe(&r);
  mwreg::run_random_workload(h, spec.workload);
  h.history().unsubscribe(&r);
  return static_cast<double>(st.first_invoke_ns - t0) / 1e9;
}

void run_end_to_end(const Args& args, Report& out) {
  const ExperimentSpec spec = design_spec(args.seed, kRepSeedsPerCell);
  const int threads = bench_threads();
  std::vector<double> trials_rate, ops_rate, setup;
  SweepRun first;
  const std::int64_t t0 = SpanRecorder::now_ns();
  double timed_s = 0;
  for (int rep = 0; rep == 0 || another_rep(rep - 1, seconds_since(t0),
                                            timed_s, args.seconds);
       ++rep) {
    const std::int64_t s0 = SpanRecorder::now_ns();
    SweepRun s = run_sweep(spec, threads);
    const double wall = seconds_since(s0);
    check_sweep(s, spec, out, "rep " + std::to_string(rep));
    if (rep == 0) {
      first = std::move(s);
      continue;
    }
    timed_s += wall;
    trials_rate.push_back(static_cast<double>(s.results.size()) / wall);
    ops_rate.push_back(static_cast<double>(s.completed) / wall);
    out.check(s.digest == first.digest,
              "rep " + std::to_string(rep) + ": digest differs from rep 0");
  }
  for (int i = 0; i < kSetupSamples; ++i) setup.push_back(setup_sample(args.seed));

  std::vector<double> rd, wr;
  for (const TrialResult& tr : first.results) {
    rd.insert(rd.end(), tr.read_ms.begin(), tr.read_ms.end());
    wr.insert(wr.end(), tr.write_ms.begin(), tr.write_ms.end());
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(first.digest));
  out.note(std::string("digest ") + digest + " over " +
           std::to_string(trials_rate.size()) + " timed reps, " +
           std::to_string(first.results.size()) + " trials, " +
           std::to_string(threads) + " threads");
  out.check(percentile_reportable(rd.size(), 0.99), "too few reads for p99");
  out.check(percentile_reportable(wr.size(), 0.99), "too few writes for p99");
  std::sort(rd.begin(), rd.end());
  std::sort(wr.begin(), wr.end());
  out.note("ops_per_s over " + std::to_string(ops_rate.size()) +
           " timed reps: " + spread_note(ops_rate));
  out.add("ops_per_s", median(ops_rate), "1/s");
  out.add("trials_per_s", median(trials_rate), "1/s");
  out.add("setup_s", median(setup), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("read_vlat_p50_ms", quantile_sorted(rd, 0.5), "ms");
  out.add("read_vlat_p99_ms", quantile_sorted(rd, 0.99), "ms");
  out.add("write_vlat_p50_ms", quantile_sorted(wr, 0.5), "ms");
  out.add("write_vlat_p99_ms", quantile_sorted(wr, 0.99), "ms");
}

/// One trial of the sweep re-run outside the Runner with probes: the same
/// harness options as exp::run_trial, a benchmark-built streaming checker
/// behind a TracedSink, and every registered batch checker timed on the
/// recorded history.
struct ProbedTrial {
  std::uint64_t completed = 0;
  std::uint64_t invoked = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t heap_events = 0;
  mwreg::CoalesceStats coal;
  bool tag_atomic = true;
  bool graph_atomic = true;
  bool stream_atomic = true;
  bool checkers_agree = true;
  std::vector<double> write_ms;
  std::vector<double> read_ms;
  mwreg::StreamingStats stream;
  std::uint64_t history_live = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t pool_steady_misses = 0;
};

struct Layers {
  SpanRecorder rec;
  std::uint32_t trial = rec.layer("exp.trial");
  std::uint32_t setup = rec.layer("core.harness.setup");
  std::uint32_t run = rec.layer("workload.run");
  std::uint32_t stream = rec.layer("consistency.stream");
  std::vector<std::uint32_t> batch;
  Layers() {
    for (const mwreg::AtomicityChecker* c : mwreg::all_checkers()) {
      batch.push_back(rec.layer("consistency.batch." + std::string(c->name())));
    }
  }
};

ProbedTrial run_probed(const ExperimentSpec& spec, const TrialResult& ref,
                       const mwreg::FaultPlan& plan, bool steady_probe,
                       Layers& L) {
  ProbedTrial out;
  const mwreg::Protocol& proto = *mwreg::protocol_by_name(ref.protocol);
  ScopedSpan trial(&L.rec, L.trial);
  std::unique_ptr<mwreg::SimHarness> h;
  {
    ScopedSpan s(&L.rec, L.setup);
    mwreg::SimHarness::Options o;
    o.cfg = ref.cfg;
    o.seed = ref.harness_seed;
    o.fifo = spec.fifo;
    o.coalesce = spec.coalesce;
    o.tick = spec.tick;
    o.dest_major = spec.dest_major;
    o.delay = spec.delay(ref.cfg);
    h = std::make_unique<mwreg::SimHarness>(proto, std::move(o));
    h->install_fault_plan(plan);
  }
  RecordState st;
  Recorder recorder(st, 0);
  mwreg::StreamingTagWitness checker;
  TracedSink traced(checker, L.rec, L.stream);
  h->history().subscribe(&recorder);
  h->history().subscribe(&traced);
  {
    ScopedSpan s(&L.rec, L.run);
    mwreg::run_random_workload(*h, spec.workload);
  }
  const mwreg::History& hist = h->history();
  out.completed = hist.completed_count();
  out.invoked = st.invoked;
  out.msgs = h->net().stats().sent;
  out.bytes = h->net().stats().bytes_sent;
  out.coal = h->net().coalesce_stats();
  out.heap_events = h->sim().executed();
  out.sim_events = out.heap_events - out.coal.batches -
                   out.coal.continuations + out.coal.enqueued;
  out.write_ms = mwreg::latency_samples_ms(hist, mwreg::OpKind::kWrite);
  out.read_ms = mwreg::latency_samples_ms(hist, mwreg::OpKind::kRead);
  out.history_live = hist.ops().size();

  const mwreg::CheckResult live = checker.finish();
  out.stream_atomic = live.atomic;
  out.stream = checker.stats();
  const std::vector<const mwreg::AtomicityChecker*>& all =
      mwreg::all_checkers();
  mwreg::CheckResult wing_gong = mwreg::CheckResult::refuse("not run");
  mwreg::CheckResult replayed;
  for (std::size_t i = 0; i < all.size(); ++i) {
    mwreg::CheckResult r;
    {
      ScopedSpan s(&L.rec, L.batch[i]);
      r = all[i]->check(hist);
    }
    const std::string name(all[i]->name());
    if (name == "tag-witness") out.tag_atomic = r.atomic;
    if (name == "unique-value-graph") out.graph_atomic = r.atomic;
    if (name == "wing-gong") wing_gong = r;
    if (name == "streaming-tag-witness") replayed = r;
  }
  // The registry's documented relations: both streaming lanes equal
  // tag-witness, a tag-witness pass implies a graph pass, and with unique
  // write tags wing-gong (when it decides) equals the graph checker.
  out.checkers_agree =
      out.tag_atomic == out.stream_atomic &&
      out.tag_atomic == replayed.atomic &&
      (!out.tag_atomic || out.graph_atomic) &&
      (!hist.unique_write_tags() || !wing_gong.decided() ||
       wing_gong.atomic == out.graph_atomic);
  h->history().unsubscribe(&traced);
  h->history().unsubscribe(&recorder);

  if (steady_probe) {
    const std::uint64_t allocs = h->sim().allocations();
    const std::uint64_t misses = h->net().pool().stats().misses;
    mwreg::WorkloadOptions p;
    p.ops_per_writer = 1;
    p.ops_per_reader = 1;
    mwreg::run_random_workload(*h, p);
    out.steady_allocs = h->sim().allocations() - allocs;
    out.pool_steady_misses = h->net().pool().stats().misses - misses;
  }
  return out;
}

bool same_trial(const ProbedTrial& p, const TrialResult& r) {
  return p.invoked == invoked_of(r) && p.completed == r.completed_ops &&
         p.msgs == r.msgs_sent &&
         p.sim_events == r.sim_events && p.tag_atomic == r.tag_atomic &&
         p.graph_atomic == r.graph_atomic &&
         p.stream_atomic == r.stream_atomic && p.write_ms == r.write_ms &&
         p.read_ms == r.read_ms;
}

void run_traced(const Args& args, Report& out) {
  const ExperimentSpec spec = design_spec(args.seed, kSeedsPerCell);
  const int threads = bench_threads();

  // 1. The untraced parallel sweep.
  const SweepRun par = run_sweep(spec, threads);
  check_sweep(par, spec, out, "parallel sweep");

  // 2. Serial pass through exp::run_trial, one timing per trial, in the
  //    Runner's expansion order (protocol, cluster, plan, seed).
  std::vector<double> trial_ms;
  std::vector<const mwreg::FaultPlan*> plan_of;
  double serial_s = 0;
  std::size_t idx = 0;
  int cell = 0;
  bool order_ok = true;
  for (const std::string& p : spec.protocols) {
    for (const mwreg::ClusterConfig& c : spec.clusters) {
      for (const mwreg::FaultPlan& plan : spec.fault_plans) {
        for (int k = 0; k < spec.seeds; ++k, ++idx) {
          const std::int64_t t0 = SpanRecorder::now_ns();
          TrialResult tr = mwreg::exp::run_trial(
              spec, 0, cell, p, c, spec.seed_lo + static_cast<unsigned>(k),
              &plan, nullptr);
          const double s =
              static_cast<double>(SpanRecorder::now_ns() - t0) / 1e9;
          serial_s += s;
          trial_ms.push_back(s * 1e3);
          plan_of.push_back(&plan);
          order_ok = order_ok && idx < par.results.size() &&
                     tr.harness_seed == par.results[idx].harness_seed &&
                     tr.completed_ops == par.results[idx].completed_ops &&
                     tr.sim_events == par.results[idx].sim_events;
        }
        ++cell;
      }
    }
  }
  out.check(order_ok && idx == par.results.size(),
            "serial run_trial pass differs from the parallel Runner");

  // 3. Probed serial pass: spans around setup, run and every checker.
  Layers L;
  std::uint64_t ops = 0, msgs = 0, bytes = 0, heap = 0, sim_events = 0;
  std::uint64_t peak_window = 0, peak_pending = 0, retired = 0, live = 0;
  std::uint64_t steady_allocs = 0, steady_misses = 0, stream_ops = 0;
  mwreg::CoalesceStats coal;
  bool same = true, agree = true;
  const std::int64_t tp0 = SpanRecorder::now_ns();
  for (std::size_t i = 0; i < par.results.size(); ++i) {
    const TrialResult& ref = par.results[i];
    const bool first_of_cell = ref.user_seed == spec.seed_lo &&
                               plan_of[i] == &spec.fault_plans.front();
    const ProbedTrial p = run_probed(spec, ref, *plan_of[i], first_of_cell, L);
    same = same && same_trial(p, ref);
    agree = agree && p.checkers_agree;
    ops += p.completed;
    msgs += p.msgs;
    bytes += p.bytes;
    heap += p.heap_events;
    sim_events += p.sim_events;
    coal.batches += p.coal.batches;
    coal.continuations += p.coal.continuations;
    coal.dest_major += p.coal.dest_major;
    coal.frames += p.coal.frames;
    for (int b = 0; b < mwreg::CoalesceStats::kHistBuckets; ++b) {
      coal.hist[b] += p.coal.hist[b];
    }
    stream_ops += p.stream.completions;
    peak_window = std::max<std::uint64_t>(peak_window, p.stream.peak_window);
    peak_pending = std::max<std::uint64_t>(peak_pending, p.stream.peak_pending);
    retired += p.stream.retired_tags;
    live += p.history_live;
    steady_allocs += p.steady_allocs;
    steady_misses += p.pool_steady_misses;
  }
  const double traced_s = static_cast<double>(SpanRecorder::now_ns() - tp0) / 1e9;
  out.check(same, "probed pass: trial outcomes differ from the Runner's");
  out.check(agree, "probed pass: a decided checker disagrees with the others");

  const std::vector<SpanRecorder::LayerTime> lt = L.rec.layer_times();
  const double d_ops = static_cast<double>(ops);
  const double batches = static_cast<double>(coal.batches);
  std::sort(trial_ms.begin(), trial_ms.end());
  out.check(percentile_reportable(trial_ms.size(), 0.999),
            "too few trials for p99.9");

  out.add("sim.heap_events", static_cast<double>(heap), "count");
  out.add("sim.events_per_s",
          static_cast<double>(sim_events) /
              (static_cast<double>(lt[L.run].incl_ns) / 1e9),
          "1/s");
  out.add("sim.steady_allocs", static_cast<double>(steady_allocs), "count");
  out.add("net.frames_per_op", static_cast<double>(msgs) / d_ops, "count");
  out.add("net.bytes_per_op", static_cast<double>(bytes) / d_ops, "B");
  out.add("net.frames_per_batch",
          batches == 0 ? 0 : static_cast<double>(coal.frames) / batches, "count");
  out.add("net.mean_run_len",
          coal.mean_run_len(), "count");
  out.add("net.continuations_per_batch",
          batches == 0 ? 0 : static_cast<double>(coal.continuations) / batches,
          "ratio");
  out.add("net.dest_major_share",
          batches == 0 ? 0 : static_cast<double>(coal.dest_major) / batches,
          "ratio");
  out.add("net.pool_steady_misses", static_cast<double>(steady_misses), "count");
  out.add("net.replay_enqueue_ns_per_frame", 0, "ns");
  out.add("net.replay_drain_ns_per_frame", 0, "ns");
  out.add("core.harness.setup_s", static_cast<double>(lt[L.setup].incl_ns) / 1e9,
          "s");
  out.add("core.table.incl_s", 0, "s");
  out.add("core.table.self_s", 0, "s");
  out.add("core.table.frames_per_run", 0, "count");
  out.add("protocols.server_ns_per_frame", 0, "ns");
  out.add("protocols.read_ack_bytes_per_read", 0, "B");
  out.add("consistency.stream.ns_per_op",
          stream_ops == 0 ? 0
                          : static_cast<double>(lt[L.stream].self_ns) /
                                static_cast<double>(stream_ops),
          "ns");
  out.add("consistency.stream.peak_window", static_cast<double>(peak_window),
          "count");
  out.add("consistency.stream.peak_pending", static_cast<double>(peak_pending),
          "count");
  out.add("consistency.stream.retired_tags", static_cast<double>(retired),
          "count");
  out.add("consistency.history_live", static_cast<double>(live), "count");
  const std::vector<const mwreg::AtomicityChecker*>& all = mwreg::all_checkers();
  for (std::size_t i = 0; i < all.size(); ++i) {
    out.add("consistency.batch." + std::string(all[i]->name()) + ".ns_per_op",
            static_cast<double>(lt[L.batch[i]].incl_ns) / d_ops, "ns");
  }
  out.add("exp.runner.trial_ms_p50", quantile_sorted(trial_ms, 0.5), "ms");
  out.add("exp.runner.trial_ms_p999", quantile_sorted(trial_ms, 0.999), "ms");
  out.add("exp.runner.thread_efficiency",
          serial_s / (static_cast<double>(threads) * par.runner_s), "ratio");
  out.add("exp.aggregator.report_s", par.report_s, "s");
  // The probed pass runs all four batch checkers where run_trial runs two
  // plus the live one, so its extra checker time is taken out of the wall.
  double extra_ns = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string name(all[i]->name());
    if (name != "tag-witness" && name != "unique-value-graph") {
      extra_ns += static_cast<double>(lt[L.batch[i]].incl_ns);
    }
  }
  const double traced_wall = traced_s - extra_ns / 1e9;
  out.add("trace.untraced_wall_s", serial_s, "s");
  out.add("trace.traced_wall_s", traced_wall, "s");
  out.add("trace.overhead", traced_wall / serial_s, "ratio");
  out.note("serial trials: " + std::to_string(trial_ms.size()) +
           "; probed pass " + std::to_string(traced_s) + " s");

  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/design_sweep.spans.csv";
    out.check(L.rec.write_csv(path, "design_sweep"), "could not write " + path);
  }
}

}  // namespace

void run_design_sweep(const Args& args, Report& out) {
  if (args.trace) {
    run_traced(args, out);
  } else {
    run_end_to_end(args, out);
  }
}

}  // namespace perfbench
