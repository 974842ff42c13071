// Keyspace workloads: one table-driven SimHarness over a 64-key, 8-shard
// Zipfian keyspace, driven by run_keyspace_workload, 10 us delivery tick.
#include <algorithm>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "consistency/checkers.h"
#include "consistency/streaming_checker.h"
#include "core/harness.h"
#include "core/workload.h"
#include "probes.h"
#include "protocols/messages.h"
#include "protocols/protocols.h"
#include "replay.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct KvSpec {
  const char* name;
  const char* protocol;
  int writers;
  int readers;
  int ops;       ///< per client
  bool checked;  ///< live StreamingTagWitness + history retirement
};

// Clients stay few (128-192) so that a repeat takes ~0.1 s and the run's
// hot data stays in the core's own caches: over ten alternating runs the
// median rate of mw-abd with 1,024 clients spread by 43% with the host's
// cache contention, with 128 clients by 9% (README "Noise"). kv_fastread
// keeps two readers per key, inside the paper's bound R < S/t - 2 for S=5,
// t=1, so its verdict is checked.
constexpr KvSpec kKvSpecs[] = {
    {"kv_abd", "mw-abd(W2R2)", 64, 64, 80, false},
    {"kv_abd_checked", "mw-abd(W2R2)", 64, 64, 80, true},
    {"kv_fastread", "fast-read-mw(W2R1)", 64, 128, 32, false},
};

constexpr int kServers = 5;
constexpr int kFaulty = 1;
const mwreg::KeyspaceConfig kKeyspace{64, 8, 0.99};
constexpr mwreg::Duration kTick = 10 * mwreg::kMicrosecond;
/// Frames kept by the capture run (~70 MB at the mw-abd frame size).
constexpr std::size_t kCaptureCap = std::size_t{1} << 20;

/// Deterministic outcome of one run: equal across repeats of one seed and
/// between the untraced and the traced run.
struct KvCounts {
  std::uint64_t digest = 0;
  std::uint64_t invoked = 0;
  std::uint64_t completed = 0;
  std::uint64_t heap_events = 0;
  std::uint64_t logical_events = 0;
  mwreg::NetworkStats net;
  mwreg::CoalesceStats coal;
  std::uint64_t stream_completions = 0;
  std::uint64_t peak_window = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t retired_tags = 0;

  [[nodiscard]] bool same_as(const KvCounts& o) const {
    return digest == o.digest && invoked == o.invoked &&
           completed == o.completed && heap_events == o.heap_events &&
           logical_events == o.logical_events && net.sent == o.net.sent &&
           net.bytes_sent == o.net.bytes_sent &&
           net.delivered == o.net.delivered &&
           coal.batches == o.coal.batches &&
           coal.continuations == o.coal.continuations &&
           coal.frames == o.coal.frames &&
           coal.dest_major == o.coal.dest_major &&
           coal.staged == o.coal.staged &&
           std::memcmp(coal.hist, o.coal.hist, sizeof coal.hist) == 0 &&
           stream_completions == o.stream_completions &&
           peak_window == o.peak_window && peak_pending == o.peak_pending &&
           retired_tags == o.retired_tags;
  }
};

struct KvRun {
  KvCounts counts;
  double setup_s = 0;    ///< workload start -> first op issued
  double run_s = 0;      ///< first op issued -> run() returned
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  bool expected_atomic = true;
  bool atomic = true;
  std::string violation;
  std::uint64_t history_live = 0;
  bool probed = false;
  std::uint64_t steady_allocs = 0;
  std::uint64_t pool_steady_misses = 0;
  std::uint64_t table_runs = 0;  ///< traced run only
  std::uint64_t table_frames = 0;
  double batch_check_ns = 0;  ///< batch tag-witness time (when run)
  std::uint64_t batch_checked_ops = 0;
  std::vector<mwreg::ClusterConfig> key_cfgs;
  ReplayShape shape;
};

struct KvOptions {
  bool steady_probe = false;  ///< 1-op/client probe after the timed run
  bool batch_check = false;   ///< batch tag-witness on the kept histories
  SpanRecorder* rec = nullptr;  ///< traced run
  Capture* capture = nullptr;   ///< capture run
};

KvRun run_kv_once(const KvSpec& spec, std::uint64_t seed,
                  const KvOptions& opt) {
  const mwreg::Protocol& proto = *mwreg::protocol_by_name(spec.protocol);
  SpanRecorder* rec = opt.rec;
  const std::uint32_t l_setup = rec ? rec->layer("core.harness.setup") : 0;
  const std::uint32_t l_run = rec ? rec->layer("workload.run") : 0;
  const std::uint32_t l_table = rec ? rec->layer("core.table") : 0;
  const std::uint32_t l_stream = rec ? rec->layer("consistency.stream") : 0;

  KvRun out;
  const std::int64_t t_start = SpanRecorder::now_ns();
  std::unique_ptr<mwreg::SimHarness> h;
  {
    ScopedSpan s(rec, l_setup);
    mwreg::SimHarness::Options o;
    o.cfg = mwreg::ClusterConfig{kServers, spec.writers, spec.readers, kFaulty};
    o.keyspace = kKeyspace;
    o.seed = seed;
    o.delay = std::make_unique<mwreg::UniformDelay>(1 * mwreg::kMillisecond,
                                                    10 * mwreg::kMillisecond);
    o.coalesce = true;
    o.tick = kTick;
    o.dest_major = true;
    h = std::make_unique<mwreg::SimHarness>(proto, std::move(o));
  }
  const int keys = h->num_keys();

  RecordState st;
  std::vector<std::unique_ptr<Recorder>> recorders;
  std::vector<std::unique_ptr<mwreg::StreamingTagWitness>> checkers;
  std::vector<std::unique_ptr<TracedSink>> traced;
  for (int k = 0; k < keys; ++k) {
    mwreg::History& hist = h->key_history(k);
    recorders.push_back(
        std::make_unique<Recorder>(st, static_cast<std::uint32_t>(k)));
    hist.subscribe(recorders.back().get());
    if (!spec.checked) continue;
    checkers.push_back(std::make_unique<mwreg::StreamingTagWitness>());
    checkers.back()->retire_history(&hist);
    if (rec != nullptr) {
      traced.push_back(
          std::make_unique<TracedSink>(*checkers.back(), *rec, l_stream));
      hist.subscribe(traced.back().get());
    } else {
      hist.subscribe(checkers.back().get());
    }
  }
  std::unique_ptr<TableProbe> probe;
  if (rec != nullptr) probe = std::make_unique<TableProbe>(*h, *rec, l_table);
  if (opt.capture != nullptr) opt.capture->attach(h->net());

  mwreg::WorkloadOptions w;
  w.ops_per_writer = spec.ops;
  w.ops_per_reader = spec.ops;
  {
    ScopedSpan s(rec, l_run);
    mwreg::run_keyspace_workload(*h, w);
  }
  const std::int64_t t_end = SpanRecorder::now_ns();
  out.setup_s = static_cast<double>(st.first_invoke_ns - t_start) / 1e9;
  out.run_s = static_cast<double>(t_end - st.first_invoke_ns) / 1e9;

  KvCounts& c = out.counts;
  c.digest = st.digest.value();
  c.invoked = st.invoked;
  c.completed = st.completed;
  c.net = h->net().stats();
  c.coal = h->net().coalesce_stats();
  c.heap_events = h->sim().executed();
  c.logical_events =
      c.heap_events - c.coal.batches - c.coal.continuations + c.coal.enqueued;
  out.read_ms = std::move(st.read_ms);
  out.write_ms = std::move(st.write_ms);
  st.keep_latency = false;
  if (probe) {
    out.table_runs = probe->runs();
    out.table_frames = probe->frames();
  }

  for (const auto& chk : checkers) {
    const mwreg::StreamingStats& ss = chk->stats();
    c.stream_completions += ss.completions;
    c.peak_window = std::max<std::uint64_t>(c.peak_window, ss.peak_window);
    c.peak_pending = std::max<std::uint64_t>(c.peak_pending, ss.peak_pending);
    c.retired_tags += ss.retired_tags;
  }

  if (opt.steady_probe) {
    const std::uint64_t allocs = h->sim().allocations();
    const std::uint64_t misses = h->net().pool().stats().misses;
    mwreg::WorkloadOptions p;
    p.ops_per_writer = 1;
    p.ops_per_reader = 1;
    mwreg::run_keyspace_workload(*h, p);
    out.probed = true;
    out.steady_allocs = h->sim().allocations() - allocs;
    out.pool_steady_misses = h->net().pool().stats().misses - misses;
  }

  for (int k = 0; k < keys; ++k) {
    if (!proto.guarantees_atomicity(h->key_cfg(k))) out.expected_atomic = false;
    out.key_cfgs.push_back(h->key_cfg(k));
  }
  if (spec.checked) {
    for (auto& chk : checkers) {
      const mwreg::CheckResult r = chk->finish();
      if (!r.atomic || r.refused) {
        out.atomic = false;
        if (out.violation.empty()) out.violation = r.violation;
      }
    }
  } else if (opt.batch_check) {
    const std::int64_t t0 = SpanRecorder::now_ns();
    for (int k = 0; k < keys; ++k) {
      const mwreg::CheckResult r = mwreg::check_tag_witness(h->key_history(k));
      out.batch_checked_ops += h->key_history(k).size();
      if (!r.atomic) {
        out.atomic = false;
        if (out.violation.empty()) out.violation = r.violation;
      }
    }
    out.batch_check_ns = static_cast<double>(SpanRecorder::now_ns() - t0);
  }
  for (int k = 0; k < keys; ++k) out.history_live += h->key_history(k).ops().size();

  out.shape.servers = kKeyspace.shards * kServers;
  out.shape.first_client = first_client_id(*h);
  out.shape.clients = client_count(*h);
  out.shape.net.coalesce = true;
  out.shape.net.tick = kTick;
  out.shape.net.dest_major = true;
  for (int k = 0; k < keys; ++k) h->key_history(k).clear();
  h.reset();
  return out;
}

/// Correctness checks every run of the workload must pass.
void check_run(const KvRun& r, const KvSpec& spec, Report& out,
               const std::string& what) {
  const std::uint64_t clients =
      static_cast<std::uint64_t>(spec.writers + spec.readers);
  out.check(r.counts.invoked == clients * static_cast<std::uint64_t>(spec.ops),
            what + ": invoked ops != clients x ops");
  out.check(r.counts.completed == r.counts.invoked,
            what + ": completed ops != invoked ops");
  if (spec.checked || r.batch_checked_ops > 0) {
    out.check(!r.expected_atomic || r.atomic,
              what + ": atomicity violation: " + r.violation);
  }
  if (r.probed) {
    out.check(r.steady_allocs == 0, what + ": sim.steady_allocs != 0");
    out.check(r.pool_steady_misses == 0, what + ": net.pool_steady_misses != 0");
  }
}

TrialOps trial_ops(const KvRun& r) {
  return TrialOps{r.counts.invoked, r.counts.completed, r.expected_atomic,
                  r.atomic};
}

double div0(double a, double b) { return b == 0 ? 0 : a / b; }

void latency_metrics(const KvRun& r, Report& out) {
  out.check(percentile_reportable(r.read_ms.size(), 0.99),
            "fewer than 10 reads beyond p99");
  out.check(percentile_reportable(r.write_ms.size(), 0.99),
            "fewer than 10 writes beyond p99");
  std::vector<double> rd = r.read_ms;
  std::vector<double> wr = r.write_ms;
  std::sort(rd.begin(), rd.end());
  std::sort(wr.begin(), wr.end());
  out.add("read_vlat_p50_ms", quantile_sorted(rd, 0.5), "ms");
  out.add("read_vlat_p99_ms", quantile_sorted(rd, 0.99), "ms");
  out.add("write_vlat_p50_ms", quantile_sorted(wr, 0.5), "ms");
  out.add("write_vlat_p99_ms", quantile_sorted(wr, 0.99), "ms");
  out.note("vlat samples: " + std::to_string(rd.size()) + " reads, " +
           std::to_string(wr.size()) + " writes");
}

/// One replica of the timed run: its own harnesses on its own thread, a
/// warm-up repeat for its core, then timed repeats until the budget.
struct Replica {
  Report report;  ///< checks and op accounting of this replica's repeats
  std::vector<double> setup, ops_rate, trial_rate;
};

void run_replica(const KvSpec& spec, const Args& args, const KvCounts& ref,
                 std::int64_t t0, int id, Replica& out) {
  try {
    double timed_s = 0;
    for (int rep = 0; rep == 0 || another_rep(rep - 1, seconds_since(t0),
                                              timed_s, args.seconds);
         ++rep) {
      const std::int64_t r0 = SpanRecorder::now_ns();
      const KvRun r = run_kv_once(spec, args.seed, KvOptions{});
      const std::string what =
          "replica " + std::to_string(id) + " rep " + std::to_string(rep);
      check_run(r, spec, out.report, what);
      out.report.count(trial_ops(r));
      out.report.check(r.counts.same_as(ref),
                       what + ": digest/counts differ from the warm-up");
      out.setup.push_back(r.setup_s);
      if (rep == 0) continue;
      timed_s += seconds_since(r0);
      out.ops_rate.push_back(static_cast<double>(r.counts.completed) / r.run_s);
      out.trial_rate.push_back(1.0 / (r.setup_s + r.run_s));
    }
  } catch (const std::exception& e) {
    out.report.fail("replica " + std::to_string(id) + " threw: " + e.what());
  }
}

/// The simulator is single-threaded, so the timed run is bench_threads()
/// independent replicas of the workload, one per thread, and the rates are
/// the sum of the replicas' median rates: the host's throughput when it runs
/// that many such simulations. One replica follows the speed phases of the
/// core it runs on; the sum over four cores spreads less (README "Noise").
void run_end_to_end(const KvSpec& spec, const Args& args, Report& out) {
  const std::int64_t t0 = SpanRecorder::now_ns();
  KvOptions opt;
  opt.steady_probe = true;
  opt.batch_check = true;
  const KvRun first = run_kv_once(spec, args.seed, opt);
  check_run(first, spec, out, "warm-up");
  out.count(trial_ops(first));

  std::vector<Replica> replicas(static_cast<std::size_t>(bench_threads()));
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      threads.emplace_back(run_replica, std::cref(spec), std::cref(args),
                           std::cref(first.counts), t0, static_cast<int>(i),
                           std::ref(replicas[i]));
    }
    for (std::thread& t : threads) t.join();
  }
  std::vector<double> setup{first.setup_s};
  std::vector<double> rates;
  double ops_per_s = 0;
  double trials_per_s = 0;
  for (const Replica& r : replicas) {
    for (const std::string& f : r.report.failures) out.fail(f);
    out.attempted += r.report.attempted;
    out.failed += r.report.failed;
    setup.insert(setup.end(), r.setup.begin(), r.setup.end());
    rates.insert(rates.end(), r.ops_rate.begin(), r.ops_rate.end());
    ops_per_s += median(r.ops_rate);
    trials_per_s += median(r.trial_rate);
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(first.counts.digest));
  out.note(std::string("digest ") + digest + " over " +
           std::to_string(setup.size()) + " reps in " +
           std::to_string(replicas.size()) + " replicas; verdict " +
           (first.atomic ? "atomic" : "NOT atomic") +
           (first.expected_atomic ? " (expected atomic)" : " (no guarantee)"));
  out.note("ops_per_s of one replica over " + std::to_string(rates.size()) +
           " timed reps: " + spread_note(rates));
  out.add("ops_per_s", ops_per_s, "1/s");
  out.add("trials_per_s", trials_per_s, "1/s");
  out.add("setup_s", median(setup), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  latency_metrics(first, out);
}

void run_traced(const KvSpec& spec, const Args& args, Report& out) {
  // 1. Capture run (delivery hook on) and the two replays. It runs first so
  //    the untraced and the traced run both start on a warmed heap. The hook
  //    turns the destination-major drain off, so this run's history may
  //    differ from the others' at exact-time ties (DESIGN.md section 9).
  Capture cap;
  cap.cap = kCaptureCap;
  KvOptions co;
  co.capture = &cap;
  const KvRun c = run_kv_once(spec, args.seed, co);
  check_run(c, spec, out, "capture");
  const NetReplay nr = replay_net(cap, c.shape);
  out.check(nr.delivered == cap.frames.size() && nr.frames == cap.frames.size(),
            "net replay: replayed frame count != captured count");
  const ServerReplay sr =
      replay_servers(cap, c.shape, *mwreg::protocol_by_name(spec.protocol),
                     c.key_cfgs, kKeyspace.shards);
  out.check(cap.frames.size() < cap.delivered
                ? sr.replies >= sr.captured_replies
                : sr.replies == sr.captured_replies,
            "server replay: reply count differs from the captured run");
  out.note("captured " + std::to_string(cap.frames.size()) + " of " +
           std::to_string(cap.delivered) + " frames; server replay fed " +
           std::to_string(sr.frames) + " frames, " +
           std::to_string(sr.replies) + " replies (" +
           std::to_string(sr.captured_replies) + " captured)");

  // 2. Untraced run: the counts and the baseline wall time.
  KvOptions plain;
  plain.steady_probe = true;
  plain.batch_check = !spec.checked;
  const KvRun u = run_kv_once(spec, args.seed, plain);
  check_run(u, spec, out, "untraced");
  out.count(trial_ops(u));

  // 3. Traced run: spans around the table and the checker.
  SpanRecorder rec;
  KvOptions tr;
  tr.rec = &rec;
  const KvRun t = run_kv_once(spec, args.seed, tr);
  check_run(t, spec, out, "traced");
  out.check(t.counts.same_as(u.counts),
            "traced run: digest/counts differ from the untraced run");

  // Read-ack bytes per read over the capture: ack frames addressed to
  // reader ids, reads counted as distinct (reader, rpc id) round trips.
  const mwreg::NodeId first_reader = c.shape.first_client + spec.writers;
  std::uint64_t ack_bytes = 0;
  std::set<std::pair<mwreg::NodeId, std::uint64_t>> reads;
  for (const Capture::Rec& f : cap.frames) {
    const bool read_ack = f.type == mwreg::kAbdReadAck ||
                          f.type == mwreg::kFrReadAck ||
                          f.type == mwreg::kFrReadAckDelta;
    if (!read_ack || f.dst < first_reader) continue;
    ack_bytes += f.len;
    reads.emplace(f.dst, f.rpc_id);
  }

  const KvCounts& k = u.counts;
  const double ops = static_cast<double>(k.completed);
  const double batches = static_cast<double>(k.coal.batches);
  out.add("sim.heap_events", static_cast<double>(k.heap_events), "count");
  out.add("sim.events_per_s", static_cast<double>(k.logical_events) / u.run_s,
          "1/s");
  out.add("sim.steady_allocs", static_cast<double>(u.steady_allocs), "count");
  out.add("net.frames_per_op", static_cast<double>(k.net.sent) / ops, "count");
  out.add("net.bytes_per_op", static_cast<double>(k.net.bytes_sent) / ops, "B");
  out.add("net.frames_per_batch", div0(static_cast<double>(k.coal.frames), batches),
          "count");
  out.add("net.mean_run_len", k.coal.mean_run_len(), "count");
  out.add("net.continuations_per_batch",
          div0(static_cast<double>(k.coal.continuations), batches), "ratio");
  out.add("net.dest_major_share",
          div0(static_cast<double>(k.coal.dest_major), batches), "ratio");
  out.add("net.pool_steady_misses", static_cast<double>(u.pool_steady_misses),
          "count");
  out.add("net.replay_enqueue_ns_per_frame",
          div0(nr.enqueue_ns, static_cast<double>(nr.frames)), "ns");
  out.add("net.replay_drain_ns_per_frame",
          div0(nr.drain_ns, static_cast<double>(nr.frames)), "ns");
  out.add("core.harness.setup_s",
          static_cast<double>(rec.layer_time("core.harness.setup").incl_ns) / 1e9,
          "s");
  const SpanRecorder::LayerTime table = rec.layer_time("core.table");
  out.add("core.table.incl_s", static_cast<double>(table.incl_ns) / 1e9, "s");
  out.add("core.table.self_s", static_cast<double>(table.self_ns) / 1e9, "s");
  out.add("core.table.frames_per_run",
          div0(static_cast<double>(t.table_frames),
               static_cast<double>(t.table_runs)),
          "count");
  out.add("protocols.server_ns_per_frame",
          div0(sr.handler_ns, static_cast<double>(sr.frames)), "ns");
  out.add("protocols.read_ack_bytes_per_read",
          div0(static_cast<double>(ack_bytes), static_cast<double>(reads.size())),
          "B");
  const SpanRecorder::LayerTime stream = rec.layer_time("consistency.stream");
  out.add("consistency.stream.ns_per_op",
          div0(static_cast<double>(stream.self_ns),
               static_cast<double>(t.counts.stream_completions)),
          "ns");
  out.add("consistency.stream.peak_window", static_cast<double>(k.peak_window),
          "count");
  out.add("consistency.stream.peak_pending", static_cast<double>(k.peak_pending),
          "count");
  out.add("consistency.stream.retired_tags", static_cast<double>(k.retired_tags),
          "count");
  out.add("consistency.history_live", static_cast<double>(u.history_live),
          "count");
  for (const mwreg::AtomicityChecker* chk : mwreg::all_checkers()) {
    const bool timed = std::string(chk->name()) == "tag-witness";
    out.add("consistency.batch." + std::string(chk->name()) + ".ns_per_op",
            timed ? div0(u.batch_check_ns,
                         static_cast<double>(u.batch_checked_ops))
                  : 0.0,
            "ns");
  }
  out.add("exp.runner.trial_ms_p50", 0, "ms");
  out.add("exp.runner.trial_ms_p999", 0, "ms");
  out.add("exp.runner.thread_efficiency", 0, "ratio");
  out.add("exp.aggregator.report_s", 0, "s");
  out.add("trace.untraced_wall_s", u.run_s, "s");
  out.add("trace.traced_wall_s", t.run_s, "s");
  out.add("trace.overhead", t.run_s / u.run_s, "ratio");

  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + spec.name + ".spans.csv";
    out.check(rec.write_csv(path, spec.name), "could not write " + path);
  }
}

}  // namespace

bool is_keyspace_workload(const std::string& name) {
  for (const KvSpec& spec : kKvSpecs) {
    if (name == spec.name) return true;
  }
  return false;
}

void run_keyspace(const Args& args, Report& out) {
  for (const KvSpec& spec : kKvSpecs) {
    if (args.workload != spec.name) continue;
    if (args.trace) {
      run_traced(spec, args, out);
    } else {
      run_end_to_end(spec, args, out);
    }
  }
}

}  // namespace perfbench
