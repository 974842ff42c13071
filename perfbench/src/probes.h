// Outside-in probes: everything the benchmark attaches to the library goes
// through public entry points (History sinks, Network::attach), so no file
// of the library changes to be measured.
//
//  * Recorder    — benchmark-owned HistorySink: completion digest, simulated
//                  latencies and the host time of the first invocation.
//                  It sees every completion even when a checker retires the
//                  recorded history, so latencies are never hidden.
//  * TracedSink  — wraps another HistorySink (a StreamingTagWitness built
//                  by the benchmark) in spans.
//  * TableProbe  — a Process attached at every client id that forwards to
//                  the ClientTable inside a span.
#pragma once

#include <cstdint>
#include <vector>

#include "consistency/history.h"
#include "core/harness.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// Completion state shared by the per-key Recorders of one run.
struct RecordState {
  Fnv digest;
  std::uint64_t invoked = 0;
  std::uint64_t completed = 0;
  std::int64_t first_invoke_ns = -1;  ///< steady-clock time of the first op
  bool keep_latency = true;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
};

class Recorder final : public mwreg::HistorySink {
 public:
  Recorder(RecordState& st, std::uint32_t key) : st_(st), key_(key) {}

  void on_invoke(const mwreg::OpRecord&) override {
    if (st_.first_invoke_ns < 0) st_.first_invoke_ns = SpanRecorder::now_ns();
    ++st_.invoked;
  }
  void on_complete(const mwreg::OpRecord& op) override {
    ++st_.completed;
    Fnv& d = st_.digest;
    d.mix(key_);
    d.mix(static_cast<std::uint64_t>(op.client));
    d.mix(static_cast<std::uint64_t>(op.kind));
    d.mix(static_cast<std::uint64_t>(op.invoke));
    d.mix(static_cast<std::uint64_t>(op.resp));
    d.mix(static_cast<std::uint64_t>(op.value.tag.ts));
    d.mix(static_cast<std::uint64_t>(op.value.tag.wid));
    d.mix(static_cast<std::uint64_t>(op.value.payload));
    if (!st_.keep_latency) return;
    const double ms = static_cast<double>(op.resp - op.invoke) /
                      static_cast<double>(mwreg::kMillisecond);
    (op.kind == mwreg::OpKind::kRead ? st_.read_ms : st_.write_ms)
        .push_back(ms);
  }

 private:
  RecordState& st_;
  std::uint32_t key_;
};

/// Forwards every HistorySink hook to `inner` inside a span of `layer`.
class TracedSink final : public mwreg::HistorySink {
 public:
  TracedSink(mwreg::HistorySink& inner, SpanRecorder& rec,
             std::uint32_t layer)
      : inner_(inner), rec_(rec), layer_(layer) {}

  void on_invoke(const mwreg::OpRecord& op) override {
    ScopedSpan s(&rec_, layer_);
    inner_.on_invoke(op);
  }
  void on_value(const mwreg::OpRecord& op) override {
    ScopedSpan s(&rec_, layer_);
    inner_.on_value(op);
  }
  void on_complete(const mwreg::OpRecord& op) override {
    ScopedSpan s(&rec_, layer_);
    inner_.on_complete(op);
  }
  void on_retire(mwreg::OpId first_live) override {
    ScopedSpan s(&rec_, layer_);
    inner_.on_retire(first_live);
  }

 private:
  mwreg::HistorySink& inner_;
  SpanRecorder& rec_;
  std::uint32_t layer_;
};

/// Client ids of a table-mode harness: [first, first + W + R).
inline mwreg::NodeId first_client_id(mwreg::SimHarness& h) {
  return h.key_cfg(0).first_client();
}
inline int client_count(mwreg::SimHarness& h) {
  return h.cfg().w() + h.cfg().r();
}

/// Takes over every client id of a table-mode harness and forwards each
/// delivery to the ClientTable inside a span. The table is one Process at
/// all client ids and so is the probe, so the destination-major drain
/// groups frames exactly as it would without the probe.
class TableProbe final : public mwreg::Process {
 public:
  TableProbe(mwreg::SimHarness& h, SpanRecorder& rec, std::uint32_t layer)
      : Process(first_client_id(h), h.net()),
        table_(*h.table()),
        rec_(rec),
        layer_(layer) {
    const mwreg::NodeId first = first_client_id(h);
    for (int i = 0; i < client_count(h); ++i) h.net().attach(first + i, *this);
  }

  void on_message(const mwreg::Frame& f) override {
    ScopedSpan s(&rec_, layer_);
    ++runs_;
    ++frames_;
    table_.on_message(f);
  }
  void on_deliver_batch(mwreg::FrameSpan frames) override {
    ScopedSpan s(&rec_, layer_);
    ++runs_;
    frames_ += frames.size();
    table_.on_deliver_batch(frames);
  }

  [[nodiscard]] std::uint64_t runs() const { return runs_; }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }

 private:
  mwreg::ClientTable& table_;
  SpanRecorder& rec_;
  std::uint32_t layer_;
  std::uint64_t runs_ = 0;
  std::uint64_t frames_ = 0;
};

}  // namespace perfbench
