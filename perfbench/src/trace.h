// In-memory span recorder for the traced run.
//
// A span is one timed call into a layer: layer id, start, end, the span
// that was open when it began (its parent) and the workload id. Spans stay
// in memory and are written out when the run ends. A layer's self time is
// the sum over its spans of (span duration - durations of its direct child
// spans); spans nest strictly (begin/end follow the call stack), so the
// children of a span cover disjoint parts of it.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::uint32_t layer = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 at root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Layer names index spans; register every layer before recording.
  std::uint32_t layer(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  std::int32_t begin(std::uint32_t layer) { return begin_at(layer, now_ns()); }
  void end(std::int32_t span) { end_at(span, now_ns()); }

  /// Explicit-timestamp forms (tests; callers that already read the clock).
  std::int32_t begin_at(std::uint32_t layer, std::int64_t t) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{layer, parent, t, t});
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void end_at(std::int32_t span, std::int64_t t) {
    spans_[static_cast<std::size_t>(span)].end_ns = t;
    stack_.pop_back();
  }

  /// Per-layer inclusive and self nanoseconds. Inclusive time counts only
  /// outermost spans of a layer, so a layer re-entered inside itself (a
  /// sink notified from within its own callback) is not counted twice.
  struct LayerTime {
    std::int64_t incl_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t spans = 0;
  };
  [[nodiscard]] std::vector<LayerTime> layer_times() const {
    std::vector<LayerTime> out(names_.size());
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      LayerTime& lt = out[s.layer];
      const std::int64_t dur = s.end_ns - s.start_ns;
      lt.self_ns += dur - child_ns[i];
      ++lt.spans;
      if (!inside_layer(s.parent, s.layer)) lt.incl_ns += dur;
    }
    return out;
  }

  [[nodiscard]] LayerTime layer_time(const std::string& name) const {
    const std::vector<LayerTime> all = layer_times();
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return all[i];
    }
    return {};
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// One CSV row per span: workload,layer,parent,start_ns,end_ns.
  bool write_csv(const std::string& path, const std::string& workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "workload,layer,parent,start_ns,end_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%s,%d,%lld,%lld\n", workload.c_str(),
                   names_[s.layer].c_str(), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  [[nodiscard]] bool inside_layer(std::int32_t parent,
                                  std::uint32_t layer) const {
    for (std::int32_t p = parent; p >= 0;
         p = spans_[static_cast<std::size_t>(p)].parent) {
      if (spans_[static_cast<std::size_t>(p)].layer == layer) return true;
    }
    return false;
  }

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(SpanRecorder::now_ns() - t0_ns) / 1e9;
}

/// RAII span: opens on construction when a recorder is given.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::uint32_t layer)
      : rec_(rec), span_(rec != nullptr ? rec->begin(layer) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t span_;
};

}  // namespace perfbench
