// In-memory span recorder for the traced run. Every span carries a name, a
// start and an end on the steady clock, the id of the span that caused it,
// and the id of the request it belongs to. Spans stay in memory while the
// workload runs and are written once, at exit, as Chrome trace-event JSON
// (open the file in https://ui.perfetto.dev or chrome://tracing).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // groups the spans of one operation
  std::string name;
  double start = 0.0;  // seconds, steady clock
  double end = 0.0;

  double seconds() const noexcept { return end - start; }
};

class Tracer {
 public:
  /// Opens a span now; returns its id.
  std::uint64_t begin(std::string name, std::uint64_t parent,
                      std::uint64_t request);
  /// Closes an open span now.
  void end(std::uint64_t id);
  /// Records an already-measured span (e.g. server-side phases reported in a
  /// response); returns its id.
  std::uint64_t add(std::string name, std::uint64_t parent,
                    std::uint64_t request, double start, double end);

  /// Every closed span named `name`, in recording order.
  std::vector<SpanRecord> spans(const std::string& name) const;
  /// Durations (seconds) of the spans named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// For each span named `name`: its duration minus the time covered by its
  /// direct children (its self time).
  std::vector<double> self_times(const std::string& name) const;

  /// Writes every closed span as Chrome trace-event JSON; returns false on
  /// an I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, SpanRecord> open_;
  std::vector<SpanRecord> closed_;
};

/// RAII span: begin on construction, end on destruction.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::uint64_t parent,
       std::uint64_t request)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name), parent, request)
                              : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
