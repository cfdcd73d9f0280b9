// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each public
// call it makes into a library layer; nothing inside src/ is
// instrumented. Each span carries a name, start and end (microseconds
// on a steady clock since the recorder was created), the id of its
// parent span (-1 for a root) and the id of the op it belongs to (-1
// outside timed ops). At the end the spans are written out as Chrome
// trace-event JSON, which Perfetto (ui.perfetto.dev) and
// chrome://tracing both open.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace nspbench {

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int op = -1;      ///< op id, -1 for set-up and probe spans

  double dur_us() const { return end_us - start_us; }
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once, and
/// a child's time outside its parent is ignored).
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Records nested spans from one thread.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Microseconds since the recorder was created.
  double now_us() const;

  /// Opens a span under the innermost open span; returns its id. A span
  /// opened with op = -1 belongs to its parent's op.
  int begin(std::string name, int op = -1);
  /// Closes span `id` (the innermost open span).
  void end(int id);
  /// Adds an already-timed span under the innermost open span, for
  /// calls timed on another thread.
  int add(std::string name, double start_us, double end_us, int op = -1);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in microseconds of every closed span named `name`.
  std::vector<double> durations_us(const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events, one per span).
  std::string chrome_json() const;

  /// RAII span; a null tracer records nothing, so traced and untraced
  /// loops share one code path.
  class Scope {
   public:
    Scope(Tracer* t, std::string name, int op = -1)
        : t_(t), id_(t ? t->begin(std::move(name), op) : -1) {}
    ~Scope() {
      if (t_) t_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace nspbench
