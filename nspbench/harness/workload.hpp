// The benchmark's workloads: closed loops with one client, each op doing
// the same work. The driver (main.cpp) sets a workload up several times,
// then alternates prepare (untimed) / run (timed) / verify (untimed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/trace.hpp"

namespace nspbench {

/// One reported number. `samples` is the sample count behind a timing
/// (0 for exact counts and derived ratios).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};
using Metrics = std::vector<Metric>;

/// The layers whose per-layer metrics a workload measures.
enum class Layers { Core, ParMp, Serve };

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  virtual Layers layers() const = 0;
  /// Set-ups per run; set-up time is reported as their median.
  virtual int setup_reps() const { return 9; }
  /// Builds everything a timed op needs, replacing earlier state.
  virtual void setup() = 0;
  /// Untimed work before op `k` (restore state, generate requests).
  virtual void prepare(int k) = 0;
  /// The timed op; `tr` is null in untraced loops.
  virtual void run(Tracer* tr, int k) = 0;
  /// Untimed correctness gate for op `k`.
  virtual bool verify(int k) = 0;
  /// Called around each loop of ops.
  virtual void loop_started(bool /*traced*/) {}
  virtual void loop_finished(bool /*traced*/, int /*ops*/) {}
  /// One-line JSON description of the configuration.
  virtual std::string config_record() const = 0;
  /// Per-layer metrics: derived from the traced loop's spans plus probes
  /// that time single public calls. May release the workload's state.
  virtual void layer_metrics(Tracer& tr, Metrics* out) = 0;
};

/// Builds a workload; `work_dir` is scratch space inside the build tree.
/// Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir);

std::unique_ptr<Workload> make_solve_paper(std::uint64_t seed);
std::unique_ptr<Workload> make_solve_large(std::uint64_t seed);
std::unique_ptr<Workload> make_solve_decomposed(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_sweep(std::uint64_t seed,
                                           const std::string& work_dir);

/// p50 of the spans named `span` as metric `metric`, in `scale` units
/// per microsecond.
Metric span_p50(const Tracer& tr, const std::string& span,
                const std::string& metric, const std::string& unit,
                double scale);

}  // namespace nspbench
