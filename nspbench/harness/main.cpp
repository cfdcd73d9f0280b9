// nspbench: one workload per process, one JSON result line at the end.
//
//   nspbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>]
//
// --trace 0 measures the end-to-end metrics: set-up time (median of
// several set-ups), op latency p50 (and p95 in the table where at least
// ten samples lie beyond it), ops per second over the timed ops, and
// peak RSS. --trace 1 is the separate traced run: untraced and traced
// ops interleaved A B B A (the ratio of their rates is trace.overhead,
// and drift of the host hits both alike), then the per-layer metrics of
// every layer, taken from spans around public calls into each layer. Layers the chosen workload does not exercise are
// measured on a short loop of the workload that does. The spans are
// written to <work-dir>/trace-<workload>-<seed>.json (Chrome trace-event
// JSON). Correctness gates run outside the timed region; an op that fails
// one counts as failed.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "check/report.hpp"
#include "harness/host.hpp"
#include "harness/stats.hpp"
#include "harness/trace.hpp"
#include "harness/workload.hpp"
#include "io/table.hpp"

namespace nspbench {

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "solve-paper") return make_solve_paper(seed);
  if (name == "solve-large") return make_solve_large(seed);
  if (name == "solve-decomposed") return make_solve_decomposed(seed);
  if (name == "serve-sweep") return make_serve_sweep(seed, work_dir);
  return nullptr;
}

Metric span_p50(const Tracer& tr, const std::string& span,
                const std::string& metric, const std::string& unit,
                double scale) {
  const std::vector<double> d = tr.durations_us(span);
  return Metric{metric, median(d) * scale, unit, d.size()};
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

struct Loop {
  std::vector<double> op_ms;      ///< untraced ops
  std::vector<double> traced_ms;  ///< traced ops
  int attempted = 0;
  int failed = 0;
};

/// Ops per second: the median over ten consecutive blocks of ops, so one
/// stall of a shared host moves one block, not the whole figure.
double ops_per_s(const std::vector<double>& op_ms) { return block_rate(op_ms, 10) * 1e3; }

/// How a loop uses its tracer.
enum class Tracing { Off, All, Abba };

/// Ops until `seconds` of wall time have passed (at least `min_ops`).
/// Abba traces ops 1, 2 of every 4 and leaves ops 0, 3 untraced.
Loop run_loop(Workload& w, double seconds, Tracer* tr, Tracing mode, int* next_op,
              int min_ops = 3) {
  Loop out;
  w.loop_started(mode != Tracing::Off);
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (elapsed >= seconds && out.attempted >= min_ops) break;
    const int phase = out.attempted % 4;
    Tracer* op_tr = mode == Tracing::All || (mode == Tracing::Abba && (phase == 1 || phase == 2))
                        ? tr
                        : nullptr;
    const int k = (*next_op)++;
    w.prepare(k);
    const auto t0 = std::chrono::steady_clock::now();
    {
      Tracer::Scope op(op_tr, "op", k);
      w.run(op_tr, k);
    }
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    ++out.attempted;
    if (!w.verify(k)) ++out.failed;
    (op_tr ? out.traced_ms : out.op_ms).push_back(s * 1e3);
  }
  w.loop_finished(mode != Tracing::Off, out.attempted);
  return out;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string flag = argv[k];
    const std::string val = argv[k + 1];
    if (flag == "--workload") {
      a->workload = val;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = val == "1";
    } else if (flag == "--work-dir") {
      a->work_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

std::string metrics_json(const Metrics& ms) {
  std::string out = "{";
  for (std::size_t k = 0; k < ms.size(); ++k) {
    if (k > 0) out += ", ";
    out += "\"" + ms[k].name + "\": {\"value\": " + nsp::io::format_exact(ms[k].value) +
           ", \"unit\": \"" + ms[k].unit + "\"}";
  }
  return out + "}";
}

void print_table(const std::string& title, const Metrics& ms) {
  nsp::io::Table t({"metric", "value", "unit", "samples"});
  t.title(title);
  for (const Metric& m : ms) {
    t.row({m.name, nsp::io::format_exact(m.value), m.unit,
           m.samples > 0 ? std::to_string(m.samples) : "exact"});
  }
  std::printf("%s\n", t.str().c_str());
}

/// The workload that exercises `layers`, for a short foreign-layer loop.
std::unique_ptr<Workload> workload_for(Layers layers, std::uint64_t seed,
                                       const std::string& work_dir) {
  switch (layers) {
    case Layers::Core: return make_solve_paper(seed);
    case Layers::ParMp: return make_solve_decomposed(seed);
    case Layers::Serve: return make_serve_sweep(seed, work_dir);
  }
  return nullptr;
}

}  // namespace
}  // namespace nspbench

int main(int argc, char** argv) {
  using namespace nspbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nspbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed, args.work_dir);
  if (!w) {
    std::fprintf(stderr, "nspbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("# host %s\n# config %s\n", host_record().c_str(),
              w->config_record().c_str());

  // Gate: a solve process first reproduces the production golden hash.
  bool gates_ok = true;
  if (w->layers() != Layers::Serve) {
    const std::uint64_t h = golden_run_hash();
    gates_ok = h == kGoldenHash;
    std::printf("# golden hash %016llx (%s)\n", static_cast<unsigned long long>(h),
                gates_ok ? "ok" : "MISMATCH");
  }

  // The traced run reports no set-up time, so it sets up once.
  std::vector<double> setups;
  for (int r = 0; r < (args.trace ? 1 : w->setup_reps()); ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    w->setup();
    setups.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }

  int next_op = 0;
  Metrics metrics;
  Loop total;
  if (!args.trace) {
    total = run_loop(*w, args.seconds, nullptr, Tracing::Off, &next_op);
    metrics = {
        {"setup_s", median(setups), "s", setups.size()},
        {"op_p50_ms", median(total.op_ms), "ms", total.op_ms.size()},
        {"ops_per_s", ops_per_s(total.op_ms), "1/s", total.op_ms.size()},
        {"peak_rss_mb", peak_rss_mb(), "MiB", 0},
    };
    // p95 is shown only where the tail rule holds; it is not in the result
    // line, whose metrics every workload must report.
    const Tail p95 = tail(total.op_ms, 0.95);
    Metrics shown = metrics;
    if (p95.reportable) shown.push_back({"op_p95_ms", p95.value, "ms", p95.samples});
    print_table(args.workload + " end to end", shown);
    std::printf("# op_p95_ms: %zu of %zu samples beyond p95 (%s)\n", p95.beyond,
                p95.samples, p95.reportable ? "reported" : "fewer than 10: omitted");
  } else {
    Tracer tr;
    total = run_loop(*w, args.seconds, &tr, Tracing::Abba, &next_op, 8);
    w->layer_metrics(tr, &metrics);
    metrics.push_back({"trace.overhead",
                       ops_per_s(total.traced_ms) / ops_per_s(total.op_ms), "ratio",
                       total.traced_ms.size()});
    // Layers this workload does not exercise: a short loop of the one
    // that does, traced the same way.
    for (Layers other : {Layers::Core, Layers::ParMp, Layers::Serve}) {
      if (other == w->layers()) continue;
      std::unique_ptr<Workload> f = workload_for(other, args.seed, args.work_dir);
      std::printf("# config %s\n", f->config_record().c_str());
      f->setup();
      int k = 0;
      const Loop fl =
          run_loop(*f, other == Layers::Serve ? 2.0 : 1.0, &tr, Tracing::All, &k, 10);
      total.attempted += fl.attempted;
      total.failed += fl.failed;
      f->layer_metrics(tr, &metrics);
    }
    w.reset();
    const std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    std::ofstream(path) << tr.chrome_json();
    print_table(args.workload + " per layer (traced run)", metrics);
    std::printf("# trace: %s (%zu spans; open in ui.perfetto.dev)\n", path.c_str(),
                tr.spans().size());
  }

  // Gate: no invariant of the library was violated during the run.
  const nsp::check::Report rep = nsp::check::snapshot();
  if (!rep.clean()) {
    std::printf("%s", rep.str().c_str());
    gates_ok = false;
  }
  if (!gates_ok) total.failed = total.attempted;
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              gates_ok && total.failed == 0 ? "true" : "false", total.attempted,
              total.failed, metrics_json(metrics).c_str());
  return 0;
}
