// solve-paper, solve-large and solve-decomposed: live solves through the
// public entry points of nsp::core, nsp::par and nsp::mp.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/kernels_tiled.hpp"
#include "core/solver.hpp"
#include "core/tiles.hpp"
#include "harness/host.hpp"
#include "harness/stats.hpp"
#include "harness/workload.hpp"
#include "model/registry.hpp"
#include "mp/comm.hpp"
#include "par/subdomain_solver.hpp"
#include "sim/rng.hpp"

namespace nspbench {
namespace {

using nsp::core::Solver;
using nsp::core::SolverConfig;
using nsp::core::StateField;

/// The default model on an ni x nj grid. The seed scales the inflow
/// excitation level within 1%: it changes the flow, not the work.
SolverConfig jet_config(int ni, int nj, std::uint64_t seed) {
  SolverConfig cfg;
  cfg.grid = nsp::core::Grid::coarse(ni, nj);
  nsp::model::make_model(nsp::model::kDefaultModel).configure(&cfg);
  nsp::sim::Rng rng = nsp::sim::Rng::stream(seed, "nspbench.solve");
  cfg.jet.eps *= 1.0 + 0.01 * rng.uniform();
  return cfg;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string grid_record(const SolverConfig& cfg) {
  const int ni = cfg.grid.ni, nj = cfg.grid.nj;
  return "\"grid\":\"" + std::to_string(ni) + "x" + std::to_string(nj) +
         "\",\"model\":\"" + std::string(nsp::model::kDefaultModel) +
         "\",\"variant\":\"V5\",\"tiled\":true,\"working_set_bytes\":" +
         std::to_string(working_set_bytes(ni, nj)) + ",\"tile_width\":" +
         std::to_string(nsp::core::choose_tile_width(
             ni, nj, nsp::core::kSweepArrays, nsp::core::host_cache_bytes()));
}

// ---- solve-paper / solve-large -------------------------------------------

/// Solver::run(steps_per_op) on one persistent serial solver, restored
/// to the same warm state before every op.
class SerialSolve : public Workload {
 public:
  SerialSolve(const char* name, int ni, int nj, int steps_per_op,
              int setup_reps, std::uint64_t seed)
      : name_(name),
        cfg_(jet_config(ni, nj, seed)),
        steps_per_op_(steps_per_op),
        setup_reps_(setup_reps) {}

  Layers layers() const override { return Layers::Core; }
  int setup_reps() const override { return setup_reps_; }

  void setup() override {
    solver_.reset();
    solver_ = std::make_unique<Solver>(cfg_);
    solver_->initialize();
    solver_->run(2);  // warm-up: touch every array, settle caches
    warm_ = solver_->state();
    warm_t_ = solver_->time();
    warm_steps_ = solver_->steps_taken();
    have_first_ = false;
  }

  void prepare(int) override { solver_->restore(warm_, warm_t_, warm_steps_); }

  void run(Tracer* tr, int) override {
    if (!tr) {
      solver_->run(steps_per_op_);
      return;
    }
    // Solver::run(n) is n calls of step(); traced, each gets a span.
    for (int s = 0; s < steps_per_op_; ++s) {
      Tracer::Scope span(tr, "core.Solver::step");
      solver_->step();
    }
  }

  bool verify(int) override {
    if (!solver_->finite()) return false;
    const std::uint64_t h = state_hash(solver_->state());
    if (!have_first_) {
      first_hash_ = h;
      have_first_ = true;
    }
    return h == first_hash_;
  }

  std::string config_record() const override {
    return "{\"workload\":\"" + std::string(name_) + "\"," + grid_record(cfg_) +
           ",\"op\":\"Solver::run(" + std::to_string(steps_per_op_) + ")\"}";
  }

  void layer_metrics(Tracer& tr, Metrics* out) override {
    const int ni = cfg_.grid.ni, nj = cfg_.grid.nj;
    const Metric step = span_p50(tr, "core.Solver::step", "core.step_ms", "ms", 1e-3);
    const SolverConfig live = solver_->config();  // mu derived from Re
    const double dt = solver_->dt();
    solver_.reset();  // the probes below allocate their own fields

    // Exact flop count from a counting solver on the same warm state.
    double flops = 0;
    {
      Tracer::Scope probe(&tr, "probe.core.flops");
      SolverConfig counted = cfg_;
      counted.count_flops = true;
      Solver s(counted);
      s.initialize();
      s.restore(warm_, warm_t_, warm_steps_);
      s.run(2);
      flops = s.flops().total() / 2.0;
    }

    const double stage_sum = stage_probes(tr, live, dt, out);
    const int width = nsp::core::choose_tile_width(ni, nj, nsp::core::kSweepArrays,
                                                   nsp::core::host_cache_bytes());
    const double step_s = step.value * 1e-3;
    const double bytes = 2.0 * nsp::core::kSweepArrays * ni * nj * 8.0;
    out->push_back(step);
    out->push_back({"core.flops_per_step", flops, "count", 0});
    out->push_back({"core.gflops", flops / step_s * 1e-9, "GF/s", step.samples});
    out->push_back({"core.gbytes_per_s_computed", bytes / step_s * 1e-9, "GB/s",
                    step.samples});
    out->push_back({"core.tile_width", static_cast<double>(width), "count", 0});
    out->push_back({"core.stage_sum_ratio", stage_sum / step.value, "ratio",
                    step.samples});
  }

 private:
  /// Times one full-range call of each core::tiled:: stage kernel on the
  /// warm state; returns the sum of stage time x calls per step (ms).
  double stage_probes(Tracer& tr, const SolverConfig& live, double dt,
                      Metrics* out) {
    using namespace nsp::core;
    const Grid& g = live.grid;
    const Gas& gas = live.jet.gas;
    const Range all{0, g.ni};
    const double lambda = dt / (6.0 * g.dx());
    const SweepVariant v = SweepVariant::L1;
    const StateField& q = warm_;
    PrimitiveField w(g.ni, g.nj);
    StressField s(g.ni, g.nj);
    StateField flux(g.ni, g.nj), qp(g.ni, g.nj), qn(g.ni, g.nj);
    // Inputs first, so every stage reads the values a sweep would.
    tiled::compute_primitives(gas, q, w, all, -kGhost, g.nj + kGhost);
    tiled::compute_stresses(gas, g, w, s, all, 0, g.ni);
    tiled::compute_flux_x(gas, q, w, s, true, flux, all);

    const int reps = g.ni * g.nj > 1000000 ? 5 : 31;
    struct Stage {
      const char* name;
      int calls_per_step;
    };
    const Stage stages[] = {{"primitives", 4}, {"stresses", 4},   {"flux_x", 2},
                            {"flux_r", 2},     {"predictor_x", 1}, {"corrector_x", 1},
                            {"predictor_r", 1}, {"corrector_r", 1}};
    double sum_ms = 0;
    Tracer::Scope probe(&tr, "probe.core.stages");
    for (const Stage& st : stages) {
      const std::string span = std::string("core.tiled::") + st.name;
      const std::string sname = st.name;
      for (int r = 0; r < reps; ++r) {
        Tracer::Scope call(&tr, span);
        if (sname == "primitives") {
          tiled::compute_primitives(gas, q, w, all, -kGhost, g.nj + kGhost);
        } else if (sname == "stresses") {
          tiled::compute_stresses(gas, g, w, s, all, 0, g.ni);
        } else if (sname == "flux_x") {
          tiled::compute_flux_x(gas, q, w, s, true, flux, all);
        } else if (sname == "flux_r") {
          tiled::compute_flux_r(gas, g, q, w, s, true, flux, all, 0, g.nj + kGhost);
        } else if (sname == "predictor_x") {
          tiled::predictor_x(q, flux, qp, lambda, v, all);
        } else if (sname == "corrector_x") {
          tiled::corrector_x(q, qp, flux, qn, lambda, v, all);
        } else if (sname == "predictor_r") {
          tiled::predictor_r(g, q, flux, w.p, s.ttt, true, qp, dt, v, all);
        } else {
          tiled::corrector_r(g, q, qp, flux, w.p, s.ttt, true, qn, dt, v, all);
        }
      }
      const Metric m = span_p50(tr, span, "core.stage." + sname + "_ms", "ms", 1e-3);
      sum_ms += m.value * st.calls_per_step;
      out->push_back(m);
    }
    return sum_ms;
  }

  const char* name_;
  SolverConfig cfg_;
  int steps_per_op_;
  int setup_reps_;
  std::unique_ptr<Solver> solver_;
  StateField warm_;
  double warm_t_ = 0;
  int warm_steps_ = 0;
  std::uint64_t first_hash_ = 0;
  bool have_first_ = false;
};

// ---- solve-decomposed ----------------------------------------------------

constexpr int kRanks = 2;
constexpr int kParSteps = 20;

/// One whole par::run_parallel_jet(cfg, 2, 20) call per op, checked
/// bit-for-bit against a serial Solver reference.
class Decomposed : public Workload {
 public:
  explicit Decomposed(std::uint64_t seed) : cfg_(jet_config(502, 102, seed)) {
    // Built once and outside the timed set-up: only the gate needs it,
    // users of run_parallel_jet never pay for it.
    Solver ref(cfg_);
    ref.initialize();
    ref.run(kParSteps);
    ref_ = ref.state();
  }

  Layers layers() const override { return Layers::ParMp; }

  void setup() override {
    // First call: thread start, page faults and cold caches users pay
    // once per process.
    warm_ok_ = states_identical(nsp::par::run_parallel_jet(cfg_, kRanks, kParSteps),
                                ref_);
  }

  void prepare(int) override {}

  void run(Tracer* tr, int) override {
    Tracer::Scope span(tr, "par.run_parallel_jet");
    const auto t0 = std::chrono::steady_clock::now();
    out_ = nsp::par::run_parallel_jet(cfg_, kRanks, kParSteps, &counters_);
    const double wall = seconds_since(t0);
    if (tr) {
      double wait = 0;
      for (const auto& c : counters_) wait += c.wait_s;
      wait_share_.push_back(wait / (kRanks * wall));
    }
  }

  bool verify(int) override { return warm_ok_ && states_identical(out_, ref_); }

  std::string config_record() const override {
    return "{\"workload\":\"solve-decomposed\"," + grid_record(cfg_) +
           ",\"ranks\":" + std::to_string(kRanks) +
           ",\"op\":\"par::run_parallel_jet(cfg, 2, 20)\"}";
  }

  void layer_metrics(Tracer& tr, Metrics* out) override {
    const Metric op = span_p50(tr, "par.run_parallel_jet", "par.op_ms", "ms", 1e-3);
    std::vector<nsp::core::CommCounter> c0;
    {
      Tracer::Scope probe(&tr, "probe.par.startup");
      for (int r = 0; r < 15; ++r) {
        Tracer::Scope call(&tr, "par.run_parallel_jet(0 steps)");
        nsp::par::run_parallel_jet(cfg_, kRanks, 0, &c0);
      }
    }
    const Metric startup = span_p50(tr, "par.run_parallel_jet(0 steps)",
                                    "par.startup_ms", "ms", 1e-3);
    {
      Tracer::Scope probe(&tr, "probe.par.serial");
      Solver s(cfg_);
      s.initialize();
      const StateField init = s.state();
      for (int r = 0; r < 7; ++r) {
        s.restore(init, 0.0, 0);
        Tracer::Scope call(&tr, "core.Solver::run(20) serial");
        s.run(kParSteps);
      }
    }
    const Metric serial = span_p50(tr, "core.Solver::run(20) serial",
                                   "par.serial_ms", "ms", 1e-3);
    const double step_ms = (op.value - startup.value) / kParSteps;
    double sends = 0, bytes = 0;
    for (const auto& c : counters_) {
      sends += static_cast<double>(c.sends);
      bytes += c.bytes_sent;
    }
    for (const auto& c : c0) {
      sends -= static_cast<double>(c.sends);
      bytes -= c.bytes_sent;
    }
    out->push_back(startup);
    out->push_back({"par.step_ms", step_ms, "ms", op.samples});
    out->push_back({"par.efficiency", serial.value / (kRanks * step_ms * kParSteps),
                    "ratio", op.samples});
    out->push_back({"mp.msgs_per_step", sends / kParSteps, "count", 0});
    out->push_back({"mp.bytes_per_step", bytes / kParSteps, "B", 0});
    out->push_back({"mp.wait_share", median(wait_share_), "ratio", wait_share_.size()});
    out->push_back(pingpong(tr));
  }

 private:
  /// Round trip of one halo-sized message (u, v, T, p on two boundary
  /// columns) through Comm::send / recv_into on a 2-rank cluster.
  Metric pingpong(Tracer& tr) const {
    const std::size_t n = 4u * 2u * static_cast<std::size_t>(cfg_.grid.nj + 2 * nsp::core::kGhost);
    constexpr int kWarm = 50, kTrips = 400, kTag = 7;
    std::vector<std::pair<double, double>> trips;
    trips.reserve(kTrips);
    Tracer::Scope probe(&tr, "probe.mp.pingpong");
    nsp::mp::Cluster cluster(2);
    cluster.run([&](nsp::mp::Comm& comm) {
      std::vector<double> buf(n, 1.0);
      const int peer = 1 - comm.rank();
      for (int k = 0; k < kWarm + kTrips; ++k) {
        if (comm.rank() == 0) {
          const double t0 = tr.now_us();
          comm.send(peer, kTag, buf);
          comm.recv_into(peer, kTag, buf);
          if (k >= kWarm) trips.emplace_back(t0, tr.now_us());
        } else {
          comm.recv_into(peer, kTag, buf);
          comm.send(peer, kTag, buf);
        }
      }
    });
    for (const auto& [t0, t1] : trips) tr.add("mp.Comm::send+recv_into round trip", t0, t1);
    return span_p50(tr, "mp.Comm::send+recv_into round trip", "mp.pingpong_us", "us", 1.0);
  }

  SolverConfig cfg_;
  StateField ref_;
  StateField out_;
  bool warm_ok_ = false;
  std::vector<nsp::core::CommCounter> counters_;
  std::vector<double> wait_share_;
};

}  // namespace

std::unique_ptr<Workload> make_solve_paper(std::uint64_t seed) {
  // 502 x 102: the grid bench_kernels and BENCH_kernels.json use.
  return std::make_unique<SerialSolve>("solve-paper", 502, 102, 10, 9, seed);
}

std::unique_ptr<Workload> make_solve_large(std::uint64_t seed) {
  // 2048 x 2048: the memory-bound grid; two steps are one L1/L2 pair.
  return std::make_unique<SerialSolve>("solve-large", 2048, 2048, 2, 3, seed);
}

std::unique_ptr<Workload> make_solve_decomposed(std::uint64_t seed) {
  return std::make_unique<Decomposed>(seed);
}

}  // namespace nspbench
