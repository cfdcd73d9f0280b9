// serve-sweep: batches of request lines through an in-process
// serve::Server in file-queue mode (auto_pump off, so one batch is one
// op), in front of an io::ResultStore held at a constant resident size.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "exec/scenario.hpp"
#include "harness/serve_gen.hpp"
#include "harness/stats.hpp"
#include "harness/workload.hpp"
#include "io/result_store.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace nspbench {
namespace {

namespace fs = std::filesystem;

constexpr int kEngineThreads = 2;
/// Entries the store's byte budget holds; the set-up fills it to that
/// with cells of the fresh-cell shape. Every put and hit rewrites the
/// whole index, so this size sets the disk writes per op and per set-up;
/// at 1000 those writes outweighed the replay work and made set-up time
/// swing with the host's disk.
constexpr int kResident = 250;

nsp::exec::Scenario scenario_of_line(const std::string& line) {
  nsp::serve::Request req;
  std::string code, msg;
  if (!nsp::serve::parse_request(line, &req, &code, &msg)) {
    throw std::runtime_error("nspbench: generated a bad request: " + msg);
  }
  return req.scenario;
}

/// The response with its echoed id removed: coalesced duplicates of one
/// cell must match their fresh twin byte for byte after the id.
std::string after_id(const std::string& response) {
  const std::size_t at = response.find(",\"ok\":");
  return at == std::string::npos ? "" : response.substr(at);
}

bool is_ok(const std::string& response) {
  return response.find("\"ok\":true,\"type\":\"result\"") != std::string::npos;
}

class ServeSweep : public Workload {
 public:
  ServeSweep(std::uint64_t seed, const std::string& work_dir)
      : gen_(seed), root_(fs::path(work_dir) / "serve-sweep") {
    fs::remove_all(root_);
    fs::create_directories(root_);
    // Budget from real bodies of the fresh-cell types, so fill, hot and
    // fresh entries are alike in size and the resident count stays put.
    std::uint64_t bytes = 0;
    for (const std::string& line : gen_.fresh_lines()) {
      bytes += nsp::serve::result_body(
                   nsp::exec::Engine::run_scenario(scenario_of_line(line)))
                   .size();
    }
    budget_ = bytes * kResident / kFresh;
  }

  ~ServeSweep() override {
    server_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  Layers layers() const override { return Layers::Serve; }
  int setup_reps() const override { return 5; }

  void setup() override {
    server_.reset();
    store_dir_ = (root_ / "store").string();
    fs::remove_all(store_dir_);
    nsp::serve::ServerOptions o;
    o.engine_threads = kEngineThreads;
    o.auto_pump = false;
    o.store_dir = store_dir_;
    o.store_max_bytes = budget_;
    server_ = std::make_unique<nsp::serve::Server>(o);
    // Fill the store to its budget with real results, then compute the
    // hot set and capture its responses.
    const std::vector<std::string> fill = gen_.fill_lines(kResident);
    setup_ok_ = true;
    for (std::size_t at = 0; at < fill.size(); at += 100) {
      const std::size_t end = std::min(fill.size(), at + 100);
      setup_ok_ &= submit_all({fill.begin() + static_cast<long>(at),
                               fill.begin() + static_cast<long>(end)},
                              nullptr);
    }
    hot_responses_.clear();
    setup_ok_ &= submit_all(gen_.hot_lines(), &hot_responses_);
  }

  void prepare(int) override {
    batch_ = gen_.next_batch();
    tickets_.assign(batch_.size(), {});
    responses_.assign(batch_.size(), {});
  }

  void run(Tracer* tr, int) override {
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      Tracer::Scope span(tr, "serve.Server::submit");
      tickets_[i] = server_->submit(batch_[i].line);
    }
    {
      Tracer::Scope span(tr, "serve.Server::pump");
      server_->pump();
    }
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      Tracer::Scope span(tr, "serve.Server::wait");
      responses_[i] = server_->wait(tickets_[i]);
    }
  }

  bool verify(int) override {
    if (!setup_ok_) return false;
    std::vector<std::string> fresh(kFresh);
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      if (batch_[i].kind == LineKind::Fresh) {
        fresh[static_cast<std::size_t>(batch_[i].ref)] = after_id(responses_[i]);
      }
    }
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      const std::string& r = responses_[i];
      if (!is_ok(r)) return false;
      const auto ref = static_cast<std::size_t>(batch_[i].ref);
      if (batch_[i].kind == LineKind::Hot && r != hot_responses_[ref]) return false;
      if (batch_[i].kind == LineKind::Duplicate && after_id(r) != fresh[ref]) {
        return false;
      }
    }
    return true;
  }

  void loop_started(bool traced) override {
    if (traced) before_ = server_->stats();
  }

  void loop_finished(bool traced, int ops) override {
    if (!traced) return;
    after_ = server_->stats();
    traced_ops_ = ops;
  }

  std::string config_record() const override {
    return "{\"workload\":\"serve-sweep\",\"engine_threads\":" +
           std::to_string(kEngineThreads) +
           ",\"auto_pump\":false,\"batch\":\"8 fresh + 4 duplicate + 4 hot\","
           "\"cell\":\"" + std::to_string(kCell.ni) + "x" + std::to_string(kCell.nj) +
           " sim_steps " + std::to_string(kCell.sim_steps) +
           "\",\"store_budget_bytes\":" + std::to_string(budget_) +
           ",\"store_resident_target\":" + std::to_string(kResident) + "}";
  }

  void layer_metrics(Tracer& tr, Metrics* out) override {
    const double ops = traced_ops_ > 0 ? traced_ops_ : 1;
    const auto per_op = [&](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a) / ops;
    };
    const std::size_t n = static_cast<std::size_t>(traced_ops_);
    out->push_back(span_p50(tr, "serve.Server::submit", "serve.submit_us", "us", 1.0));
    out->push_back(span_p50(tr, "serve.Server::pump", "serve.pump_ms", "ms", 1e-3));
    out->push_back(span_p50(tr, "serve.Server::wait", "serve.wait_us", "us", 1.0));
    out->push_back({"serve.coalesced_per_op",
                    per_op(before_.dedup_coalesced, after_.dedup_coalesced), "count", n});
    out->push_back({"serve.store_hits_per_op",
                    per_op(before_.store_hits, after_.store_hits), "count", n});
    out->push_back({"serve.store_puts_per_op",
                    per_op(before_.store_puts, after_.store_puts), "count", n});
    out->push_back({"serve.errors", static_cast<double>(after_.errors - before_.errors),
                    "count", n});
    const auto& e0 = before_.engine;
    const auto& e1 = after_.engine;
    const double wall = e1.wall_s - e0.wall_s;
    out->push_back({"exec.utilization",
                    wall > 0 ? (e1.task_s - e0.task_s) / (wall * e1.threads) : 0,
                    "ratio", n});
    out->push_back({"exec.executed", per_op(e0.executed, e1.executed), "count", n});
    out->push_back({"exec.cache_hits", per_op(e0.cache_hits, e1.cache_hits), "count", n});

    const std::vector<std::string> fresh = gen_.fresh_lines();
    std::vector<nsp::exec::Scenario> cells;
    for (const std::string& line : fresh) cells.push_back(scenario_of_line(line));
    probe_parse(tr, out);
    probe_engine(tr, cells, out);
    probe_replay_and_respond(tr, cells, out);
    server_.reset();  // the store probe reopens the store the server used
    probe_store(tr, out);
  }

 private:
  /// Submits `lines` as one batch, pumps, waits; true if all were ok.
  bool submit_all(const std::vector<std::string>& lines,
                  std::vector<std::string>* responses) {
    std::vector<nsp::serve::Server::Ticket> tickets;
    for (const std::string& l : lines) tickets.push_back(server_->submit(l));
    server_->pump();
    bool ok = true;
    for (const auto& t : tickets) {
      std::string r = server_->wait(t);
      ok &= is_ok(r);
      if (responses) responses->push_back(std::move(r));
    }
    return ok;
  }

  void probe_parse(Tracer& tr, Metrics* out) {
    Tracer::Scope probe(&tr, "probe.serve.parse");
    const std::vector<BatchLine> lines = batch_;
    for (int r = 0; r < 20; ++r) {
      for (const BatchLine& l : lines) {
        nsp::serve::Request req;
        std::string code, msg;
        Tracer::Scope call(&tr, "serve::parse_request");
        nsp::serve::parse_request(l.line, &req, &code, &msg);
      }
    }
    out->push_back(span_p50(tr, "serve::parse_request", "serve.parse_us", "us", 1.0));
  }

  void probe_engine(Tracer& tr, const std::vector<nsp::exec::Scenario>& cells,
                    Metrics* out) {
    Tracer::Scope probe(&tr, "probe.exec.run");
    for (int threads : {kEngineThreads, 1}) {
      nsp::exec::Engine engine({threads, /*cache=*/false});
      const std::string span = "exec.Engine::run/" + std::to_string(threads) + "t";
      for (int r = 0; r < 7; ++r) {
        Tracer::Scope call(&tr, span);
        engine.run(cells);
      }
    }
    const Metric two = span_p50(tr, "exec.Engine::run/2t", "exec.run_ms", "ms", 1e-3);
    const Metric one = span_p50(tr, "exec.Engine::run/1t", "exec.run_1t_ms", "ms", 1e-3);
    out->push_back(two);
    out->push_back({"exec.pool_scaling", one.value / two.value, "ratio", two.samples});
  }

  void probe_replay_and_respond(Tracer& tr, const std::vector<nsp::exec::Scenario>& cells,
                                Metrics* out) {
    std::vector<nsp::exec::RunResult> results;
    double replay_ms = 0, rank_steps = 0;
    std::size_t samples = 0;
    {
      Tracer::Scope probe(&tr, "probe.perf.replay");
      for (std::size_t t = 0; t < cells.size(); ++t) {
        const std::string span = "perf.Engine::run_scenario/" + cell_platform(static_cast<int>(t));
        for (int r = 0; r < 5; ++r) {
          Tracer::Scope call(&tr, span);
          nsp::exec::RunResult res = nsp::exec::Engine::run_scenario(cells[t]);
          if (r == 0) results.push_back(std::move(res));
        }
        const Metric m = span_p50(tr, span, "", "ms", 1e-3);
        replay_ms += m.value;
        samples += m.samples;
        rank_steps += static_cast<double>(cell_procs(static_cast<int>(t)) * kCell.sim_steps);
      }
    }
    out->push_back({"perf.replay_ms", replay_ms / static_cast<double>(cells.size()), "ms",
                    samples});
    out->push_back({"perf.rank_steps_per_s", rank_steps / (replay_ms * 1e-3), "1/s", samples});
    {
      Tracer::Scope probe(&tr, "probe.serve.respond");
      for (int r = 0; r < 20; ++r) {
        for (const auto& res : results) {
          Tracer::Scope call(&tr, "serve::result_response");
          nsp::serve::result_response("probe", res);
        }
      }
    }
    out->push_back(span_p50(tr, "serve::result_response", "serve.respond_us", "us", 1.0));
  }

  void probe_store(Tracer& tr, Metrics* out) {
    Tracer::Scope probe(&tr, "probe.io.store");
    nsp::io::ResultStore store(store_dir_, budget_);
    out->push_back({"io.store_entries", static_cast<double>(store.size()), "count", 0});
    std::vector<std::string> keys;
    for (const std::string& line : gen_.hot_lines()) {
      keys.push_back(scenario_of_line(line).cache_key());
    }
    std::string body, sample;
    store.get(keys[0], &sample);
    for (int r = 0; r < 25; ++r) {
      for (const std::string& k : keys) {
        Tracer::Scope call(&tr, "io.ResultStore::get");
        store.get(k, &body);
      }
    }
    for (int r = 0; r < 50; ++r) {
      Tracer::Scope call(&tr, "io.ResultStore::put");
      store.put("nspbench-probe-" + std::to_string(r), sample);
    }
    out->push_back(span_p50(tr, "io.ResultStore::get", "io.store_get_us", "us", 1.0));
    out->push_back(span_p50(tr, "io.ResultStore::put", "io.store_put_us", "us", 1.0));
  }

  ServeSweepGen gen_;
  fs::path root_;
  std::string store_dir_;
  std::uint64_t budget_ = 0;
  bool setup_ok_ = false;
  std::unique_ptr<nsp::serve::Server> server_;
  std::vector<std::string> hot_responses_;
  std::vector<BatchLine> batch_;
  std::vector<nsp::serve::Server::Ticket> tickets_;
  std::vector<std::string> responses_;
  nsp::serve::ServeStats before_, after_;
  int traced_ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_sweep(std::uint64_t seed,
                                           const std::string& work_dir) {
  return std::make_unique<ServeSweep>(seed, work_dir);
}

}  // namespace nspbench
