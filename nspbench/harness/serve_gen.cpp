#include "harness/serve_gen.hpp"

#include <array>
#include <utility>

#include "sim/rng.hpp"

namespace nspbench {
namespace {

// The paper's message-passing platforms, each at two processor counts.
constexpr std::array<const char*, 4> kPlatforms = {"sp-mpl", "t3d", "lace-atm",
                                                   "lace-fddi"};
constexpr std::array<int, 2> kProcs = {4, 8};

// Disjoint `steps` ranges keep fill, hot and fresh cache keys apart.
// All are seven digits wide, so every key and body has the same length.
constexpr long long kFreshSteps = 1000000;
constexpr long long kFillSteps = 3000000;
constexpr long long kHotSteps = 5000000;

// "<prefix><a>" or "<prefix><a>-<b>": a request id.
std::string req_id(char prefix, int a, int b = -1) {
  std::string id(1, prefix);
  id += std::to_string(a);
  if (b >= 0) {
    id += '-';
    id += std::to_string(b);
  }
  return id;
}

// The scenario object of a kCell-shaped replay cell of fresh-cell type
// `type`; `steps` sets its cache key.
std::string cell(int type, long long steps);

std::string run_line(const std::string& id, const std::string& scenario) {
  return "{\"id\":\"" + id + "\",\"op\":\"run\",\"scenario\":" + scenario + "}";
}

// First `k` entries of a seeded Fisher-Yates shuffle of 0..n-1.
std::vector<int> pick(nsp::sim::Rng& rng, int n, int k) {
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < k; ++i) {
    const int j = i + static_cast<int>(rng.next_u64() % static_cast<std::uint64_t>(n - i));
    std::swap(idx[static_cast<std::size_t>(i)], idx[static_cast<std::size_t>(j)]);
  }
  idx.resize(static_cast<std::size_t>(k));
  return idx;
}

}  // namespace

std::string cell_platform(int k) {
  return std::string(kPlatforms[static_cast<std::size_t>(k / 2)]) + "-" +
         std::to_string(cell_procs(k));
}

int cell_procs(int k) { return kProcs[static_cast<std::size_t>(k % 2)]; }

ServeSweepGen::ServeSweepGen(std::uint64_t seed)
    : rng_(nsp::sim::Rng::stream(seed, "nspbench.serve")) {
  fresh_base_ = kFreshSteps + static_cast<long long>(rng_.next_u64() % 1000000);
  const long long hot_base =
      kHotSteps + static_cast<long long>(rng_.next_u64() % 100000);
  for (int k = 0; k < kHotSet; ++k) {
    hot_.push_back(run_line(req_id('h', k),
                            cell(k % kCellTypes, hot_base + k)));
  }
}

namespace {

std::string cell(int type, long long steps) {
  return "{\"platform\":\"" + cell_platform(type) +
         "\",\"ni\":" + std::to_string(kCell.ni) +
         ",\"nj\":" + std::to_string(kCell.nj) +
         ",\"steps\":" + std::to_string(steps) +
         ",\"sim_steps\":" + std::to_string(kCell.sim_steps) + "}";
}

}  // namespace

std::string ServeSweepGen::fresh_line(int op, int type) const {
  return run_line(req_id('f', op, type),
                  cell(type, fresh_base_ + op));
}

std::vector<std::string> ServeSweepGen::fill_lines(int n) const {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    out.push_back(run_line(req_id('s', k), cell(k % kCellTypes, kFillSteps + k)));
  }
  return out;
}

std::vector<std::string> ServeSweepGen::fresh_lines() const {
  std::vector<std::string> out;
  for (int t = 0; t < kFresh; ++t) out.push_back(fresh_line(op_, t));
  return out;
}

std::vector<BatchLine> ServeSweepGen::next_batch() {
  std::vector<BatchLine> batch;
  batch.reserve(kBatch);
  for (int t = 0; t < kFresh; ++t) {
    batch.push_back({fresh_line(op_, t), LineKind::Fresh, t});
  }
  for (int t : pick(rng_, kFresh, kDup)) {
    batch.push_back({run_line(req_id('d', op_, t),
                              cell(t, fresh_base_ + op_)),
                     LineKind::Duplicate, t});
  }
  for (int h : pick(rng_, kHotSet, kHot)) {
    batch.push_back({hot_[static_cast<std::size_t>(h)], LineKind::Hot, h});
  }
  const std::vector<int> order = pick(rng_, kBatch, kBatch);
  std::vector<BatchLine> shuffled;
  shuffled.reserve(kBatch);
  for (int i : order) shuffled.push_back(std::move(batch[static_cast<std::size_t>(i)]));
  ++op_;
  return shuffled;
}

std::string ServeSweepGen::scenario_of(const std::string& line) {
  const std::string tag = "\"scenario\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return "";
  return line.substr(at + tag.size());
}

}  // namespace nspbench
