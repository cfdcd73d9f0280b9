// Request generator for the serve-sweep workload.
//
// Every batch has the same composition, so every op does the same work:
//   * kFresh fresh replay cells — the same kCellTypes message-passing
//     platform/processor-count cells in every batch, made new to the
//     memo cache and the result store by a `steps` value no earlier
//     batch used. Every line sets `sim_steps` explicitly (the wire
//     default 0 means "simulate every step"), so `steps` changes the
//     cache key but not the replay's work;
//   * kDup duplicates of fresh cells of the same batch (coalesced by the
//     server);
//   * kHot repeats drawn from a fixed hot set of kHotSet lines that the
//     set-up computed, so they are result-store hits. Hot lines are
//     byte-identical every time they are sent.
// Line order inside a batch is shuffled. The seed fixes everything: the
// same seed gives the same lines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace nspbench {

inline constexpr int kFresh = 8;
inline constexpr int kDup = 4;
inline constexpr int kHot = 4;
inline constexpr int kBatch = kFresh + kDup + kHot;
inline constexpr int kHotSet = 8;
inline constexpr int kCellTypes = kFresh;

/// Work per replay cell: grid extent and replayed steps.
struct CellShape {
  int ni;
  int nj;
  int sim_steps;
};

/// The shape of every generated cell. A few ms of replay each, so a
/// batch's fresh cells outweigh the store's disk writes, whose latency
/// drifts with the host.
inline constexpr CellShape kCell{250, 100, 320};

/// The platform-size key ("t3d-8") of fresh-cell type `k`.
std::string cell_platform(int k);
/// Processor count of fresh-cell type `k`.
int cell_procs(int k);

enum class LineKind { Fresh, Duplicate, Hot };

struct BatchLine {
  std::string line;
  LineKind kind = LineKind::Fresh;
  int ref = 0;  ///< fresh-cell type (Fresh/Duplicate) or hot-set index
};

class ServeSweepGen {
 public:
  explicit ServeSweepGen(std::uint64_t seed);

  /// The hot set, identical request lines for the whole run.
  const std::vector<std::string>& hot_lines() const { return hot_; }

  /// `n` distinct store-fill lines: real replay cells of the fresh-cell
  /// types and shape, never equal to a hot or fresh cell.
  std::vector<std::string> fill_lines(int n) const;

  /// The kFresh fresh lines the next batch would carry, without
  /// advancing the generator (probes reuse them).
  std::vector<std::string> fresh_lines() const;

  /// The next batch of kBatch lines.
  std::vector<BatchLine> next_batch();

  /// The scenario object of a request line (the text after
  /// "\"scenario\":"), the part that decides the cache key.
  static std::string scenario_of(const std::string& line);

 private:
  std::string fresh_line(int op, int type) const;

  nsp::sim::Rng rng_;
  long long fresh_base_ = 0;
  int op_ = 0;
  std::vector<std::string> hot_;
};

}  // namespace nspbench
