// Order statistics for the benchmark's reported timings.
//
// A tail percentile is only meaningful when enough samples lie beyond
// it: the benchmark reports p95 only where at least kMinBeyond samples
// are strictly greater than the p95 value, and always prints the sample
// count next to it.
#pragma once

#include <cstddef>
#include <vector>

namespace nspbench {

/// Samples required strictly beyond a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Linear-interpolation percentile (numpy's default), q in [0, 1].
/// Returns 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// percentile(v, 0.5).
double median(std::vector<double> v);

/// A tail percentile with the evidence behind it.
struct Tail {
  double value = 0;
  std::size_t samples = 0;  ///< sample count
  std::size_t beyond = 0;   ///< samples strictly above `value`
  bool reportable = false;  ///< beyond >= kMinBeyond
};

/// The q-th percentile of `v` plus the at-least-kMinBeyond rule.
Tail tail(const std::vector<double>& v, double q);

/// Op rate over a timed phase, robust to a stall of the host: the op
/// times `op_t` (in run order) are cut into `blocks` consecutive groups
/// of near-equal count, each group's rate is its op count over its
/// summed time, and the median rate is returned, in ops per unit of
/// `op_t`. With fewer ops than blocks every op is its own group. 0 for
/// no ops.
double block_rate(const std::vector<double>& op_t, std::size_t blocks);

}  // namespace nspbench
