#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace nspbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

Tail tail(const std::vector<double>& v, double q) {
  Tail t;
  t.value = percentile(v, q);
  t.samples = v.size();
  t.beyond = static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&t](double x) { return x > t.value; }));
  t.reportable = t.beyond >= kMinBeyond;
  return t;
}

double block_rate(const std::vector<double>& op_t, std::size_t blocks) {
  const std::size_t n = op_t.size();
  const std::size_t k = std::min(std::max<std::size_t>(blocks, 1), n);
  std::vector<double> rates;
  for (std::size_t b = 0; b < k; ++b) {
    const std::size_t lo = b * n / k, hi = (b + 1) * n / k;
    double busy = 0;
    for (std::size_t i = lo; i < hi; ++i) busy += op_t[i];
    rates.push_back(static_cast<double>(hi - lo) / busy);
  }
  return median(std::move(rates));
}

}  // namespace nspbench
