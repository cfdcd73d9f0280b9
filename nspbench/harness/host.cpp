#include "harness/host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstring>

#include "check/check.hpp"
#include "check/trace.hpp"
#include "core/solver.hpp"
#include "core/tiles.hpp"

#ifndef NSPBENCH_BUILD_TYPE
#define NSPBENCH_BUILD_TYPE "unknown"
#endif

namespace nspbench {

std::uint64_t state_hash(const nsp::core::StateField& q) {
  // The 64-bit FNV-1a offset basis of tests/test_tiling.cpp, which the
  // golden hash is pinned to; check::kFnvOffsetBasis is another value.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int c = 0; c < nsp::core::StateField::kComponents; ++c) {
    for (int j = 0; j < q.nj(); ++j) {
      for (int i = 0; i < q.ni(); ++i) h = nsp::check::fnv1a(q[c](i, j), h);
    }
  }
  return h;
}

bool states_identical(const nsp::core::StateField& a,
                      const nsp::core::StateField& b) {
  if (a.ni() != b.ni() || a.nj() != b.nj()) return false;
  for (int c = 0; c < nsp::core::StateField::kComponents; ++c) {
    for (int j = 0; j < a.nj(); ++j) {
      const double* ra = a[c].row_span(j);
      const double* rb = b[c].row_span(j);
      if (std::memcmp(ra, rb, sizeof(double) * static_cast<std::size_t>(a.ni())) != 0) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t golden_run_hash() {
  nsp::core::SolverConfig cfg;
  cfg.grid = nsp::core::Grid::coarse(64, 24);
  nsp::core::Solver s(cfg);
  s.initialize();
  s.run(20);
  return state_hash(s.state());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int host_nproc() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

std::size_t working_set_bytes(int ni, int nj) {
  return static_cast<std::size_t>(nsp::core::kSweepArrays) *
         static_cast<std::size_t>(ni) * static_cast<std::size_t>(nj) * sizeof(double);
}

std::string host_record() {
  return "{\"nproc\":" + std::to_string(host_nproc()) +
         ",\"llc_bytes_sysfs\":" +
         std::to_string(nsp::core::detect_cache_bytes(
             "/sys/devices/system/cpu/cpu0/cache")) +
         ",\"llc_bytes_used\":" + std::to_string(nsp::core::host_cache_bytes()) +
         ",\"build_type\":\"" NSPBENCH_BUILD_TYPE "\",\"nsp_check_level\":" +
         std::to_string(NSP_CHECK_LEVEL) + ",\"compiler\":\"" __VERSION__ "\"}";
}

}  // namespace nspbench
