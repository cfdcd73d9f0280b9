// Host facts, build facts and solver-state fingerprints the benchmark
// prints with every result set and checks before measuring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/field.hpp"

namespace nspbench {

/// The production (tiled V5, free-stream) golden state hash that
/// tests/test_tiling.cpp pins: 64 x 24 grid, 20 steps.
inline constexpr std::uint64_t kGoldenHash = 0xf391c7019e0d96d8ull;

/// Byte-wise FNV-1a over the interior state in (component, row, column)
/// order — the same fingerprint tests/test_tiling.cpp uses.
std::uint64_t state_hash(const nsp::core::StateField& q);

/// True when every interior value of the two states is bit-identical.
bool states_identical(const nsp::core::StateField& a,
                      const nsp::core::StateField& b);

/// Reproduces the golden run and returns its hash.
std::uint64_t golden_run_hash();

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Online processors.
int host_nproc();

/// Bytes one sweep stage streams at ni x nj (kSweepArrays doubles per
/// point), the computed working set the tile chooser sizes against.
std::size_t working_set_bytes(int ni, int nj);

/// One-line JSON host and build record: nproc, sysfs LLC bytes, build
/// type, NSP_CHECK_LEVEL, compiler.
std::string host_record();

}  // namespace nspbench
