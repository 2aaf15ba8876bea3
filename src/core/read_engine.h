// pcw::core::read_fields — the parallel restart/read engine.
//
// Each simulated-MPI rank issues its hyperslabs (full fields for a
// same-shape restart, restart_region() slabs for a repartitioned one,
// thin slices for analysis). Per field, every overlapping partition runs
// one fetch -> decode step on the rank's own thread: the payload is
// pread right before it is decoded, and within one sz partition only the
// container-v2 blocks intersecting the request are decoded, fanned out
// across the shared thread pool.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/read_planner.h"
#include "mpi/comm.h"
#include "sz/compressor.h"

namespace pcw::core {

struct ReadEngineConfig {
  /// Worker threads for each partition's block decode: 1 = serial,
  /// 0 = all hardware threads, N = exactly N (sz::Params::threads
  /// semantics). The output is identical for every value.
  unsigned decompress_threads = 1;
  /// Checksum depth applied to every v4 container decoded (no-op on
  /// v1–v3 blobs). kBlock verifies exactly the blocks a partial read
  /// touches; kBlob is one whole-payload CRC pass before any decode.
  sz::VerifyMode verify = sz::VerifyMode::kBlock;
};

/// Per-rank outcome and phase timings (wall-clock, this rank).
struct ReadReport {
  double plan_seconds = 0.0;        // selection planning (metadata only)
  double read_seconds = 0.0;        // time spent in payload preads
  double decompress_seconds = 0.0;  // block decode + scatter
  double total_seconds = 0.0;

  std::uint64_t bytes_read = 0;        // stored payload bytes fetched
  std::uint64_t elements_out = 0;      // elements delivered to this rank
  std::uint64_t partitions_total = 0;  // partitions across requested fields
  std::uint64_t partitions_read = 0;   // partitions that overlapped
  std::uint64_t blocks_total = 0;      // sz blocks in the read partitions
  std::uint64_t blocks_decoded = 0;    // sz blocks actually decoded
};

/// Reads this rank's selection of every requested field; result i holds
/// specs[i]'s region in its own row-major order (specs[i].region ==
/// nullopt yields the whole field). Ranks read independently — the only
/// collective is a trailing barrier so timing reports are comparable.
/// Throws std::invalid_argument on unknown datasets/bad regions and
/// std::runtime_error on type mismatch or corruption.
template <typename T>
std::vector<std::vector<T>> read_fields(mpi::Comm& comm, const h5::File& file,
                                        std::span<const ReadSpec> specs,
                                        const ReadEngineConfig& config,
                                        ReadReport* report = nullptr);

}  // namespace pcw::core
