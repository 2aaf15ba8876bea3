// pcw::core time-series engine: the in-situ scenario where the same
// fields are checkpointed every simulation step and consecutive steps
// barely differ.
//
// Write side — SeriesWriter::write_step keeps each field's *decoded*
// previous step (exported by the compressor, no decode pass) as the
// temporal reference, inserts spatial keyframes every K steps, and feeds
// each step through the async-write overlap schedule: field k+1
// compresses while field k's payload is still landing on the background
// I/O queue. Offsets are exact (allocated post-compression from the
// file's atomic cursor), so a series write needs no extra-space slack and
// no size exchange before data moves.
//
// Read side — read_series / restart_at_step reconstruct step t from the
// nearest keyframe forward. Each touched partition chain-decodes through
// the block-indexed partial decode: only the sz blocks intersecting the
// request are entropy-decoded at *every* link of the chain, so a sparse
// region read of a late step costs chain_len x (touched blocks), never
// chain_len x (whole field). Each link's payload is fetched right before
// it decodes — the same fetch -> decode step as core::read_fields.
//
// Error bound: every step quantizes its own original against the
// reconstructed reference, so |x̂_t - x_t| <= eb point-wise at every step
// — the bound never accumulates along a chain. Keyframes exist to bound
// *restart cost* (chain length <= K), not error.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/read_planner.h"
#include "h5/file.h"
#include "mpi/comm.h"

namespace pcw::core {

struct SeriesConfig {
  /// K: a spatial keyframe every K steps (step 0 is always one). K=1
  /// disables the temporal predictor entirely; larger K trades restart
  /// chain length for ratio. See docs/time_series.md for the cost model.
  std::uint32_t keyframe_interval = 8;
  /// Worker threads for each step's sz compression (Params::threads
  /// semantics). Blob bytes are identical for every value.
  unsigned compress_threads = 1;
  /// true: every write_step ends with a collective crash-consistent
  /// commit (h5::File::commit_collective), bounding data loss to one
  /// step at the cost of three fsyncs per step. false: data becomes
  /// durable at close.
  bool commit_every_step = false;
};

/// The keyframe planner: pure function of (step, K), identical on every
/// rank, so no agreement traffic is ever needed.
inline bool is_keyframe_step(std::uint32_t step, std::uint32_t interval) {
  return interval == 0 || step % interval == 0;
}

/// Per-rank outcome of one write_step call.
struct SeriesStepReport {
  std::uint32_t step = 0;
  bool keyframe = false;
  double compress_seconds = 0.0;
  double write_seconds = 0.0;   // exposed async tail after the last compress
  double total_seconds = 0.0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t compressed_bytes = 0;
  /// Per-block predictor outcomes across this rank's partitions: temporal
  /// deltas kept vs blocks that fell back to (or were planned as) spatial.
  std::uint32_t temporal_blocks = 0;
  std::uint32_t spatial_blocks = 0;
};

/// Appends one step per call to a shared file. Collective: every rank of
/// `comm` calls write_step with the same field names/global dims in the
/// same order, every step; the field set is pinned by the first call.
/// One SeriesWriter instance per rank, living for the whole run (it holds
/// the temporal references).
template <typename T>
class SeriesWriter {
 public:
  SeriesWriter(h5::File& file, SeriesConfig config);

  SeriesStepReport write_step(mpi::Comm& comm, std::span<const FieldSpec<T>> fields);

  /// Steps written so far == the step index the next call will get.
  std::uint32_t next_step() const { return next_step_; }

 private:
  h5::File* file_;
  SeriesConfig config_;
  std::uint32_t next_step_ = 0;
  std::vector<std::string> bases_;
  std::vector<std::vector<T>> prev_;  // per field: decoded previous step
};

struct SeriesReadConfig {
  /// Worker threads for each partition's block decode (sz::Params::threads
  /// semantics). The output is identical for every value.
  unsigned decompress_threads = 1;
  /// Checksum depth applied to every v4 container decoded along the
  /// chain (no-op on v1–v3 blobs).
  sz::VerifyMode verify = sz::VerifyMode::kBlock;
  /// true: when a non-keyframe link of a field's restart chain is corrupt,
  /// deliver the chain's keyframe step for that *whole field* instead of
  /// failing the read, recording the downgrade in
  /// SeriesReadReport::degraded (all partitions of a field always come
  /// from the same step — never a mix). A corrupt keyframe still throws.
  /// false: any corruption throws, naming dataset/partition/block.
  bool degraded = false;
};

/// One field the read had to time-travel: the requested step's chain was
/// damaged, the chain's keyframe was delivered instead.
struct DegradedRead {
  std::string dataset;            // the damaged step dataset ("rho@t0005")
  std::uint64_t partition = 0;    // partition whose payload was corrupt
  std::uint32_t step_requested = 0;
  std::uint32_t step_recovered = 0;  // keyframe step actually delivered
  std::string detail;             // underlying error (names the block)
};

/// Per-call outcome and cost accounting for a chained series read.
struct SeriesReadReport {
  std::uint64_t steps_chained = 0;   // longest keyframe->step chain decoded
  std::uint64_t bytes_read = 0;      // stored payload bytes fetched
  std::uint64_t elements_out = 0;
  std::uint64_t blocks_total = 0;    // sz blocks in touched partitions, per link
  std::uint64_t blocks_decoded = 0;  // blocks actually entropy-decoded
  double read_seconds = 0.0;         // time spent in payload preads
  double decompress_seconds = 0.0;
  double total_seconds = 0.0;
  /// Fields downgraded to their keyframe (SeriesReadConfig::degraded).
  std::vector<DegradedRead> degraded;
};

/// Reads this rank's selection of every requested field at time step
/// `step`, chain-decoding from each field's nearest keyframe; result i
/// holds specs[i].region (nullopt = whole field) in its own row-major
/// order, bit-identical to a from-scratch chain of full decodes sliced to
/// the region. Ranks read independently; the only collective is a
/// trailing barrier so timing reports are comparable. Throws
/// std::invalid_argument on unknown series/steps/bad regions and
/// std::runtime_error on layout or type mismatches along the chain.
template <typename T>
std::vector<std::vector<T>> read_series(mpi::Comm& comm, const h5::File& file,
                                        std::span<const ReadSpec> specs,
                                        std::uint32_t step,
                                        const SeriesReadConfig& config = {},
                                        SeriesReadReport* report = nullptr);

/// Single-rank convenience: reconstructs one field at `step` (whole field
/// or a region) — what an analysis script or pcw5ls --verify calls.
template <typename T>
std::vector<T> restart_at_step(const h5::File& file, const std::string& field,
                               std::uint32_t step,
                               const std::optional<sz::Region>& region = std::nullopt,
                               const SeriesReadConfig& config = {},
                               SeriesReadReport* report = nullptr);

}  // namespace pcw::core
