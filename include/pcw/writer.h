// pcw public API — the parallel write path.
//
// A Writer owns one shared output file. Writer::write is the paper's
// predictive-compression engine: ratio prediction, pre-computed offsets
// with extra space, async overlap, compression reordering — selected per
// WriterOptions::mode. Fields are passed type-erased (FieldView); codec
// choice per field is a CodecOptions naming any registered codec.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pcw/codec.h"
#include "pcw/runtime.h"
#include "pcw/status.h"
#include "pcw/telemetry.h"
#include "pcw/types.h"

namespace pcw {

struct WriterOptions {
  WriteMode mode = WriteMode::kOverlapReorder;
  /// Extra-space ratio R_space reserved over predicted compressed sizes.
  double extra_space = 1.25;
  /// Worker threads per partition compression (0 = all hardware threads).
  unsigned compress_threads = 1;
  /// true: build the file under a temporary name and atomically rename it
  /// into place at the first commit, so the final path never names a
  /// half-written file. false: write in place (needed when the directory
  /// forbids renames).
  bool atomic_create = true;
  /// Retries (with backoff) for transient I/O errors on the async queue.
  unsigned write_retries = 3;

  WriterOptions& with_mode(WriteMode m) { mode = m; return *this; }
  WriterOptions& with_extra_space(double r) { extra_space = r; return *this; }
  WriterOptions& with_compress_threads(unsigned n) { compress_threads = n; return *this; }
  WriterOptions& with_atomic_create(bool on) { atomic_create = on; return *this; }
  WriterOptions& with_write_retries(unsigned n) { write_retries = n; return *this; }
};

/// One field (dataset) as seen by one rank: this rank's slice, where it
/// sits in the global extents, and how to store it.
struct Field {
  std::string name;
  FieldView local;       // this rank's slice (dtype + bytes + local dims)
  Dims global_dims;      // logical global extents
  CodecOptions codec;    // which registered codec stores it, and its knobs
};

/// Per-rank outcome and phase timings of one write call.
struct WriteReport {
  double predict_seconds = 0.0;
  double exchange_seconds = 0.0;
  double compress_seconds = 0.0;
  double write_seconds = 0.0;
  double overflow_seconds = 0.0;
  double total_seconds = 0.0;

  std::uint64_t raw_bytes = 0;
  std::uint64_t compressed_bytes = 0;
  std::uint64_t reserved_bytes = 0;
  std::uint64_t overflow_bytes = 0;
  int overflow_partitions = 0;
  std::vector<int> order;  // compression order used
};

class Writer {
 public:
  struct Impl;

  /// Creates/truncates the output file. The returned handle is shared by
  /// every rank of a run (create once, capture by reference).
  static Result<Writer> create(const std::string& path, WriterOptions options = {});

  /// Invalid handle; every operation fails with kFailedPrecondition.
  Writer() = default;
  bool valid() const { return impl_ != nullptr; }

  /// Collective write of all fields through the configured mode. Every
  /// rank passes slices of the same field names/global dims in the same
  /// order. Fields stored with kCodecSz run the full predictive engine;
  /// other codecs (built-in or registered) take the collective filter
  /// path; mode kNoCompression stores everything raw.
  Result<WriteReport> write(Rank& rank, std::span<const Field> fields);

  /// Collective crash-consistent commit: flushes async writes, fsyncs the
  /// data, lands a checksummed footer, and fsyncs again — after it
  /// returns, everything written so far survives a crash (the previous
  /// committed state stays intact as the fallback until then). Cheap
  /// enough to call per checkpoint; close() commits implicitly.
  Status commit(Rank& rank);
  /// Non-collective commit for single-writer use.
  Status commit();

  /// Collective close: flushes async writes, rank 0 lands the footer.
  Status close(Rank& rank);
  /// Non-collective close for single-writer use.
  Status close();

  /// Total file bytes (superblock + data + footer); valid after close.
  std::uint64_t file_bytes() const;
  std::string path() const;

  /// Process-wide telemetry delta since this writer was created (zeroed
  /// struct on an invalid handle). Counters are differences; queue depth,
  /// high-water and latency percentiles read current process state.
  Telemetry telemetry() const;

  /// Internal accessor (stable across versions, not for user code).
  const std::shared_ptr<Impl>& impl() const { return impl_; }

 private:
  std::shared_ptr<Impl> impl_;
};

}  // namespace pcw
