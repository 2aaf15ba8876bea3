// pcw public API — the read/restart path.
//
// A Reader opens one shared file and exposes the dataset table, whole-
// and region reads, and the parallel multi-field restart engine. The
// type-erased `*_bytes` methods carry an expected DType tag and return
// raw element bytes; the template wrappers deliver typed vectors.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pcw/runtime.h"
#include "pcw/status.h"
#include "pcw/telemetry.h"
#include "pcw/types.h"

namespace pcw {

struct ReaderOptions {
  /// Worker threads per partition block decode (0 = all hardware threads).
  unsigned decompress_threads = 1;
  /// Checksum verification applied to every decoded container. Corruption
  /// surfaces as kCorruptData naming dataset/partition/block.
  VerifyMode verify = VerifyMode::kBlock;

  ReaderOptions& with_decompress_threads(unsigned n) { decompress_threads = n; return *this; }
  ReaderOptions& with_verify(VerifyMode mode) { verify = mode; return *this; }
};

/// One rank's stored slice of a partitioned dataset.
struct PartitionInfo {
  std::uint32_t rank = 0;
  std::uint64_t elem_offset = 0;
  std::uint64_t elem_count = 0;
  std::uint64_t file_offset = 0;
  std::uint64_t reserved_bytes = 0;
  std::uint64_t actual_bytes = 0;
  std::uint64_t overflow_offset = 0;
  std::uint64_t overflow_bytes = 0;
};

struct DatasetInfo {
  std::string name;
  DType dtype = DType::kFloat32;
  Dims dims;
  Layout layout = Layout::kContiguous;
  std::uint32_t filter_id = 0;  // codec id; resolve via find_codec()
  double error_bound = 0.0;
  std::uint64_t stored_bytes = 0;  // actual payload bytes on disk
  std::vector<PartitionInfo> partitions;

  // Time-series membership (empty/zero for plain datasets).
  bool series_member = false;
  std::string series_base;
  std::uint32_t series_step = 0;
  std::uint32_t series_ref_step = 0;
  bool is_keyframe() const { return series_member && series_ref_step == series_step; }
};

/// One field of a multi-field read: whole field, or a hyperslab of it.
struct ReadRequest {
  std::string name;
  std::optional<Region> region;  // nullopt = everything
};

/// Outcome and cost accounting of a read call (accumulated across fields).
struct ReadReport {
  double plan_seconds = 0.0;
  double read_seconds = 0.0;
  double decompress_seconds = 0.0;
  double total_seconds = 0.0;

  std::uint64_t bytes_read = 0;
  std::uint64_t elements_out = 0;
  std::uint64_t partitions_total = 0;
  std::uint64_t partitions_read = 0;
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_decoded = 0;
};

// ---- scrub (offline damage audit) -----------------------------------------

struct ScrubDataset {
  std::string name;
  ScrubHealth state = ScrubHealth::kClean;
  /// Damaged, but a degraded series read can still deliver data for this
  /// dataset (its restart chain's keyframe is intact). False when clean.
  bool salvageable = false;
  std::uint64_t partitions = 0;
  std::uint64_t damaged_partitions = 0;
  /// First damage found, naming partition (and blocks when localized).
  std::string detail;
};

struct ScrubReport {
  std::vector<ScrubDataset> datasets;
  std::uint64_t clean = 0;
  std::uint64_t damaged = 0;
  std::uint64_t unreadable = 0;
  bool ok() const { return damaged == 0 && unreadable == 0; }
};

class Reader {
 public:
  struct Impl;

  static Result<Reader> open(const std::string& path, ReaderOptions options = {});

  /// Invalid handle; every operation fails with kFailedPrecondition.
  Reader() = default;
  bool valid() const { return impl_ != nullptr; }

  std::vector<DatasetInfo> datasets() const;
  Result<DatasetInfo> dataset(const std::string& name) const;
  /// Resolves one step of a time series by its logical field name
  /// (DatasetInfo::series_base); kNotFound when absent.
  Result<DatasetInfo> series_step(const std::string& base, std::uint32_t step) const;
  std::uint64_t file_bytes() const;
  std::string path() const;

  /// Process-wide telemetry delta since this reader was opened (zeroed
  /// struct on an invalid handle). Counters are differences; queue depth,
  /// high-water and latency percentiles read current process state.
  Telemetry telemetry() const;

  /// Whole dataset as the flattened global array. `expected` guards the
  /// element type and must be kFloat32 or kFloat64 (the dtypes the format
  /// stores) — discover a dataset's dtype via dataset(name) first.
  Result<std::vector<std::uint8_t>> read_bytes(const std::string& name,
                                               DType expected) const;

  /// One hyperslab, decoding only the blocks the selection touches.
  Result<std::vector<std::uint8_t>> read_region_bytes(const std::string& name,
                                                      const Region& region, DType expected,
                                                      ReadReport* report = nullptr) const;

  /// Collective multi-field read (the parallel restart engine):
  /// result i holds requests[i]'s selection in its own row-major order.
  Result<std::vector<std::vector<std::uint8_t>>> read_fields_bytes(
      Rank& rank, std::span<const ReadRequest> requests, DType expected,
      ReadReport* report = nullptr) const;

  /// One partition's stored payload (slot + overflow joined), for blob-
  /// level tooling (pcwz/pcw5ls style inspection).
  Result<std::vector<std::uint8_t>> partition_payload(const std::string& name,
                                                      std::size_t part_index) const;
  /// The payload's leading `max_bytes` (container header economy:
  /// kMaxBlobHeaderBytes always suffice for inspect_blob*).
  Result<std::vector<std::uint8_t>> partition_prefix(const std::string& name,
                                                     std::size_t part_index,
                                                     std::uint64_t max_bytes) const;

  /// Audits every dataset for damage without decoding payloads: extent
  /// and structure checks plus, for checksummed (v4) containers, the
  /// stored CRCs. `deep` additionally CRCs the codebook and every block,
  /// localizing damage to block indices. Series steps whose restart chain
  /// passes through a damaged ancestor are reported damaged too, with
  /// `salvageable` telling whether a degraded read can still recover them.
  Result<ScrubReport> scrub(bool deep = true) const;

  // ---- typed fast paths ---------------------------------------------------
  //
  // Defined in the library and explicitly instantiated for float and
  // double (the element types the format stores), so the typed path
  // returns the engine's buffers by move — no byte-conversion copies.
  // Use the `*_bytes` methods when the dtype is only known at runtime.

  template <typename T>
  Result<std::vector<T>> read(const std::string& name) const;

  template <typename T>
  Result<std::vector<T>> read_region(const std::string& name, const Region& region,
                                     ReadReport* report = nullptr) const;

  template <typename T>
  Result<std::vector<std::vector<T>>> read_fields(Rank& rank,
                                                  std::span<const ReadRequest> requests,
                                                  ReadReport* report = nullptr) const;

  /// Internal accessor (stable across versions, not for user code).
  const std::shared_ptr<Impl>& impl() const { return impl_; }

 private:
  std::shared_ptr<Impl> impl_;
};

/// The hyperslab rank `rank` of `nranks` owns on a repartitioned restart:
/// the global box cut into contiguous slabs along its slowest non-unit
/// axis, remainder spread over the leading ranks.
Region restart_region(const Dims& global, int rank, int nranks);

}  // namespace pcw
