// High-level dataset I/O: the two *baseline* write paths the paper
// compares against, plus the shared-file reader.
//
//   * write_contiguous     — "original non-compression solution": every
//     rank writes its slice independently at a statically computable
//     offset (sizes are known a priori, no data-dependent sync).
//   * write_filtered_collective — "previous compression-filter solution"
//     (H5Z-SZ): every rank compresses, compressed sizes are exchanged,
//     offsets derived, then data lands collectively. The compress ->
//     size-exchange -> write ordering is the serialization bottleneck the
//     paper removes.
//
// The paper's own predictive/overlapped path lives in pcw::core; it uses
// the File primitives directly.
#pragma once

#include <string>

#include "h5/file.h"
#include "h5/filter.h"
#include "mpi/comm.h"
#include "sz/dims.h"

namespace pcw::h5 {

/// Phase timings measured inside the collective filter path, so benches
/// can reproduce the paper's stacked-bar breakdowns (Fig. 16/17).
struct FilterWriteStats {
  double compress_seconds = 0.0;
  double exchange_seconds = 0.0;   // allgather of compressed sizes
  double write_seconds = 0.0;      // collective write incl. final barrier
  std::uint64_t compressed_bytes = 0;   // this rank's partition
};

/// Non-compression baseline. `local` is this rank's slice (flattened);
/// slices are concatenated in rank order to form the global array of
/// `global_dims.count()` elements. Independent writes, one barrier pair
/// around metadata registration.
template <typename T>
void write_contiguous(mpi::Comm& comm, File& file, const std::string& name,
                      std::span<const T> local, const sz::Dims& global_dims);

/// H5Z-SZ-style baseline: compress with `filter`, exchange sizes, write
/// collectively. `local_dims` describes this rank's slice extents (used
/// by the SZ predictor). Returns this rank's timing breakdown.
template <typename T>
FilterWriteStats write_filtered_collective(mpi::Comm& comm, File& file,
                                           const std::string& name,
                                           std::span<const T> local,
                                           const sz::Dims& local_dims,
                                           const sz::Dims& global_dims,
                                           const Filter& filter);

/// Reads a whole dataset back as the flattened global array, reassembling
/// partitions and undoing any filter (overflow segments included).
template <typename T>
std::vector<T> read_dataset(const File& file, const std::string& name,
                            const sz::Params& sz_params = {});

/// Reads one partition's stored payload (slot + overflow concatenated).
std::vector<std::uint8_t> read_partition_payload(const File& file,
                                                 const DatasetDesc& desc,
                                                 const PartitionRecord& part);

// ---- region (hyperslab) reads ---------------------------------------------
//
// A Region selects a half-open box of the dataset's global extents,
// interpreted over the flattened global element order (partitions
// concatenated by elem_offset) — i.e. a region read is always byte-
// identical to slicing read_dataset()'s result. For slab-decomposed
// writes that order coincides with the spatial row-major global box; see
// docs/read_path.md for the non-slab caveat.

/// One contiguous run of selected elements, already clipped to its
/// partition: a global-flat interval plus where it lands in the region's
/// own row-major output buffer.
struct RowSegment {
  std::uint64_t flat_lo = 0;     // global flat element index
  std::uint64_t len = 0;         // elements
  std::uint64_t out_offset = 0;  // element offset into the region buffer
};

/// Sentinel part_index for a kContiguous dataset's single pseudo-
/// partition (there is no PartitionRecord to point at).
inline constexpr std::size_t kContiguousSelection = static_cast<std::size_t>(-1);

/// One partition's share of a region selection.
struct PartitionSelection {
  std::size_t part_index = kContiguousSelection;  // into desc.partitions
  std::uint64_t flat_lo = 0, flat_hi = 0;         // hull of the segments
  std::vector<RowSegment> segments;
};

/// A planned region read: which partitions contribute which element runs.
/// Pure metadata work — planning never touches payload bytes, which is
/// what lets the read engine issue all of a field's payload reads
/// asynchronously before any decode starts.
struct RegionSelection {
  sz::Region region;           // the validated request
  std::uint64_t elements = 0;  // region.count()
  std::size_t partitions_total = 0;
  std::vector<PartitionSelection> parts;  // only partitions with overlap
};

/// Aggregated cost accounting for a region read.
struct RegionReadStats {
  std::uint64_t payload_bytes = 0;     // stored bytes fetched
  std::uint64_t partitions_total = 0;  // partitions in the dataset
  std::uint64_t partitions_read = 0;   // partitions that overlapped
  std::uint64_t blocks_total = 0;      // sz blocks in the read partitions
  std::uint64_t blocks_decoded = 0;    // sz blocks actually decoded
};

/// Plans `region` against a dataset: validates the request and clips the
/// selected rows to partition boundaries. Throws std::invalid_argument on
/// inverted or out-of-bounds regions.
RegionSelection plan_region_selection(const DatasetDesc& desc, const sz::Region& region);

/// Stored payload bytes executing `sel` will fetch.
std::uint64_t selection_payload_bytes(const DatasetDesc& desc, const RegionSelection& sel);

/// Fetches one planned partition's payload on the calling thread — the
/// fetch step of every region, restart and series-chain read. Throws on a
/// payload size or extent mismatch.
std::vector<std::uint8_t> read_selection_payload(const File& file,
                                                 const DatasetDesc& desc,
                                                 const PartitionSelection& ps);

/// Decodes one planned partition from its payload into the region output
/// buffer (`out` has sel.elements elements). For sz partitions only the
/// blocks overlapping the selection are decoded, fanned out across
/// `threads`; `verify` sets the checksum depth applied to v4 containers.
/// `stats`, when non-null, is accumulated into.
template <typename T>
void scatter_selection_part(const DatasetDesc& desc, const RegionSelection& sel,
                            const PartitionSelection& part_sel,
                            std::span<const std::uint8_t> payload, unsigned threads,
                            std::span<T> out, RegionReadStats* stats,
                            sz::VerifyMode verify = sz::VerifyMode::kBlock);

/// Reads one hyperslab of a dataset, decoding only what the selection
/// needs (the multi-field, multi-rank version is core::read_fields).
/// `sz_params.threads` fans the block decode out.
template <typename T>
std::vector<T> read_region(const File& file, const std::string& name,
                           const sz::Region& region, const sz::Params& sz_params = {},
                           RegionReadStats* stats = nullptr);

}  // namespace pcw::h5
