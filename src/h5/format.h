// h5lite on-disk format.
//
// HDF5-inspired single shared file with deferred metadata:
//
//   [superblock: 128 B][data region ......][footer(s)][EOF]
//
// Data is written offset-addressed (pwrite) by any number of writers; the
// footer — the dataset table — is serialized at commit by rank 0 and
// published through the superblock. Deferred metadata is what lets
// partitions land at *predicted* offsets without any metadata round-trip,
// and lets overflow segments be appended after the main write wave.
//
// Format v3 makes commits crash-consistent (docs/integrity.md):
//   * The footer is *sealed*: serialized records followed by a 20-byte
//     trailer [payload_crc u32][payload_size u64][version u32][magic u32],
//     so a torn or misdirected footer write is detected, not parsed.
//   * The superblock holds two 64-byte commit slots written alternately
//     (slot = seq % 2). Each commit appends a fresh sealed footer, fsyncs,
//     then overwrites only the *other* slot — the previous commit's slot
//     and footer stay intact as the shadow copy a reader falls back to
//     when the newest slot or footer is torn.
// v1/v2 files (single 32-byte superblock patched in place at close)
// remain readable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pcw/types.h"
#include "sz/dims.h"

namespace pcw::h5 {

inline constexpr std::uint32_t kMagic = 0x35574350;  // "PCW5"
/// v2 adds per-step time-series fields to each dataset record; v3 adds
/// the sealed footer + dual-slot commit protocol (record layout of v2).
inline constexpr std::uint32_t kVersion = 3;
inline constexpr std::uint32_t kVersionMin = 1;
/// v1/v2 superblock: one 32-byte header patched in place at close.
inline constexpr std::uint64_t kLegacySuperblockSize = 32;
/// One v3 commit slot; two of them form the v3 superblock.
inline constexpr std::uint64_t kSuperblockSlotSize = 64;
inline constexpr std::uint64_t kSuperblockSize = 2 * kSuperblockSlotSize;
inline constexpr std::uint32_t kFooterMagic = 0x46574350;  // "PCWF"
/// Sealed-footer trailer: payload_crc u32, payload_size u64, version u32,
/// magic u32.
inline constexpr std::uint64_t kFooterTrailerBytes = 20;

/// Element type and layout tags are the public ones (pcw/types.h). Their
/// numeric values are the bytes each dataset record stores, so they are
/// pinned here: renumbering an enumerator would silently change the file
/// format.
using DataType = pcw::DType;
using Layout = pcw::Layout;
using pcw::dtype_of;
using pcw::element_size;

static_assert(static_cast<std::uint8_t>(DataType::kFloat32) == 0);
static_assert(static_cast<std::uint8_t>(DataType::kFloat64) == 1);
static_assert(static_cast<std::uint8_t>(DataType::kBytes) == 2);
inline constexpr std::uint8_t kMaxDataType = 2;
static_assert(static_cast<std::uint8_t>(Layout::kContiguous) == 0);
static_assert(static_cast<std::uint8_t>(Layout::kPartitioned) == 1);
inline constexpr std::uint8_t kMaxLayout = 1;

enum class FilterId : std::uint32_t {
  kNone = 0,
  kSz = 1,            // pcw::sz error-bounded lossy filter (H5Z-SZ analog)
  kZfp = 2,           // pcw::zfp fixed-rate lossy filter (H5Z-ZFP analog)
};

/// One rank's slice of a partitioned dataset.
struct PartitionRecord {
  std::uint32_t rank = 0;
  std::uint64_t elem_offset = 0;     // first element in flattened global order
  std::uint64_t elem_count = 0;
  std::uint64_t file_offset = 0;     // start of the reserved slot
  std::uint64_t reserved_bytes = 0;  // slot size (predicted * r_space)
  std::uint64_t actual_bytes = 0;    // bytes of real (compressed) payload
  // Overflow segment: payload bytes beyond the reserved slot, appended at
  // the end of the data region after the main write wave (§III-D).
  std::uint64_t overflow_offset = 0;
  std::uint64_t overflow_bytes = 0;
};

struct DatasetDesc {
  std::string name;
  DataType dtype = DataType::kFloat32;
  sz::Dims global_dims;              // logical extents of the whole field
  Layout layout = Layout::kContiguous;
  FilterId filter = FilterId::kNone;
  double abs_error_bound = 0.0;      // informational, for filtered data
  // kContiguous:
  std::uint64_t file_offset = 0;
  std::uint64_t nbytes = 0;
  // kPartitioned:
  std::vector<PartitionRecord> partitions;

  // Time-series membership (format v2). A series is a set of datasets
  // sharing series_base, one per step; `name` stays unique per step
  // ("rho@t0003"). series_ref_step is the step whose reconstruction the
  // temporal blocks of this step reference — equal to series_step for a
  // spatial keyframe (the restart-chain anchor).
  bool series_member = false;
  std::string series_base;
  std::uint32_t series_step = 0;
  std::uint32_t series_ref_step = 0;

  bool is_keyframe() const { return series_member && series_ref_step == series_step; }
};

/// Canonical dataset name of one series step ("rho@t0042"); what
/// SeriesWriter registers and find_series scans for.
std::string series_dataset_name(const std::string& base, std::uint32_t step);

/// Footer (dataset table) serialization. serialize_footer always writes
/// the current version; parse_footer accepts any version in
/// [kVersionMin, kVersion] (v1 records simply carry no series fields).
/// Every size parse_footer reads is capped against the bytes actually
/// present before any allocation, so a corrupt footer fails cleanly.
std::vector<std::uint8_t> serialize_footer(const std::vector<DatasetDesc>& datasets);
std::vector<DatasetDesc> parse_footer(const std::vector<std::uint8_t>& bytes,
                                      std::uint32_t version = kVersion);

/// Sealed footer (v3): serialized records plus the checksummed,
/// magic-terminated trailer. parse_sealed_footer validates magic, version,
/// size and CRC before parsing and throws on any mismatch.
std::vector<std::uint8_t> seal_footer(const std::vector<DatasetDesc>& datasets);
std::vector<DatasetDesc> parse_sealed_footer(const std::vector<std::uint8_t>& bytes);

/// One v3 superblock commit slot. A slot with footer_off == 0 (seq 0) is
/// the create-time placeholder: "no commit yet".
struct SuperblockSlot {
  std::uint64_t seq = 0;
  std::uint64_t footer_off = 0;
  std::uint64_t footer_size = 0;
  std::uint32_t footer_crc = 0;  // CRC32C of the sealed footer block
};

/// Serializes `slot` into kSuperblockSlotSize bytes at `out` (zero-padded,
/// self-checksummed).
void serialize_slot(const SuperblockSlot& slot, std::uint8_t* out);

/// Parses kSuperblockSlotSize bytes; nullopt when the magic, version or
/// slot checksum does not hold (a torn or never-written slot).
std::optional<SuperblockSlot> parse_slot(const std::uint8_t* in);

}  // namespace pcw::h5
