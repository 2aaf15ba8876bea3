// pcw public API — shared value types.
//
// The one definition of every value type the application, the façade and
// the engine trade in: extents, regions, element type, write/verify modes,
// layout and scrub health. The engine layers alias these (sz::Dims is
// pcw::Dims, h5::DataType is pcw::DType, ...), so a dataset description
// passes from the application through the prediction model, the
// compressor and the container format without a conversion. The header is
// dependency-free so the installed copy stands alone. A FieldView is the
// type-erased handle the whole surface trades in: a dtype tag, a raw byte
// span, and logical extents — no per-call-site templating on the element
// type.
//
// The numeric values of DType and Layout are written to disk (h5/format.h
// pins them); never renumber an enumerator.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace pcw {

enum class DType : std::uint8_t { kFloat32 = 0, kFloat64 = 1, kBytes = 2 };

template <typename T>
constexpr DType dtype_of();
template <>
constexpr DType dtype_of<float>() {
  return DType::kFloat32;
}
template <>
constexpr DType dtype_of<double>() {
  return DType::kFloat64;
}

inline std::size_t element_size(DType t) {
  switch (t) {
    case DType::kFloat32: return 4;
    case DType::kFloat64: return 8;
    case DType::kBytes: return 1;
  }
  return 1;
}

const char* to_string(DType t);

/// Logical extents, row-major C order: d0 slowest, d2 fastest. 1-D data
/// is {1, 1, n}; 2-D data is {1, rows, cols}.
struct Dims {
  std::size_t d0 = 1;
  std::size_t d1 = 1;
  std::size_t d2 = 1;

  static Dims make_1d(std::size_t n) { return {1, 1, n}; }
  static Dims make_2d(std::size_t rows, std::size_t cols) { return {1, rows, cols}; }
  static Dims make_3d(std::size_t x, std::size_t y, std::size_t z) { return {x, y, z}; }

  std::size_t count() const { return d0 * d1 * d2; }

  bool operator==(const Dims&) const = default;
};

/// Half-open axis-aligned box [lo, hi) in Dims coordinates.
struct Region {
  std::array<std::size_t, 3> lo{0, 0, 0};
  std::array<std::size_t, 3> hi{0, 0, 0};

  static Region of(const Dims& d) { return {{0, 0, 0}, {d.d0, d.d1, d.d2}}; }

  bool empty() const { return hi[0] <= lo[0] || hi[1] <= lo[1] || hi[2] <= lo[2]; }

  Dims extents() const {
    if (empty()) return Dims{0, 0, 0};
    return Dims{hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]};
  }

  /// Element count, overflow-checked: regions can come from untrusted
  /// extents, and a wrapped product must not size a small allocation.
  std::size_t count() const {
    if (empty()) return 0;
    const Dims e = extents();
    std::size_t n = 0;
    if (__builtin_mul_overflow(e.d0, e.d1, &n) || __builtin_mul_overflow(n, e.d2, &n)) {
      throw std::overflow_error("pcw: region element count overflows size_t");
    }
    return n;
  }

  bool operator==(const Region&) const = default;
};

/// The four write paths of the paper's Fig. 4.
enum class WriteMode : std::uint8_t {
  kNoCompression = 0,     // independent raw writes (baseline 1)
  kFilterCollective = 1,  // compress -> size exchange -> collective write
  kOverlap = 2,           // predictive offsets + async overlap
  kOverlapReorder = 3,    // kOverlap + Algorithm-1 compression reordering
};

const char* to_string(WriteMode mode);

enum class ErrorBoundMode : std::uint8_t {
  kAbsolute = 0,  // |recon - orig| <= error_bound
  kRelative = 1,  // |recon - orig| <= error_bound * (max - min)
};

/// Checksum depth applied while decoding v4 containers (a no-op on blobs
/// from earlier format versions, which carry no checksums).
enum class VerifyMode : std::uint8_t {
  kOff = 0,    // trust the bytes; fastest
  kBlob = 1,   // header + whole-payload CRC in one pass, before any decode
  kBlock = 2,  // header + codebook + per-decoded-block CRCs (partial reads
               // verify only the blocks they touch); the default
};

/// How a dataset's bytes sit in the file.
enum class Layout : std::uint8_t {
  kContiguous = 0,   // one extent, uncompressed
  kPartitioned = 1,  // per-rank partitions, possibly filtered
};

/// Outcome of scrubbing one dataset.
enum class ScrubHealth : std::uint8_t {
  kClean = 0,       // every check passed
  kDamaged = 1,     // some payload failed verification (or its chain did)
  kUnreadable = 2,  // no payload byte of the dataset could even be read
};

/// Type-erased read-only view of one field's elements: dtype tag + byte
/// span + logical extents. Replaces per-call-site templating on T — the
/// façade dispatches on `dtype` internally.
struct FieldView {
  DType dtype = DType::kFloat32;
  std::span<const std::uint8_t> bytes;
  Dims dims;

  template <typename T>
  static FieldView of(std::span<const T> data, const Dims& dims) {
    FieldView v;
    v.dtype = dtype_of<T>();
    v.bytes = {reinterpret_cast<const std::uint8_t*>(data.data()), data.size_bytes()};
    v.dims = dims;
    return v;
  }
  template <typename T>
  static FieldView of(const std::vector<T>& data, const Dims& dims) {
    return of(std::span<const T>(data), dims);
  }

  std::size_t elements() const { return bytes.size() / element_size(dtype); }
};

/// Reinterprets a byte buffer as `T` elements (the typed convenience over
/// the type-erased core; sizes must divide evenly).
template <typename T>
std::vector<T> bytes_as(const std::vector<std::uint8_t>& bytes) {
  std::vector<T> out(bytes.size() / sizeof(T));
  if (!out.empty()) {
    std::memcpy(out.data(), bytes.data(), out.size() * sizeof(T));
  }
  return out;
}

}  // namespace pcw
