// Extent and hyperslab-region arithmetic. Row-major C order with the last
// dimension fastest, matching how Nyx/VPIC field arrays are laid out on
// disk. A Region is half-open [lo, hi); lo == hi on any axis makes the
// selection empty (a valid degenerate request).
//
// The checked helpers here (element_count, strides_of, clamp_region,
// covering_region, ...) are the single authority for extent/stride
// arithmetic; the compressor, the block splitter, and the h5 read path
// all share them instead of re-deriving the math per layer.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>

#include "pcw/types.h"

namespace pcw::sz {

// The extent and region types are the public ones (pcw/types.h): d0 is
// the slowest-varying dimension, d2 the fastest.
using Dims = pcw::Dims;
using Region = pcw::Region;

/// dims.count() with overflow checking. Parsing paths feed untrusted
/// extents through this so crafted headers cannot wrap the element count
/// into a small allocation.
inline std::size_t element_count(const Dims& dims) {
  std::size_t n = 0;
  if (__builtin_mul_overflow(dims.d0, dims.d1, &n) ||
      __builtin_mul_overflow(n, dims.d2, &n)) {
    throw std::overflow_error("sz: element count overflows size_t");
  }
  return n;
}

/// Row-major strides in elements: one step along axis a advances the flat
/// index by strides_of(dims)[a].
inline std::array<std::size_t, 3> strides_of(const Dims& dims) {
  return {dims.d1 * dims.d2, dims.d2, 1};
}

/// The slowest-varying axis with extent > 1 (2 when all extents are 1):
/// the axis split_blocks slabs the field along.
inline int slowest_nonunit_axis(const Dims& dims) {
  return dims.d0 > 1 ? 0 : (dims.d1 > 1 ? 1 : 2);
}

inline std::size_t extent(const Dims& dims, int axis) {
  return axis == 0 ? dims.d0 : (axis == 1 ? dims.d1 : dims.d2);
}

/// Throws std::invalid_argument unless lo <= hi <= extents on every axis.
/// lo == hi (an empty selection) is valid; an inverted or out-of-bounds
/// request is a caller bug, never silently clipped.
inline void validate_region(const Region& r, const Dims& dims) {
  const std::array<std::size_t, 3> ext{dims.d0, dims.d1, dims.d2};
  for (int a = 0; a < 3; ++a) {
    if (r.lo[a] > r.hi[a]) {
      throw std::invalid_argument("sz: region lo exceeds hi");
    }
    if (r.hi[a] > ext[a]) {
      throw std::invalid_argument("sz: region exceeds field extents");
    }
  }
}

/// Clamps a request into the field box: lo and hi are cut to the extents
/// and ordered, so the result always passes validate_region.
inline Region clamp_region(const Region& r, const Dims& dims) {
  const std::array<std::size_t, 3> ext{dims.d0, dims.d1, dims.d2};
  Region out;
  for (int a = 0; a < 3; ++a) {
    out.lo[a] = std::min(r.lo[a], ext[a]);
    out.hi[a] = std::min(std::max(r.hi[a], out.lo[a]), ext[a]);
  }
  return out;
}

/// Box intersection; disjoint inputs produce an empty (lo == hi) result.
inline Region intersect(const Region& a, const Region& b) {
  Region out;
  for (int ax = 0; ax < 3; ++ax) {
    out.lo[ax] = std::max(a.lo[ax], b.lo[ax]);
    out.hi[ax] = std::max(out.lo[ax], std::min(a.hi[ax], b.hi[ax]));
  }
  return out;
}

/// Flat index of the region's lowest corner.
inline std::size_t region_flat_lo(const Region& r, const Dims& dims) {
  const auto st = strides_of(dims);
  return r.lo[0] * st[0] + r.lo[1] * st[1] + r.lo[2];
}

/// Smallest box of `dims` covering the flat interval [flat_lo, flat_hi).
/// The result is plane- or row-aligned, so it is itself one contiguous
/// flat range starting at region_flat_lo(result) — which is what lets a
/// decoded covering box be indexed by plain flat-offset subtraction.
inline Region covering_region(const Dims& dims, std::size_t flat_lo, std::size_t flat_hi) {
  if (flat_lo > flat_hi || flat_hi > element_count(dims)) {
    throw std::invalid_argument("sz: flat interval out of range");
  }
  Region r = Region::of(dims);
  if (flat_lo == flat_hi) {
    r.hi = r.lo;
    return r;
  }
  const auto st = strides_of(dims);
  const std::size_t plane = st[0], row = st[1];
  r.lo[0] = flat_lo / plane;
  r.hi[0] = (flat_hi - 1) / plane + 1;
  if (r.hi[0] - r.lo[0] == 1) {
    const std::size_t a = flat_lo - r.lo[0] * plane;
    const std::size_t b = flat_hi - r.lo[0] * plane;
    r.lo[1] = a / row;
    r.hi[1] = (b - 1) / row + 1;
    if (r.hi[1] - r.lo[1] == 1) {
      r.lo[2] = a - r.lo[1] * row;
      r.hi[2] = b - r.lo[1] * row;
    }
  }
  return r;
}

/// Calls fn(flat_start, len, region_offset) for every contiguous row of
/// the region, in row-major order. flat_start indexes the full dims box;
/// region_offset indexes the region's own row-major buffer.
template <typename Fn>
void for_each_region_row(const Region& r, const Dims& dims, Fn&& fn) {
  if (r.empty()) return;
  const auto st = strides_of(dims);
  const std::size_t len = r.hi[2] - r.lo[2];
  std::size_t out = 0;
  for (std::size_t x = r.lo[0]; x < r.hi[0]; ++x) {
    for (std::size_t y = r.lo[1]; y < r.hi[1]; ++y) {
      fn(x * st[0] + y * st[1] + r.lo[2], len, out);
      out += len;
    }
  }
}

}  // namespace pcw::sz
