// Byte-identity goldens for the on-disk formats, and the one-definition
// rule for the value types.
//
// Pins the CRC32C of fixed-seed sz v4 blobs (spatial and temporal
// predictor, float and double, serial and all-hardware-threads) and of a
// single-rank pcw::Writer file, so a refactor that claims "same bytes"
// proves it by test. The constants were captured from the tree before the
// public/internal value types were unified (g++ 12, RelWithDebInfo); the
// blobs are pure functions of seed, extents and params, and byte-identical
// across thread counts and SIMD levels, so every CI leg (ASan/UBSan, TSan,
// PCW_SIMD=off) must reproduce them exactly.
//
// The engine layers name the public value types (pcw/types.h) through
// aliases; the static_asserts below fail the build if one of them grows
// back into a separate definition.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/engine.h"
#include "core/scrub.h"
#include "data/workloads.h"
#include "h5/format.h"
#include "pcw/pcw.h"
#include "sz/compressor.h"
#include "sz/dims.h"
#include "util/crc32c.h"

namespace pcw {
namespace {

// ---- one definition per value type -----------------------------------------

static_assert(std::is_same_v<sz::Dims, Dims>);
static_assert(std::is_same_v<sz::Region, Region>);
static_assert(std::is_same_v<sz::VerifyMode, VerifyMode>);
static_assert(std::is_same_v<sz::ErrorBoundMode, ErrorBoundMode>);
static_assert(std::is_same_v<h5::DataType, DType>);
static_assert(std::is_same_v<h5::Layout, Layout>);
static_assert(std::is_same_v<core::WriteMode, WriteMode>);
static_assert(std::is_same_v<core::DatasetHealth, ScrubHealth>);
static_assert(h5::dtype_of<float>() == DType::kFloat32);
static_assert(h5::dtype_of<double>() == DType::kFloat64);

TEST(ByteIdentity, RegionCountIsOverflowChecked) {
  constexpr std::size_t kBig = std::size_t{1} << 40;
  Region wrapping;
  wrapping.hi = {kBig, kBig, 2};
  EXPECT_THROW((void)wrapping.count(), std::overflow_error);
  EXPECT_EQ(Region::of(Dims::make_3d(3, 4, 5)).count(), 60u);
  EXPECT_EQ(Region{}.count(), 0u);
}

// ---- sz v4 blobs -----------------------------------------------------------

// 4 slabs of 32768 elements: enough blocks for threads = 0 to fan out.
const sz::Dims kDims = sz::Dims::make_3d(64, 32, 64);

template <typename T>
std::vector<T> step_field(double time) {
  const std::vector<float> f =
      data::make_nyx_field(kDims, data::NyxField::kBaryonDensity, /*seed=*/2024, time);
  return std::vector<T>(f.begin(), f.end());
}

std::uint32_t crc_of(std::span<const std::uint8_t> bytes) {
  return util::crc32c(0, bytes);
}

template <typename T>
std::vector<std::uint8_t> spatial_blob(unsigned threads) {
  const std::vector<T> x = step_field<T>(0.0);
  sz::Params p;
  p.error_bound = 1e-2;
  p.threads = threads;
  return sz::compress<T>(x, kDims, p);
}

/// Step 1 of a two-step series, temporally predicted from the
/// reconstruction of step 0.
template <typename T>
std::vector<std::uint8_t> temporal_blob(unsigned threads) {
  const std::vector<T> x0 = step_field<T>(0.0);
  const std::vector<T> x1 = step_field<T>(0.05);
  sz::Params p;
  p.error_bound = 1e-2;
  p.threads = threads;
  std::vector<T> recon;
  sz::compress<T>(x0, kDims, p, {}, &recon);
  p.predictor = sz::Predictor::kTemporal;
  return sz::compress<T>(x1, kDims, p, recon);
}

struct BlobGolden {
  const char* name;
  std::uint32_t crc;
  std::size_t bytes;
};

constexpr BlobGolden kSpatialF32{"spatial f32", 0x681acbfeu, 89964};
constexpr BlobGolden kSpatialF64{"spatial f64", 0x22756b34u, 89965};
constexpr BlobGolden kTemporalF32{"temporal f32", 0x6c10158eu, 33239};
constexpr BlobGolden kTemporalF64{"temporal f64", 0x343ea20fu, 33239};

void expect_golden(const BlobGolden& g, const std::vector<std::uint8_t>& blob,
                   unsigned threads) {
  EXPECT_EQ(crc_of(blob), g.crc) << g.name << " threads=" << threads << " crc 0x"
                                 << std::hex << crc_of(blob);
  EXPECT_EQ(blob.size(), g.bytes) << g.name << " threads=" << threads;
}

TEST(ByteIdentity, SpatialBlobs) {
  for (unsigned threads : {1u, 0u}) {
    expect_golden(kSpatialF32, spatial_blob<float>(threads), threads);
    expect_golden(kSpatialF64, spatial_blob<double>(threads), threads);
  }
}

TEST(ByteIdentity, TemporalBlobs) {
  for (unsigned threads : {1u, 0u}) {
    expect_golden(kTemporalF32, temporal_blob<float>(threads), threads);
    expect_golden(kTemporalF64, temporal_blob<double>(threads), threads);
  }
}

// ---- a whole container written through the façade --------------------------

std::vector<std::uint8_t> write_single_rank_file(const std::string& name) {
  const std::string path = (std::filesystem::temp_directory_path() / name).string();
  const Dims global = Dims::make_3d(32, 32, 32);
  const std::vector<float> x =
      data::make_nyx_field(global, data::NyxField::kTemperature, /*seed=*/7);
  Result<Writer> writer = Writer::create(path);
  EXPECT_TRUE(writer.ok()) << writer.status().to_string();
  if (!writer.ok()) return {};
  const Status ran = run(1, [&](Rank& rank) {
    Field field;
    field.name = "temperature";
    field.local = FieldView::of(x, global);
    field.global_dims = global;
    field.codec = CodecOptions().with_error_bound(1e-2);
    const Result<WriteReport> report = writer->write(rank, {&field, 1});
    if (!report.ok()) throw std::runtime_error(report.status().to_string());
    const Status closed = writer->close(rank);
    if (!closed.ok()) throw std::runtime_error(closed.to_string());
  });
  EXPECT_TRUE(ran.ok()) << ran.to_string();
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return bytes;
}

constexpr BlobGolden kWriterFile{"single-rank writer file", 0x0a82ff59u, 149730};

TEST(ByteIdentity, SingleRankWriterFile) {
  const std::vector<std::uint8_t> a = write_single_rank_file("byte_identity_a.pcw5");
  const std::vector<std::uint8_t> b = write_single_rank_file("byte_identity_b.pcw5");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "two identical writes produced different files";
  EXPECT_EQ(crc_of(a), kWriterFile.crc) << "crc 0x" << std::hex << crc_of(a);
  EXPECT_EQ(a.size(), kWriterFile.bytes);
}

}  // namespace
}  // namespace pcw
