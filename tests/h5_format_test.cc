#include <gtest/gtest.h>

#include "h5/format.h"

namespace pcw::h5 {
namespace {

DatasetDesc sample_contiguous() {
  DatasetDesc d;
  d.name = "density";
  d.dtype = DataType::kFloat32;
  d.global_dims = sz::Dims::make_3d(64, 64, 64);
  d.layout = Layout::kContiguous;
  d.filter = FilterId::kNone;
  d.file_offset = 32;
  d.nbytes = 64ull * 64 * 64 * 4;
  return d;
}

DatasetDesc sample_partitioned() {
  DatasetDesc d;
  d.name = "temperature";
  d.dtype = DataType::kFloat64;
  d.global_dims = sz::Dims::make_3d(128, 128, 128);
  d.layout = Layout::kPartitioned;
  d.filter = FilterId::kSz;
  d.abs_error_bound = 1e3;
  for (std::uint32_t r = 0; r < 8; ++r) {
    PartitionRecord p;
    p.rank = r;
    p.elem_offset = r * 262144ull;
    p.elem_count = 262144;
    p.file_offset = 1000 + r * 5000ull;
    p.reserved_bytes = 5000;
    p.actual_bytes = r == 3 ? 6000 : 4500;  // rank 3 overflowed
    if (r == 3) {
      p.overflow_offset = 99000;
      p.overflow_bytes = 1000;
    }
    d.partitions.push_back(p);
  }
  return d;
}

void expect_equal(const DatasetDesc& a, const DatasetDesc& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.dtype, b.dtype);
  EXPECT_EQ(a.global_dims, b.global_dims);
  EXPECT_EQ(a.layout, b.layout);
  EXPECT_EQ(a.filter, b.filter);
  EXPECT_DOUBLE_EQ(a.abs_error_bound, b.abs_error_bound);
  EXPECT_EQ(a.file_offset, b.file_offset);
  EXPECT_EQ(a.nbytes, b.nbytes);
  EXPECT_EQ(a.series_member, b.series_member);
  EXPECT_EQ(a.series_base, b.series_base);
  EXPECT_EQ(a.series_step, b.series_step);
  EXPECT_EQ(a.series_ref_step, b.series_ref_step);
  ASSERT_EQ(a.partitions.size(), b.partitions.size());
  for (std::size_t i = 0; i < a.partitions.size(); ++i) {
    EXPECT_EQ(a.partitions[i].rank, b.partitions[i].rank);
    EXPECT_EQ(a.partitions[i].elem_offset, b.partitions[i].elem_offset);
    EXPECT_EQ(a.partitions[i].elem_count, b.partitions[i].elem_count);
    EXPECT_EQ(a.partitions[i].file_offset, b.partitions[i].file_offset);
    EXPECT_EQ(a.partitions[i].reserved_bytes, b.partitions[i].reserved_bytes);
    EXPECT_EQ(a.partitions[i].actual_bytes, b.partitions[i].actual_bytes);
    EXPECT_EQ(a.partitions[i].overflow_offset, b.partitions[i].overflow_offset);
    EXPECT_EQ(a.partitions[i].overflow_bytes, b.partitions[i].overflow_bytes);
  }
}

TEST(H5Format, EmptyTableRoundTrips) {
  const auto bytes = serialize_footer({});
  EXPECT_TRUE(parse_footer(bytes).empty());
}

TEST(H5Format, ContiguousRoundTrips) {
  const std::vector<DatasetDesc> in{sample_contiguous()};
  const auto out = parse_footer(serialize_footer(in));
  ASSERT_EQ(out.size(), 1u);
  expect_equal(in[0], out[0]);
}

TEST(H5Format, PartitionedRoundTrips) {
  const std::vector<DatasetDesc> in{sample_partitioned()};
  const auto out = parse_footer(serialize_footer(in));
  ASSERT_EQ(out.size(), 1u);
  expect_equal(in[0], out[0]);
}

TEST(H5Format, MixedTableRoundTrips) {
  const std::vector<DatasetDesc> in{sample_contiguous(), sample_partitioned()};
  const auto out = parse_footer(serialize_footer(in));
  ASSERT_EQ(out.size(), 2u);
  expect_equal(in[0], out[0]);
  expect_equal(in[1], out[1]);
}

TEST(H5Format, UnicodeAndLongNamesRoundTrip) {
  DatasetDesc d = sample_contiguous();
  d.name = std::string(500, 'x') + "_\xcf\x81";  // long + UTF-8 rho
  const auto out = parse_footer(serialize_footer({d}));
  EXPECT_EQ(out.at(0).name, d.name);
}

TEST(H5Format, ParseRejectsTruncation) {
  const auto bytes = serialize_footer({sample_partitioned()});
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                                 bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(parse_footer(cut), std::runtime_error) << "keep=" << keep;
  }
}

TEST(H5Format, SeriesMetadataRoundTrips) {
  DatasetDesc d = sample_partitioned();
  d.name = series_dataset_name("temperature", 42);
  EXPECT_EQ(d.name, "temperature@t0042");
  d.series_member = true;
  d.series_base = "temperature";
  d.series_step = 42;
  d.series_ref_step = 41;
  const auto out = parse_footer(serialize_footer({d, sample_contiguous()}));
  ASSERT_EQ(out.size(), 2u);
  expect_equal(d, out[0]);
  EXPECT_FALSE(out[0].is_keyframe());
  EXPECT_FALSE(out[1].series_member);  // non-members carry no series bytes

  DatasetDesc key = d;
  key.series_ref_step = 42;
  EXPECT_TRUE(parse_footer(serialize_footer({key})).at(0).is_keyframe());
}

TEST(H5Format, ParseRejectsBadVersionsAndForwardReferences) {
  const auto bytes = serialize_footer({sample_contiguous()});
  EXPECT_NO_THROW(parse_footer(bytes, kVersion));
  EXPECT_THROW(parse_footer(bytes, 0), std::runtime_error);
  EXPECT_THROW(parse_footer(bytes, kVersion + 1), std::runtime_error);

  // A step may never reference a later step (chain walks must descend).
  DatasetDesc d = sample_partitioned();
  d.series_member = true;
  d.series_base = "temperature";
  d.series_step = 5;
  d.series_ref_step = 6;
  EXPECT_THROW(parse_footer(serialize_footer({d})), std::runtime_error);
}

TEST(H5Format, ParseRejectsOutOfRangeEnumBytes) {
  // The dtype and layout bytes follow the u32 count and the name. Legacy
  // footers carry no CRC and a crafted one can carry a valid CRC, so the
  // parser itself must refuse values outside the enums, in every version.
  const DatasetDesc d = sample_contiguous();
  const auto bytes = serialize_footer({d});
  const std::size_t dtype_at = 4 + 4 + d.name.size();
  ASSERT_EQ(bytes[dtype_at], static_cast<std::uint8_t>(DataType::kFloat32));
  ASSERT_EQ(bytes[dtype_at + 1], static_cast<std::uint8_t>(Layout::kContiguous));
  for (std::uint32_t version = kVersionMin; version <= kVersion; ++version) {
    auto bad_dtype = bytes;
    bad_dtype[dtype_at] = 3;
    EXPECT_THROW(parse_footer(bad_dtype, version), std::runtime_error) << "v" << version;
    auto bad_layout = bytes;
    bad_layout[dtype_at + 1] = 2;
    EXPECT_THROW(parse_footer(bad_layout, version), std::runtime_error) << "v" << version;
  }
  // The largest valid values still parse.
  auto edge = bytes;
  edge[dtype_at] = static_cast<std::uint8_t>(DataType::kBytes);
  edge[dtype_at + 1] = static_cast<std::uint8_t>(Layout::kPartitioned);
  const auto parsed = parse_footer(edge);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].dtype, DataType::kBytes);
  EXPECT_EQ(parsed[0].layout, Layout::kPartitioned);
}

TEST(H5Format, ElementSizes) {
  EXPECT_EQ(element_size(DataType::kFloat32), 4u);
  EXPECT_EQ(element_size(DataType::kFloat64), 8u);
  EXPECT_EQ(element_size(DataType::kBytes), 1u);
}

}  // namespace
}  // namespace pcw::h5
