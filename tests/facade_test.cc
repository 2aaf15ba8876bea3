// Tests for the public pcw:: façade: round-trip write → read → series
// through pcw::Writer / pcw::Reader only, Status propagation (no
// exception ever crosses the boundary), option builders, and the
// blob-level codec surface.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "pcw/pcw.h"

namespace {

using namespace pcw;

/// OS threads of this process (one /proc/self/task entry each).
std::size_t os_thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Deterministic smooth field so sz compresses well and bounds are tight.
std::vector<float> smooth_slab(const Dims& local, int rank, int field) {
  std::vector<float> out(local.count());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(
        std::sin(0.003 * static_cast<double>(i) + 0.7 * rank + 1.3 * field) +
        0.1 * field);
  }
  return out;
}

struct Checkpoint {
  std::string path;
  // 32x64x32 = 65536 elements per partition -> two sz blocks each, so
  // region reads have blocks to skip inside a partition.
  Dims global = Dims::make_3d(128, 64, 32);
  Dims local = Dims::make_3d(32, 64, 32);
  int ranks = 4;
  double eb = 1e-3;
  std::vector<std::vector<float>> slabs;  // [rank]

  explicit Checkpoint(const std::string& file_name) : path(temp_path(file_name)) {
    for (int r = 0; r < ranks; ++r) slabs.push_back(smooth_slab(local, r, 0));
  }
  ~Checkpoint() { std::filesystem::remove(path); }

  Status write(WriterOptions options = {}) {
    Result<Writer> writer = Writer::create(path, options);
    if (!writer.ok()) return writer.status();
    Status inner = Status::Ok();
    const Status ran = run(ranks, [&](Rank& rank) {
      Field field;
      field.name = "field0";
      field.local = FieldView::of(slabs[static_cast<std::size_t>(rank.rank())], local);
      field.global_dims = global;
      field.codec = CodecOptions().with_error_bound(eb);
      const Result<WriteReport> report = writer->write(rank, {&field, 1});
      if (!report.ok() && rank.rank() == 0) inner = report.status();
      const Status closed = writer->close(rank);
      if (!closed.ok() && rank.rank() == 0 && inner.ok()) inner = closed;
    });
    if (!inner.ok()) return inner;
    return ran;
  }
};

TEST(FacadeTest, WriteReadRoundTripWithinBound) {
  Checkpoint cp("facade_roundtrip.pcw5");
  ASSERT_TRUE(cp.write().ok());

  Result<Reader> reader = Reader::open(cp.path);
  ASSERT_TRUE(reader.ok());
  EXPECT_GT(reader->file_bytes(), 0u);

  const Result<DatasetInfo> info = reader->dataset("field0");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->filter_id, kCodecSz);
  EXPECT_EQ(info->layout, Layout::kPartitioned);
  EXPECT_EQ(info->partitions.size(), static_cast<std::size_t>(cp.ranks));
  EXPECT_TRUE(info->dims == cp.global);
  EXPECT_EQ(info->dtype, DType::kFloat32);

  const Result<std::vector<float>> full = reader->read<float>("field0");
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), cp.global.count());
  double max_err = 0.0;
  for (int r = 0; r < cp.ranks; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * cp.local.count();
    for (std::size_t i = 0; i < cp.local.count(); ++i) {
      max_err = std::max(max_err,
                         std::abs(static_cast<double>((*full)[off + i]) -
                                  cp.slabs[static_cast<std::size_t>(r)][i]));
    }
  }
  EXPECT_LE(max_err, cp.eb);
}

TEST(FacadeTest, RegionReadMatchesSliceOfFullRead) {
  Checkpoint cp("facade_region.pcw5");
  ASSERT_TRUE(cp.write().ok());
  Result<Reader> reader = Reader::open(cp.path);
  ASSERT_TRUE(reader.ok());

  const Result<std::vector<float>> full = reader->read<float>("field0");
  ASSERT_TRUE(full.ok());

  const Region plane{{3, 0, 0}, {4, cp.global.d1, cp.global.d2}};
  ReadReport report;
  const Result<std::vector<float>> slice =
      reader->read_region<float>("field0", plane, &report);
  ASSERT_TRUE(slice.ok());
  ASSERT_EQ(slice->size(), plane.count());
  const std::size_t base = 3 * cp.global.d1 * cp.global.d2;
  for (std::size_t i = 0; i < slice->size(); ++i) {
    ASSERT_EQ((*slice)[i], (*full)[base + i]);
  }
  // The block index must have pruned the decode (each partition holds
  // >= 1 block and only one partition overlaps one plane).
  EXPECT_GT(report.blocks_total, report.blocks_decoded);
  EXPECT_EQ(report.partitions_read, 1u);
  EXPECT_GT(report.bytes_read, 0u);
}

TEST(FacadeTest, ReaderOpensStartNoThreads) {
  Checkpoint cp("facade_open_threads.pcw5");
  ASSERT_TRUE(cp.write().ok());
  const std::size_t before = os_thread_count();
  std::vector<Reader> readers;
  for (int i = 0; i < 4; ++i) {
    Result<Reader> reader = Reader::open(cp.path);
    ASSERT_TRUE(reader.ok());
    readers.push_back(std::move(*reader));
  }
  // Exited writer/rank threads may still be leaving /proc when `before`
  // is taken, so the count may drop — it must never grow.
  EXPECT_LE(os_thread_count(), before);
  EXPECT_TRUE(readers.back().valid());
}

TEST(FacadeTest, ParallelReadFieldsMatchesWholeRead) {
  Checkpoint cp("facade_read_fields.pcw5");
  ASSERT_TRUE(cp.write().ok());
  Result<Reader> reader = Reader::open(cp.path);
  ASSERT_TRUE(reader.ok());
  const Result<std::vector<float>> full = reader->read<float>("field0");
  ASSERT_TRUE(full.ok());

  // Repartitioned restart on 2 ranks: the slabs concatenate to the field.
  std::vector<std::vector<float>> got(2);
  const Status ran = run(2, [&](Rank& rank) {
    ReadRequest req;
    req.name = "field0";
    req.region = restart_region(cp.global, rank.rank(), 2);
    Result<std::vector<std::vector<float>>> out = reader->read_fields<float>(rank, {&req, 1});
    if (out.ok()) got[static_cast<std::size_t>(rank.rank())] = std::move((*out)[0]);
  });
  ASSERT_TRUE(ran.ok());
  std::vector<float> joined = got[0];
  joined.insert(joined.end(), got[1].begin(), got[1].end());
  ASSERT_EQ(joined.size(), full->size());
  for (std::size_t i = 0; i < joined.size(); ++i) ASSERT_EQ(joined[i], (*full)[i]);
}

TEST(FacadeTest, WriteModesBuilderAndZfpCodec) {
  // kNoCompression stores raw; zfp goes through the collective filter
  // path with the registry-made filter — both through the same Writer.
  Checkpoint cp("facade_modes.pcw5");
  {
    Result<Writer> writer = Writer::create(
        cp.path, WriterOptions().with_mode(WriteMode::kNoCompression));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(run(cp.ranks, [&](Rank& rank) {
                  Field field;
                  field.name = "raw";
                  field.local = FieldView::of(
                      cp.slabs[static_cast<std::size_t>(rank.rank())], cp.local);
                  field.global_dims = cp.global;
                  const Result<WriteReport> report = writer->write(rank, {&field, 1});
                  if (!report.ok()) throw std::runtime_error(report.status().to_string());
                  const Status closed = writer->close(rank);
                  if (!closed.ok()) throw std::runtime_error(closed.to_string());
                }).ok());
    Result<Reader> reader = Reader::open(cp.path);
    ASSERT_TRUE(reader.ok());
    const Result<DatasetInfo> info = reader->dataset("raw");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->filter_id, kCodecNone);
    EXPECT_EQ(info->layout, Layout::kContiguous);
    const Result<std::vector<float>> full = reader->read<float>("raw");
    ASSERT_TRUE(full.ok());
    for (std::size_t i = 0; i < cp.local.count(); ++i) {
      ASSERT_EQ((*full)[i], cp.slabs[0][i]);  // raw layout is bit-exact
    }
  }
  {
    Result<Writer> writer = Writer::create(cp.path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(run(cp.ranks, [&](Rank& rank) {
                  Field field;
                  field.name = "fixed_rate";
                  field.local = FieldView::of(
                      cp.slabs[static_cast<std::size_t>(rank.rank())], cp.local);
                  field.global_dims = cp.global;
                  field.codec = CodecOptions().with_zfp_rate(16);
                  const Result<WriteReport> report = writer->write(rank, {&field, 1});
                  if (!report.ok()) throw std::runtime_error(report.status().to_string());
                  const Status closed = writer->close(rank);
                  if (!closed.ok()) throw std::runtime_error(closed.to_string());
                }).ok());
    Result<Reader> reader = Reader::open(cp.path);
    ASSERT_TRUE(reader.ok());
    const Result<DatasetInfo> info = reader->dataset("fixed_rate");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->filter_id, kCodecZfp);
    const Result<std::vector<float>> full = reader->read<float>("fixed_rate");
    ASSERT_TRUE(full.ok());
    double max_err = 0.0;
    for (std::size_t i = 0; i < cp.local.count(); ++i) {
      max_err = std::max(max_err, std::abs(static_cast<double>((*full)[i]) -
                                           cp.slabs[0][i]));
    }
    EXPECT_LE(max_err, 0.05);  // 16 bits/value on a smooth field
  }
}

TEST(FacadeTest, StatusPropagationMalformedFile) {
  // Missing file: an error Status, never a throw.
  const Result<Reader> missing = Reader::open(temp_path("facade_does_not_exist.pcw5"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);

  // Garbage bytes: kCorruptData with the parser's message.
  const std::string bad_path = temp_path("facade_garbage.pcw5");
  {
    std::ofstream out(bad_path, std::ios::binary);
    out << "this is not a pcw5 file at all, but it is long enough to parse";
  }
  const Result<Reader> garbage = Reader::open(bad_path);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kCorruptData);
  EXPECT_NE(garbage.status().message().find("magic"), std::string::npos);
  std::filesystem::remove(bad_path);

  // Corrupted payload: reads fail with a located error, no throw. Zero
  // the second partition's sz container header in place (the footer
  // still parses, the blob no longer does).
  Checkpoint cp("facade_truncated.pcw5");
  ASSERT_TRUE(cp.write().ok());
  {
    const Result<Reader> probe = Reader::open(cp.path);
    ASSERT_TRUE(probe.ok());
    const Result<DatasetInfo> info = probe->dataset("field0");
    ASSERT_TRUE(info.ok());
    ASSERT_GE(info->partitions.size(), 2u);
    std::fstream f(cp.path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(info->partitions[1].file_offset));
    const char junk[32] = {0};
    f.write(junk, sizeof junk);
  }
  Result<Reader> reader = Reader::open(cp.path);
  ASSERT_TRUE(reader.ok());
  const Result<std::vector<float>> full = reader->read<float>("field0");
  ASSERT_FALSE(full.ok());
  // The satellite contract: decode failures carry dataset + partition.
  EXPECT_NE(full.status().message().find("dataset 'field0' partition 1"),
            std::string::npos);
}

TEST(FacadeTest, NotFoundAndTypeMismatchCodes) {
  Checkpoint cp("facade_codes.pcw5");
  ASSERT_TRUE(cp.write().ok());
  Result<Reader> reader = Reader::open(cp.path);
  ASSERT_TRUE(reader.ok());

  const Result<std::vector<float>> nope = reader->read<float>("no_such_field");
  ASSERT_FALSE(nope.ok());
  EXPECT_EQ(nope.status().code(), StatusCode::kNotFound);

  const Result<std::vector<double>> wrong = reader->read<double>("field0");
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  const Region bad{{7, 0, 0}, {3, 1, 1}};  // inverted
  const Result<std::vector<float>> inverted = reader->read_region<float>("field0", bad);
  ASSERT_FALSE(inverted.ok());
  EXPECT_EQ(inverted.status().code(), StatusCode::kInvalidArgument);
}

TEST(FacadeTest, InvalidHandlesFailCleanly) {
  Writer writer;  // default = invalid
  EXPECT_FALSE(writer.valid());
  EXPECT_EQ(writer.close().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer.file_bytes(), 0u);

  Reader reader;
  EXPECT_FALSE(reader.valid());
  EXPECT_TRUE(reader.datasets().empty());
  EXPECT_EQ(reader.read_bytes("x", DType::kFloat32).status().code(),
            StatusCode::kFailedPrecondition);

  SeriesWriter series;
  EXPECT_FALSE(series.valid());

  const Result<std::vector<std::uint8_t>> r =
      restart_bytes(reader, "x", 0, DType::kFloat32);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FacadeTest, MixedDtypesRejected) {
  Checkpoint cp("facade_mixed.pcw5");
  Result<Writer> writer = Writer::create(cp.path);
  ASSERT_TRUE(writer.ok());
  std::vector<float> f32(cp.local.count(), 1.0f);
  std::vector<double> f64(cp.local.count(), 1.0);
  Status seen = Status::Ok();
  ASSERT_TRUE(run(1, [&](Rank& rank) {
                Field a, b;
                a.name = "a";
                a.local = FieldView::of(f32, cp.local);
                a.global_dims = cp.local;
                b.name = "b";
                b.local = FieldView::of(f64, cp.local);
                b.global_dims = cp.local;
                const Field fields[] = {a, b};
                seen = writer->write(rank, fields).status();
              }).ok());
  EXPECT_EQ(seen.code(), StatusCode::kInvalidArgument);
}

TEST(FacadeTest, SeriesWriteRestartRoundTrip) {
  const std::string path = temp_path("facade_series.pcw5");
  const Dims global = Dims::make_3d(4, 16, 16);
  const Dims local = Dims::make_3d(2, 16, 16);
  const int ranks = 2, steps = 5;
  const double eb = 1e-3;

  // Per (step, rank) drifting slabs, kept for verification.
  std::vector<std::vector<std::vector<float>>> data(steps);
  for (int t = 0; t < steps; ++t) {
    for (int r = 0; r < ranks; ++r) {
      std::vector<float> slab = smooth_slab(local, r, 0);
      for (auto& v : slab) v += 0.01f * static_cast<float>(t);
      data[t].push_back(std::move(slab));
    }
  }

  Result<Writer> writer = Writer::create(path);
  ASSERT_TRUE(writer.ok());
  std::vector<SeriesStepReport> reports(steps);
  const Status ran = run(ranks, [&](Rank& rank) {
    Result<SeriesWriter> series =
        SeriesWriter::create(*writer, SeriesOptions().with_keyframe_interval(2));
    if (!series.ok()) return;
    for (int t = 0; t < steps; ++t) {
      Field field;
      field.name = "rho";
      field.local =
          FieldView::of(data[t][static_cast<std::size_t>(rank.rank())], local);
      field.global_dims = global;
      field.codec = CodecOptions().with_error_bound(eb);
      const Result<SeriesStepReport> rep = series->write_step(rank, {&field, 1});
      if (rep.ok() && rank.rank() == 0) reports[static_cast<std::size_t>(t)] = *rep;
    }
    const Status closed = writer->close(rank);
    if (!closed.ok()) throw std::runtime_error(closed.to_string());
  });
  ASSERT_TRUE(ran.ok());
  EXPECT_TRUE(reports[0].keyframe);
  EXPECT_FALSE(reports[3].keyframe);

  Result<Reader> reader = Reader::open(path);
  ASSERT_TRUE(reader.ok());

  // Mid-chain restart honors the bound at that step.
  SeriesReadReport rep;
  const Result<std::vector<float>> got =
      restart<float>(*reader, "rho", 3, std::nullopt, {}, &rep);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), global.count());
  EXPECT_EQ(rep.steps_chained, 2u);  // keyframe 2 -> step 3
  double max_err = 0.0;
  for (int r = 0; r < ranks; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * local.count();
    for (std::size_t i = 0; i < local.count(); ++i) {
      max_err = std::max(max_err, std::abs(static_cast<double>((*got)[off + i]) -
                                           data[3][static_cast<std::size_t>(r)][i]));
    }
  }
  EXPECT_LE(max_err, eb);

  // Collective series read agrees with the single-rank restart.
  std::vector<std::vector<float>> per_rank(2);
  ASSERT_TRUE(run(2, [&](Rank& rank) {
                ReadRequest req;
                req.name = "rho";
                req.region = restart_region(global, rank.rank(), 2);
                Result<std::vector<std::vector<float>>> out =
                    read_series<float>(rank, *reader, {&req, 1}, 3);
                if (out.ok()) {
                  per_rank[static_cast<std::size_t>(rank.rank())] =
                      std::move((*out)[0]);
                }
              }).ok());
  std::vector<float> joined = per_rank[0];
  joined.insert(joined.end(), per_rank[1].begin(), per_rank[1].end());
  ASSERT_EQ(joined.size(), got->size());
  for (std::size_t i = 0; i < joined.size(); ++i) ASSERT_EQ(joined[i], (*got)[i]);

  // Unknown step: clean kNotFound through the boundary.
  const Result<std::vector<float>> bad = restart<float>(*reader, "rho", 99);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);

  reader = Reader();
  writer = Writer();
  std::filesystem::remove(path);
}

TEST(FacadeTest, BlobSurfaceRoundTripAndInspect) {
  const Dims dims = Dims::make_3d(4, 16, 16);
  std::vector<float> field = smooth_slab(dims, 1, 2);

  const Result<std::vector<std::uint8_t>> blob = encode_blob(
      FieldView::of(field, dims), CodecOptions().with_error_bound(1e-3));
  ASSERT_TRUE(blob.ok());

  const Result<BlobInfo> info = inspect_blob(*blob);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->codec, "sz");
  EXPECT_TRUE(info->dims == dims);
  EXPECT_GE(info->block_count, 1u);

  const Result<std::vector<BlobBlockInfo>> blocks = inspect_blob_blocks(*blob);
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks->size(), info->block_count);

  const Result<DecodedBlob> decoded = decode_blob(*blob);
  ASSERT_TRUE(decoded.ok());
  const std::vector<float> vals = decoded->as<float>();
  ASSERT_EQ(vals.size(), field.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    ASSERT_NEAR(vals[i], field[i], 1e-3);
  }

  // Corrupt blob: Status, not a throw.
  std::vector<std::uint8_t> bad(*blob);
  bad.resize(8);
  EXPECT_FALSE(inspect_blob(bad).ok());
  EXPECT_FALSE(decode_blob(bad).ok());
}

}  // namespace
