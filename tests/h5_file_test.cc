#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>

#include "data/workloads.h"
#include "h5/dataset_io.h"
#include "h5/file.h"
#include "h5/filter.h"
#include "mpi/comm.h"
#include "util/rng.h"

namespace pcw::h5 {
namespace {

/// OS threads of this process (one /proc/self/task entry each).
std::size_t os_thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

class H5FileTest : public ::testing::Test {
 protected:
  std::string path() const {
    return (std::filesystem::temp_directory_path() /
            (std::string("pcw_h5_test_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".pcw5"))
        .string();
  }
  void TearDown() override { std::remove(path().c_str()); }
};

TEST_F(H5FileTest, PwritePreadRoundTrip) {
  auto file = File::create(path());
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  const auto off = file->alloc(data.size());
  file->pwrite(off, data);
  EXPECT_EQ(file->pread(off, data.size()), data);
}

TEST_F(H5FileTest, AllocReturnsDisjointRegions) {
  auto file = File::create(path());
  const auto a = file->alloc(100);
  const auto b = file->alloc(200);
  const auto c = file->alloc(1);
  EXPECT_GE(a, kSuperblockSize);
  EXPECT_EQ(b, a + 100);
  EXPECT_EQ(c, b + 200);
}

TEST_F(H5FileTest, AsyncWriteCompletesOnWait) {
  auto file = File::create(path());
  std::vector<std::uint8_t> data(1 << 20, 0xcd);
  const auto off = file->alloc(data.size());
  auto ticket = file->async_write(off, std::vector<std::uint8_t>(data));
  ticket.wait();
  EXPECT_EQ(file->pread(off, data.size()), data);
}

TEST_F(H5FileTest, FlushDrainsManyAsyncWrites) {
  auto file = File::create(path());
  std::vector<std::uint64_t> offsets;
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> chunk(1000, static_cast<std::uint8_t>(i));
    const auto off = file->alloc(chunk.size());
    offsets.push_back(off);
    file->async_write(off, std::move(chunk));
  }
  file->flush_async();
  for (int i = 0; i < 64; ++i) {
    const auto got = file->pread(offsets[static_cast<std::size_t>(i)], 1000);
    EXPECT_EQ(got[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ(got[999], static_cast<std::uint8_t>(i));
  }
}

TEST_F(H5FileTest, MetadataSurvivesCloseAndReopen) {
  {
    auto file = File::create(path());
    DatasetDesc d;
    d.name = "field";
    d.dtype = DataType::kFloat32;
    d.global_dims = sz::Dims::make_1d(100);
    d.layout = Layout::kContiguous;
    d.file_offset = file->alloc(400);
    d.nbytes = 400;
    std::vector<std::uint8_t> payload(400, 7);
    file->pwrite(d.file_offset, payload);
    file->add_dataset(d);
    file->close_single();
  }
  auto file = File::open(path());
  ASSERT_EQ(file->datasets().size(), 1u);
  const auto* d = file->find_dataset("field");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->nbytes, 400u);
  EXPECT_EQ(file->pread(d->file_offset, 4)[0], 7);
}

TEST_F(H5FileTest, OpenRejectsUnclosedFile) {
  {
    auto file = File::create(path());
    file->alloc(10);
    // destroyed without close: superblock still zeroed
  }
  EXPECT_THROW(File::open(path()), std::runtime_error);
}

TEST_F(H5FileTest, OpenRejectsNonPcwFile) {
  {
    FILE* f = std::fopen(path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[64] = "definitely not a pcw5 file............";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_THROW(File::open(path()), std::runtime_error);
}

TEST_F(H5FileTest, DuplicateDatasetNameRejected) {
  auto file = File::create(path());
  DatasetDesc d;
  d.name = "dup";
  file->add_dataset(d);
  EXPECT_THROW(file->add_dataset(d), std::invalid_argument);
}

TEST_F(H5FileTest, UpdateDatasetReplacesRecord) {
  auto file = File::create(path());
  DatasetDesc d;
  d.name = "x";
  d.nbytes = 1;
  file->add_dataset(d);
  d.nbytes = 99;
  file->update_dataset(d);
  EXPECT_EQ(file->find_dataset("x")->nbytes, 99u);
  d.name = "unknown";
  EXPECT_THROW(file->update_dataset(d), std::invalid_argument);
}

TEST_F(H5FileTest, ReadOnlyFileRejectsWrites) {
  {
    auto file = File::create(path());
    file->close_single();
  }
  auto file = File::open(path());
  EXPECT_THROW(file->alloc(10), std::runtime_error);
  EXPECT_THROW(file->pwrite(0, std::vector<std::uint8_t>{1}), std::runtime_error);
  EXPECT_THROW(file->async_write(0, {1}), std::runtime_error);
}

TEST_F(H5FileTest, ReadOnlyOpensStartNoThreads) {
  {
    auto file = File::create(path());
    file->close_single();
  }
  const std::size_t before = os_thread_count();
  std::vector<std::shared_ptr<File>> opened;
  for (int i = 0; i < 4; ++i) opened.push_back(File::open(path()));
  // The writer's joined queue thread may still be leaving /proc when
  // `before` is taken, so the count may drop — it must never grow.
  EXPECT_LE(os_thread_count(), before);
  EXPECT_EQ(opened.size(), 4u);
}

// ------------------------------------------------------------ filters ----

TEST(H5Filter, NullFilterPassthrough) {
  NullFilter f;
  const std::vector<std::uint8_t> raw{1, 2, 3, 4};
  const auto enc = f.encode(raw, DataType::kFloat32, sz::Dims::make_1d(1));
  EXPECT_EQ(enc, raw);
  EXPECT_EQ(f.decode(enc, DataType::kFloat32, 1), raw);
  EXPECT_THROW(f.decode(enc, DataType::kFloat32, 2), std::runtime_error);
}

TEST(H5Filter, SzFilterRoundTripF32) {
  sz::Params p;
  p.error_bound = 1e-3;
  SzFilter f(p);
  const sz::Dims dims = sz::Dims::make_3d(16, 16, 16);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)));
  }
  const std::span<const std::uint8_t> raw{
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size() * 4};
  const auto blob = f.encode(raw, DataType::kFloat32, dims);
  EXPECT_LT(blob.size(), raw.size());
  const auto dec = f.decode(blob, DataType::kFloat32, data.size());
  const auto* rec = reinterpret_cast<const float*>(dec.data());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(rec[i], data[i], 1e-3);
  }
}

TEST(H5Filter, SzFilterRejectsSizeMismatch) {
  sz::Params p;
  SzFilter f(p);
  const std::vector<std::uint8_t> raw(10);
  EXPECT_THROW(f.encode(raw, DataType::kFloat32, sz::Dims::make_1d(100)),
               std::invalid_argument);
}

TEST(H5Filter, SzFilterRejectsByteType) {
  sz::Params p;
  SzFilter f(p);
  const std::vector<std::uint8_t> raw(16);
  EXPECT_THROW(f.encode(raw, DataType::kBytes, sz::Dims::make_1d(16)),
               std::invalid_argument);
}

TEST(H5Filter, FactoryDispatch) {
  EXPECT_EQ(make_filter(FilterId::kNone)->id(), FilterId::kNone);
  EXPECT_EQ(make_filter(FilterId::kSz)->id(), FilterId::kSz);
  EXPECT_THROW(make_filter(static_cast<FilterId>(99)), std::invalid_argument);
}

// ---------------------------------------------------- parallel dataset ----

class H5ParallelTest : public H5FileTest {};

TEST_F(H5ParallelTest, ContiguousWriteReadAcrossRanks) {
  const int P = 8;
  const std::size_t per_rank = 1000;
  auto file = File::create(path());
  mpi::Runtime::run(P, [&](mpi::Comm& comm) {
    std::vector<float> mine(per_rank);
    for (std::size_t i = 0; i < per_rank; ++i) {
      mine[i] = static_cast<float>(comm.rank()) * 1000.0f + static_cast<float>(i);
    }
    write_contiguous<float>(comm, *file, "ranked", mine,
                            sz::Dims::make_1d(per_rank * P));
    file->close_collective(comm);
  });

  auto rf = File::open(path());
  const auto full = read_dataset<float>(*rf, "ranked");
  ASSERT_EQ(full.size(), per_rank * P);
  for (int r = 0; r < P; ++r) {
    for (std::size_t i = 0; i < per_rank; ++i) {
      EXPECT_EQ(full[static_cast<std::size_t>(r) * per_rank + i],
                static_cast<float>(r) * 1000.0f + static_cast<float>(i));
    }
  }
}

TEST_F(H5ParallelTest, FilteredCollectiveWriteReadAcrossRanks) {
  const int P = 4;
  const sz::Dims local = sz::Dims::make_3d(16, 16, 16);
  const sz::Dims global = sz::Dims::make_3d(64, 16, 16);
  auto file = File::create(path());
  std::vector<std::vector<float>> rank_data(P);
  for (int r = 0; r < P; ++r) {
    rank_data[static_cast<std::size_t>(r)] =
        data::make_nyx_field(local, data::NyxField::kBaryonDensity,
                             static_cast<std::uint64_t>(r) + 100);
  }
  sz::Params params;
  params.error_bound = 0.05;
  mpi::Runtime::run(P, [&](mpi::Comm& comm) {
    SzFilter filter(params);
    const auto stats = write_filtered_collective<float>(
        comm, *file, "density", rank_data[static_cast<std::size_t>(comm.rank())], local,
        global, filter);
    EXPECT_GT(stats.compressed_bytes, 0u);
    EXPECT_LT(stats.compressed_bytes, local.count() * 4);
    file->close_collective(comm);
  });

  auto rf = File::open(path());
  const auto* desc = rf->find_dataset("density");
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(desc->filter, FilterId::kSz);
  ASSERT_EQ(desc->partitions.size(), static_cast<std::size_t>(P));
  const auto full = read_dataset<float>(*rf, "density");
  for (int r = 0; r < P; ++r) {
    const auto& orig = rank_data[static_cast<std::size_t>(r)];
    const std::size_t off = static_cast<std::size_t>(r) * local.count();
    for (std::size_t i = 0; i < orig.size(); ++i) {
      ASSERT_NEAR(full[off + i], orig[i], 0.05) << "rank " << r << " elem " << i;
    }
  }
}

TEST_F(H5ParallelTest, CollectiveAllocIsConsistent) {
  const int P = 6;
  auto file = File::create(path());
  std::vector<std::uint64_t> bases(P);
  mpi::Runtime::run(P, [&](mpi::Comm& comm) {
    bases[static_cast<std::size_t>(comm.rank())] = file->alloc_collective(comm, 1000);
  });
  for (int r = 1; r < P; ++r) {
    EXPECT_EQ(bases[static_cast<std::size_t>(r)], bases[0]);
  }
  EXPECT_EQ(file->data_end(), bases[0] + 1000);
}

TEST_F(H5ParallelTest, ContiguousRejectsWrongGlobalCount) {
  auto file = File::create(path());
  EXPECT_THROW(mpi::Runtime::run(2,
                                 [&](mpi::Comm& comm) {
                                   std::vector<float> mine(10);
                                   write_contiguous<float>(comm, *file, "bad", mine,
                                                           sz::Dims::make_1d(999));
                                 }),
               std::invalid_argument);
}

TEST_F(H5ParallelTest, ReadUnknownDatasetThrows) {
  {
    auto file = File::create(path());
    file->close_single();
  }
  auto rf = File::open(path());
  EXPECT_THROW(read_dataset<float>(*rf, "nope"), std::invalid_argument);
}

TEST_F(H5ParallelTest, PartitionPayloadWithSyntheticOverflow) {
  // Hand-build a partitioned dataset whose payload is split between the
  // reserved slot and an appended overflow segment; the reader must
  // stitch them back together.
  auto file = File::create(path());
  util::Rng rng(4);
  std::vector<std::uint8_t> payload(10000);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());

  const std::uint64_t reserved = 6000;
  const auto slot_off = file->alloc(reserved);
  const auto tail_off = file->alloc(payload.size() - reserved);
  file->pwrite(slot_off, std::span<const std::uint8_t>(payload).subspan(0, reserved));
  file->pwrite(tail_off, std::span<const std::uint8_t>(payload).subspan(reserved));

  DatasetDesc desc;
  desc.name = "ovf";
  desc.dtype = DataType::kBytes;
  desc.layout = Layout::kPartitioned;
  PartitionRecord part;
  part.rank = 0;
  part.elem_count = payload.size();
  part.file_offset = slot_off;
  part.reserved_bytes = reserved;
  part.actual_bytes = payload.size();
  part.overflow_offset = tail_off;
  part.overflow_bytes = payload.size() - reserved;
  desc.partitions.push_back(part);
  file->add_dataset(desc);
  file->close_single();

  auto rf = File::open(path());
  const auto* d = rf->find_dataset("ovf");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(read_partition_payload(*rf, *d, d->partitions[0]), payload);
}

}  // namespace
}  // namespace pcw::h5
