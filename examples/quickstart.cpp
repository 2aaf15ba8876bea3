// Quickstart: write one compressed field from 8 "MPI" ranks into a shared
// file with the predictive overlap engine, then read it back and check
// the error bound — all through the public pcw:: façade.
//
//   $ ./examples/quickstart [output.pcw5]
//
// Walks through the whole public API surface in ~60 lines of user code:
// generate -> decompose -> Writer::write(kOverlapReorder) -> close ->
// Reader::open -> read -> verify.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "pcw/pcw.h"
#include "pcw/workloads.h"

int main(int argc, char** argv) {
  using namespace pcw;
  const std::string path = argc > 1 ? argv[1] : "quickstart.pcw5";
  const int ranks = 8;

  // A 128^3 cosmology-like density field, block-decomposed over 8 ranks.
  const Dims global = Dims::make_3d(128, 128, 128);
  const auto dec = data::decompose(global, ranks);
  const Dims local = dec.local;
  std::printf("domain %zux%zux%zu -> %d ranks of %zux%zux%zu\n", global.d0, global.d1,
              global.d2, ranks, local.d0, local.d1, local.d2);

  std::vector<std::vector<float>> blocks(ranks);
  for (int r = 0; r < ranks; ++r) {
    blocks[r].resize(local.count());
    data::fill_nyx_field(blocks[r], local, dec.origin_of(r), global,
                         data::NyxField::kBaryonDensity, /*seed=*/42);
  }

  // Write with the paper's full pipeline: ratio prediction, pre-computed
  // offsets with 1.25x extra space, async overlap, Algorithm-1 reorder.
  const double error_bound = 0.2;
  Result<Writer> writer = Writer::create(path);  // defaults: kOverlapReorder, 1.25x
  if (!writer.ok()) {
    std::fprintf(stderr, "error: %s\n", writer.status().to_string().c_str());
    return 1;
  }

  const Status ran = run(ranks, [&](Rank& rank) {
    Field field;
    field.name = "baryon_density";
    field.local = FieldView::of(blocks[rank.rank()], local);
    field.global_dims = global;
    field.codec = CodecOptions().with_error_bound(error_bound);

    const Result<WriteReport> report = writer->write(rank, {&field, 1});
    // Thrown failures abort the whole group; run() reports the first one.
    if (!report.ok()) throw std::runtime_error(report.status().to_string());
    if (rank.rank() == 0) {
      std::printf("rank 0: predicted in %.1f ms, compressed %.2f MB -> %.2f MB, "
                  "%d overflow partition(s)\n",
                  1e3 * report->predict_seconds, report->raw_bytes / 1e6,
                  report->compressed_bytes / 1e6, report->overflow_partitions);
    }
    const Status closed = writer->close(rank);
    if (!closed.ok()) throw std::runtime_error(closed.to_string());
  });
  if (!ran.ok()) {
    std::fprintf(stderr, "error: %s\n", ran.to_string().c_str());
    return 1;
  }
  std::printf("file on disk: %.2f MB (raw would be %.2f MB)\n",
              writer->file_bytes() / 1e6, global.count() * 4 / 1e6);

  // Read back and verify the point-wise bound.
  const Result<Reader> reader = Reader::open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "error: %s\n", reader.status().to_string().c_str());
    return 1;
  }
  const Result<std::vector<float>> full = reader->read<float>("baryon_density");
  if (!full.ok()) {
    std::fprintf(stderr, "error: %s\n", full.status().to_string().c_str());
    return 1;
  }
  double max_err = 0.0;
  for (int r = 0; r < ranks; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * local.count();
    for (std::size_t i = 0; i < blocks[r].size(); ++i) {
      max_err = std::max(max_err,
                         std::abs(static_cast<double>((*full)[off + i]) - blocks[r][i]));
    }
  }
  std::printf("max reconstruction error %.4g (bound %.4g) -> %s\n", max_err,
              error_bound, max_err <= error_bound ? "OK" : "FAIL");
  return max_err <= error_bound ? 0 : 1;
}
