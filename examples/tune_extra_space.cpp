// Extra-space tuning walkthrough (§III-D): shows how a user picks the
// R_space knob. Sweeps the supported interval on real data, reports the
// overflow count and storage cost at each setting, and demonstrates the
// weight->R_space convenience mapping (Fig. 9). Writes go through the
// public pcw:: façade; the mapping comes from the models toolkit.
//
//   $ ./examples/tune_extra_space
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "pcw/models.h"
#include "pcw/pcw.h"
#include "pcw/text.h"
#include "pcw/workloads.h"

int main() {
  using namespace pcw;
  const int ranks = 8;
  const Dims global = Dims::make_3d(64, 64, 64);
  const auto dec = data::decompose(global, ranks);
  const Dims local = dec.local;

  // Velocity fields compress past 32x here, so the Eq.-(3) boosted regime
  // is exercised alongside the normal one.
  const data::NyxField field_ids[3] = {data::NyxField::kBaryonDensity,
                                       data::NyxField::kTemperature,
                                       data::NyxField::kVelocityX};
  std::vector<std::vector<std::vector<float>>> blocks(ranks);
  for (int r = 0; r < ranks; ++r) {
    blocks[r].resize(3);
    for (int f = 0; f < 3; ++f) {
      blocks[r][f].resize(local.count());
      data::fill_nyx_field(blocks[r][f], local, dec.origin_of(r), global,
                           field_ids[f], 99);
    }
  }

  std::printf("sweeping R_space in the supported interval [%.2f, %.2f]\n\n",
              model::kMinRspace, model::kMaxRspace);
  util::Table table({"R_space", "reserved MB", "actual MB", "storage overhead %",
                     "overflow partitions"});
  for (const double rspace : {1.10, 1.18, 1.25, 1.33, 1.43}) {
    const std::string path = "tune_extra_space.pcw5";
    Result<Writer> writer =
        Writer::create(path, WriterOptions().with_extra_space(rspace));
    if (!writer.ok()) {
      std::fprintf(stderr, "error: %s\n", writer.status().to_string().c_str());
      return 1;
    }
    std::vector<WriteReport> reports(ranks);
    const Status ran = run(ranks, [&](Rank& rank) {
      std::vector<Field> fields(3);
      for (int f = 0; f < 3; ++f) {
        const auto info = data::nyx_field_info(field_ids[f]);
        fields[f].name = info.name;
        fields[f].local = FieldView::of(blocks[rank.rank()][f], local);
        fields[f].global_dims = global;
        fields[f].codec = CodecOptions().with_error_bound(info.abs_error_bound);
      }
      Result<WriteReport> report = writer->write(rank, fields);
      if (!report.ok()) throw std::runtime_error(report.status().to_string());
      reports[rank.rank()] = std::move(*report);
      const Status closed = writer->close(rank);
      if (!closed.ok()) throw std::runtime_error(closed.to_string());
    });
    if (!ran.ok()) {
      std::fprintf(stderr, "error: %s\n", ran.to_string().c_str());
      return 1;
    }
    double reserved = 0, actual = 0;
    int overflows = 0;
    for (const auto& rep : reports) {
      reserved += static_cast<double>(rep.reserved_bytes);
      actual += static_cast<double>(rep.compressed_bytes);
      overflows += rep.overflow_partitions;
    }
    table.add_row({util::Table::fmt(rspace, 2), util::Table::fmt(reserved / 1e6, 2),
                   util::Table::fmt(actual / 1e6, 2),
                   util::Table::fmt(100 * (reserved / actual - 1.0), 1),
                   std::to_string(overflows)});
    std::remove(path.c_str());
  }
  table.print(std::cout);

  std::printf("\nor pick by preference weight (0 = min storage, 1 = max performance):\n");
  for (const double w : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    std::printf("  weight %.2f -> R_space %.3f\n", w, model::rspace_for_weight(w));
  }
  std::printf("\ndefault R_space = %.2f (the paper's recommendation)\n",
              model::kDefaultRspace);
  return 0;
}
