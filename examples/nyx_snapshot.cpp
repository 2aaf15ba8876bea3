// Cosmology-snapshot example: dump all six primary Nyx fields with their
// science-vetted error bounds ([13], [31]) and compare all four write
// modes on the same data — a miniature of the paper's Fig.-16 experiment
// running for real (threads + a real file) rather than in the simulator.
// Uses the public pcw:: façade end to end.
//
//   $ ./examples/nyx_snapshot [ranks=8] [edge=96]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <stdexcept>
#include <vector>

#include "pcw/pcw.h"
#include "pcw/text.h"
#include "pcw/workloads.h"

int main(int argc, char** argv) {
  using namespace pcw;
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::size_t edge = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 96;

  const Dims global = Dims::make_3d(edge, edge, edge);
  const auto dec = data::decompose(global, ranks);
  const Dims local = dec.local;
  std::printf("Nyx snapshot %zu^3, %d ranks, 6 fields, paper error bounds\n\n", edge,
              ranks);

  // Generate every rank's slice of every field (outside the timed region,
  // as a simulation would already hold its data in memory).
  std::vector<std::vector<std::vector<float>>> blocks(ranks);
  for (int r = 0; r < ranks; ++r) {
    blocks[r].resize(data::kNyxPrimaryFields);
    for (int f = 0; f < data::kNyxPrimaryFields; ++f) {
      blocks[r][f].resize(local.count());
      data::fill_nyx_field(blocks[r][f], local, dec.origin_of(r), global,
                           static_cast<data::NyxField>(f), 7);
    }
  }

  util::Table table({"mode", "wall s", "compress s (r0)", "write s (r0)",
                     "file MB", "ratio"});
  const double raw_mb = static_cast<double>(global.count()) * 4 *
                        data::kNyxPrimaryFields / 1e6;

  for (const auto mode :
       {WriteMode::kNoCompression, WriteMode::kFilterCollective, WriteMode::kOverlap,
        WriteMode::kOverlapReorder}) {
    const std::string path =
        "nyx_snapshot_" + std::to_string(static_cast<int>(mode)) + ".pcw5";
    Result<Writer> writer = Writer::create(path, WriterOptions().with_mode(mode));
    if (!writer.ok()) {
      std::fprintf(stderr, "error: %s\n", writer.status().to_string().c_str());
      return 1;
    }

    std::vector<WriteReport> reports(ranks);
    util::Timer wall;
    const Status ran = run(ranks, [&](Rank& rank) {
      std::vector<Field> fields(data::kNyxPrimaryFields);
      for (int f = 0; f < data::kNyxPrimaryFields; ++f) {
        const auto info = data::nyx_field_info(static_cast<data::NyxField>(f));
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
    const double wall_s = wall.seconds();
    const double file_mb = static_cast<double>(writer->file_bytes()) / 1e6;
    table.add_row({to_string(mode), util::Table::fmt(wall_s, 3),
                   util::Table::fmt(reports[0].compress_seconds, 3),
                   util::Table::fmt(reports[0].write_seconds, 3),
                   util::Table::fmt(file_mb, 1),
                   util::Table::fmt(raw_mb / file_mb, 1) + "x"});
    std::remove(path.c_str());
  }
  table.print(std::cout);
  std::printf(
      "\nNote: wall-clock comparisons on one over-subscribed node are not the\n"
      "paper's scale study (see bench_fig16_breakdown for that); this example\n"
      "demonstrates the functional path end to end.\n");
  return 0;
}
