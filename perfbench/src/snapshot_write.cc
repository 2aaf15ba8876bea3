// snapshot-write: the paper's job. Six Nyx primary fields written by 4
// ranks as one committed checkpoint per WriteMode per iteration, the mode
// order rotating between iterations. Compression dominates the three
// compressed modes and h5 pwrite+fsync dominates raw mode; no read or
// restart code runs inside the timed loop.
#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "common.h"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr std::array<pcw::WriteMode, 4> kModes = {
    pcw::WriteMode::kOverlapReorder, pcw::WriteMode::kOverlap,
    pcw::WriteMode::kFilterCollective, pcw::WriteMode::kNoCompression};

/// One timed checkpoint and what it left behind.
struct Checkpoint {
  bool ok = false;
  double wall_s = 0.0;
  double create_s = 0.0;
  double write_s = 0.0;   // rank 0's Writer::write
  double commit_s = 0.0;  // rank 0's Writer::commit
  double close_s = 0.0;   // rank 0's Writer::close
  std::uint64_t file_bytes = 0;
  std::vector<pcw::WriteReport> reports;
  pcw::Telemetry delta;
  std::uint64_t op = 0;
};

struct ModeStats {
  Samples wall;
  std::vector<Checkpoint> traced;  // traced checkpoints (trace runs)
  Samples untraced_wall;
  Samples traced_wall;
  LibSpans spans;
  std::uint64_t file_bytes = 0;
};

std::string mode_path(const std::string& dir, pcw::WriteMode mode) {
  return dir + "/ckpt-" + std::to_string(static_cast<int>(mode)) + ".pcw5";
}

Checkpoint write_checkpoint(const std::string& path, pcw::WriteMode mode,
                            const pcw::Dims& global, const Slabs& slabs, SpanLog& log,
                            Tally& tally) {
  std::remove(path.c_str());
  Checkpoint c;
  c.reports.resize(kRanks);
  c.op = log.next_op();
  const pcw::Telemetry before = pcw::metrics_snapshot();

  Span root(log, "checkpoint", -1, c.op);
  pcw::Result<pcw::Writer> writer = pcw::Status::Ok();
  {
    Span s(log, "writer.create", root.index(), c.op);
    writer = pcw::Writer::create(path, pcw::WriterOptions().with_mode(mode));
    c.create_s = s.close();
  }
  pcw::Status ran = writer.status();
  if (ran.ok()) {
    Span run_span(log, "pcw.run", root.index(), c.op);
    ran = pcw::run(kRanks, [&](pcw::Rank& rank) {
      const int r = rank.rank();
      const bool lead = r == 0;
      const pcw::Dims local = pcw::restart_region(global, r, kRanks).extents();
      std::vector<pcw::Field> fields;
      for (int f = 0; f < pcw::data::kNyxPrimaryFields; ++f) {
        const auto info = pcw::data::nyx_field_info(static_cast<pcw::data::NyxField>(f));
        fields.push_back(make_field(info.name, slabs[r][f], local, global, info.abs_error_bound));
      }
      // Only rank 0 records spans, so an operation's spans nest on one
      // timeline and their self times add up to its wall time.
      std::optional<Span> s;
      if (lead) s.emplace(log, "writer.write", run_span.index(), c.op);
      pcw::Result<pcw::WriteReport> report = writer->write(rank, fields);
      if (lead) c.write_s = s->close();
      check_status(report.status());
      c.reports[r] = std::move(report).value();
      if (lead) s.emplace(log, "writer.commit", run_span.index(), c.op);
      const pcw::Status committed = writer->commit(rank);
      if (lead) c.commit_s = s->close();
      check_status(committed);
      if (lead) s.emplace(log, "writer.close", run_span.index(), c.op);
      const pcw::Status closed = writer->close(rank);
      if (lead) c.close_s = s->close();
      check_status(closed);
    });
  }
  c.wall_s = root.close();
  c.delta = telemetry_delta(pcw::metrics_snapshot(), before);
  tally.status(ran, std::string("checkpoint ") + pcw::to_string(mode));
  c.ok = ran.ok();
  if (c.ok) c.file_bytes = writer->file_bytes();
  return c;
}

/// Reads every rank's slab of every field back from `path` and checks it
/// against the original: within the field's bound, bit-exact for raw.
void verify_file(const std::string& path, pcw::WriteMode mode, const pcw::Dims& global,
                 const Slabs& slabs, bool corrupt, Tally& tally) {
  pcw::Result<pcw::Reader> reader = pcw::Reader::open(path);
  if (!reader.ok()) {
    tally.status(reader.status(), "read-back open");
    return;
  }
  const bool raw = mode == pcw::WriteMode::kNoCompression;
  bool good = true;
  std::string what;
  for (int f = 0; f < pcw::data::kNyxPrimaryFields && good; ++f) {
    const auto info = pcw::data::nyx_field_info(static_cast<pcw::data::NyxField>(f));
    for (int r = 0; r < kRanks && good; ++r) {
      const pcw::Region slab = pcw::restart_region(global, r, kRanks);
      pcw::Result<std::vector<float>> got = reader->read_region<float>(info.name, slab);
      if (!got.ok()) {
        good = false;
        what = got.status().to_string();
        break;
      }
      if (corrupt && f == 0 && r == 0) (*got)[0] += static_cast<float>(4 * info.abs_error_bound + 1);
      const long bad = first_violation(got->data(), slabs[r][f].data(), got->size(),
                                       raw ? 0.0 : info.abs_error_bound);
      if (got->size() != slabs[r][f].size() || bad >= 0) {
        good = false;
        what = std::string(info.name) + " rank " + std::to_string(r) + " element " +
               std::to_string(bad) + " out of bound";
      }
    }
  }
  tally.check(good, std::string("read-back ") + pcw::to_string(mode) + ": " + what);
}

double rank_max(const std::vector<pcw::WriteReport>& reports,
                double pcw::WriteReport::*field) {
  double m = 0.0;
  for (const auto& r : reports) m = std::max(m, r.*field);
  return m;
}

}  // namespace

Outcome run_snapshot_write(const Config& cfg, SpanLog& log) {
  Outcome out;
  const std::size_t edge = cfg.tiny ? 32 : 192;
  const pcw::Dims global = pcw::Dims::make_3d(edge, edge, edge);
  std::vector<FieldGen> gens;
  for (int f = 0; f < pcw::data::kNyxPrimaryFields; ++f) {
    gens.push_back({static_cast<pcw::data::NyxField>(f), 0.0});
  }
  const double raw_bytes =
      static_cast<double>(global.count()) * sizeof(float) * pcw::data::kNyxPrimaryFields;

  // Set-up: the ranks' slabs of all six fields (a simulation already
  // holds them in memory), generated on kThreads threads.
  Samples setup;
  Slabs slabs;
  for (int rep = 0; rep < cfg.setup_reps(); ++rep) {
    const std::uint64_t t0 = now_ns();
    make_dir(cfg.data_dir, true);
    slabs = make_slabs(global, kRanks, gens, cfg.seed);
    setup.add(since_s(t0));
  }

  std::array<ModeStats, 4> stats;
  std::uint64_t dropped = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t probe_op = 0;
  const std::uint64_t loop_start = now_ns();
  for (std::size_t it = 0;; ++it) {
    const bool traced = cfg.trace && it % 2 == 1;
    for (std::size_t k = 0; k < kModes.size(); ++k) {
      const std::size_t m = (it + k) % kModes.size();
      if (traced) trace_arm();
      Checkpoint c = write_checkpoint(mode_path(cfg.data_dir, kModes[m]), kModes[m], global,
                                      slabs, log, out.tally);
      if (traced) trace_harvest(stats[m].spans, dropped);
      ++checkpoints;
      if (!c.ok) continue;
      stats[m].wall.add(c.wall_s);
      (traced ? stats[m].traced_wall : stats[m].untraced_wall).add(c.wall_s);
      stats[m].file_bytes = c.file_bytes;
      if (m == 0) probe_op = c.op;
      if (traced) stats[m].traced.push_back(std::move(c));
    }
    const bool both_halves = !cfg.trace || it >= 1;
    if (since_s(loop_start) >= cfg.seconds && both_halves) break;
  }
  const double loop_s = since_s(loop_start);

  // Correctness: each mode's last checkpoint, read back once.
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    verify_file(mode_path(cfg.data_dir, kModes[m]), kModes[m], global, slabs,
                cfg.corrupt == Corrupt::kReadback && m == 0, out.tally);
  }
  // One operation's benchmark spans must nest into its wall time.
  check_op_spans(cfg, log, probe_op, out.tally);

  const ModeStats& orr = stats[0];
  const double stored_per_raw = static_cast<double>(orr.file_bytes) / raw_bytes;
  out.end_to_end = {
      {"setup_s", setup.median(), "s", setup.size()},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
      {"primary_ms", orr.wall.median() * 1e3, "ms", orr.wall.size()},
      {"contrast1_ms", stats[1].wall.median() * 1e3, "ms", stats[1].wall.size()},
      {"contrast2_ms", stats[2].wall.median() * 1e3, "ms", stats[2].wall.size()},
      {"contrast3_ms", stats[3].wall.median() * 1e3, "ms", stats[3].wall.size()},
      {"ops_per_s", static_cast<double>(checkpoints) / loop_s, "1/s", checkpoints},
      {"stored_bytes_per_raw", stored_per_raw, "ratio", 1},
  };
  out.named = {
      {"checkpoint_s", orr.wall.median(), "s", orr.wall.size()},
      {"overlap_checkpoint_s", stats[1].wall.median(), "s", stats[1].wall.size()},
      {"filter_checkpoint_s", stats[2].wall.median(), "s", stats[2].wall.size()},
      {"raw_checkpoint_s", stats[3].wall.median(), "s", stats[3].wall.size()},
      {"stored_bytes_per_raw", stored_per_raw, "ratio", 1},
  };
  out.meta["input_bytes"] = std::to_string(static_cast<std::uint64_t>(raw_bytes));
  out.meta["grid"] = std::to_string(edge) + "^3 x 6 fields, 4 ranks (slabs)";
  if (!cfg.trace) return out;

  // ---- per-layer view from the traced checkpoints ----
  Samples exchange, skew, predict, compress, compress_mbps, overflow_parts;
  Samples create, commit, close, raw_write, filter_write, raw_h5_share;
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    for (const Checkpoint& c : stats[m].traced) {
      create.add(c.create_s);
      commit.add(c.commit_s);
      close.add(c.close_s);
      if (kModes[m] == pcw::WriteMode::kNoCompression) {
        raw_write.add(c.write_s);
        raw_h5_share.add((c.create_s + c.write_s + c.commit_s + c.close_s) / c.wall_s);
      }
      if (kModes[m] == pcw::WriteMode::kFilterCollective) filter_write.add(c.write_s);
    }
  }
  Samples blocks_encoded, writes, write_bytes, syncs;
  for (const Checkpoint& c : orr.traced) {
    exchange.add(rank_max(c.reports, &pcw::WriteReport::exchange_seconds));
    predict.add(rank_max(c.reports, &pcw::WriteReport::predict_seconds));
    double lo = 1e300, hi = 0.0;
    int parts = 0;
    const pcw::WriteReport* slowest = &c.reports[0];
    for (const auto& r : c.reports) {
      lo = std::min(lo, r.total_seconds);
      hi = std::max(hi, r.total_seconds);
      parts += r.overflow_partitions;
      if (r.compress_seconds > slowest->compress_seconds) slowest = &r;
    }
    skew.add(hi - lo);
    overflow_parts.add(parts);
    compress.add(slowest->compress_seconds);
    compress_mbps.add(static_cast<double>(slowest->raw_bytes) / slowest->compress_seconds / 1e6);
    blocks_encoded.add(static_cast<double>(c.delta.sz_blocks_encoded));
    writes.add(static_cast<double>(c.delta.io_writes));
    write_bytes.add(static_cast<double>(c.delta.io_write_bytes));
    syncs.add(static_cast<double>(c.delta.io_syncs));
  }

  // Model accuracy from the last overlap+reorder file's partition table.
  double size_err = 0.0, reserved = 0.0, actual = 0.0;
  std::size_t nparts = 0;
  {
    const double r_space = pcw::WriterOptions().extra_space;
    pcw::Result<pcw::Reader> reader = pcw::Reader::open(mode_path(cfg.data_dir, kModes[0]));
    out.tally.status(reader.status(), "partition table");
    if (reader.ok()) {
      for (const pcw::DatasetInfo& d : reader->datasets()) {
        for (const pcw::PartitionInfo& p : d.partitions) {
          const double a = static_cast<double>(p.actual_bytes);
          size_err += std::fabs(static_cast<double>(p.reserved_bytes) / r_space - a) / a;
          reserved += static_cast<double>(p.reserved_bytes);
          actual += a;
          ++nparts;
        }
      }
    }
  }

  const double per_rank = 1.0 / kRanks;
  const LibSpans& sp = orr.spans;
  const std::size_t n = orr.traced.size();
  // Where the wall time goes: sz compress in the compressed modes, the
  // h5 calls (create, write, commit, close) in raw mode.
  out.named.push_back({"checkpoint_sz_share", compress.median() / orr.traced_wall.median(),
                       "ratio", n});
  out.named.push_back({"raw_checkpoint_h5_share", raw_h5_share.median(), "ratio",
                       raw_h5_share.size()});
  out.per_layer = {
      measure_run_spawn(50),
      {"mpi.exchange_s", exchange.median(), "s", n},
      {"mpi.rank_skew_s", skew.median(), "s", n},
      {"model.predict_s", predict.median(), "s", n},
      {"model.size_error", nparts ? size_err / static_cast<double>(nparts) : 0.0, "ratio", nparts},
      {"model.overflow_partitions", overflow_parts.median(), "count", n},
      {"sz.compress_s", compress.median(), "s", n},
      {"sz.compress_mbps", compress_mbps.median(), "MB/s", n},
      {"sz.quantize_s", sp.seconds_per_op("sz.quantize") * per_rank, "s", n},
      {"sz.huffman_encode_s", sp.seconds_per_op("sz.huffman_encode") * per_rank, "s", n},
      {"sz.lz_s", sp.seconds_per_op("sz.lz") * per_rank, "s", n},
      {"sz.blocks_encoded", blocks_encoded.median(), "count", n},
      {"engine.write_exposed_s", sp.seconds_per_op("engine.write_exposed") * per_rank, "s", n},
      {"engine.overflow_s", sp.seconds_per_op("engine.overflow") * per_rank, "s", n},
      {"engine.reserved_per_actual", actual > 0 ? reserved / actual : 0.0, "ratio", nparts},
      {"h5.create_ms", create.median() * 1e3, "ms", create.size()},
      {"h5.commit_s", commit.median(), "s", commit.size()},
      {"h5.close_s", close.median(), "s", close.size()},
      {"h5.raw_write_s", raw_write.median(), "s", raw_write.size()},
      {"h5.filter_write_s", filter_write.median(), "s", filter_write.size()},
      {"h5.pwrite_s", sp.seconds_per_op("h5.pwrite"), "s", n},
      {"h5.fsync_s", sp.seconds_per_op("h5.fsync"), "s", n},
      {"h5.writes", writes.median(), "count", n},
      {"h5.write_bytes", write_bytes.median(), "bytes", n},
      {"h5.syncs", syncs.median(), "count", n},
      {"trace_overhead", orr.traced_wall.median() / orr.untraced_wall.median(), "ratio",
       orr.traced_wall.size()},
      {"trace.dropped", static_cast<double>(dropped), "count", 1},
  };
  return out;
}

}  // namespace perfbench
