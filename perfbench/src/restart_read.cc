// restart-read: the decode side. Set-up writes a 192^3 six-field
// snapshot (overlap+reorder) and a 16-step, K=8 series of two drifting
// fields at 128^3. The timed loop runs 4-rank repartitioned restarts,
// seeded 32^3 region reads, and seeded single-plane reads at mid-chain
// steps (plus keyframe-step planes as the no-chain contrast). No
// compression runs inside the loop, and no read goes through pcwd.
#include <algorithm>
#include <optional>
#include <random>
#include <stdexcept>

#include "common.h"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr std::uint32_t kSteps = 16;
constexpr std::uint32_t kKeyframe = 8;
constexpr std::size_t kPool = 32;   // distinct boxes / planes per run

const pcw::data::NyxField kSeriesFields[] = {pcw::data::NyxField::kBaryonDensity,
                                             pcw::data::NyxField::kTemperature};

/// One seeded read target with its regenerated original.
struct Target {
  pcw::data::NyxField field;
  std::string name;
  double bound = 0.0;
  std::uint32_t step = 0;  // series targets only
  pcw::Region region;
  std::vector<float> want;
};

struct Inputs {
  Slabs snapshot;  // [rank][field] originals of the snapshot
  std::vector<Target> boxes, chain_planes, keyframe_planes;
  std::uint64_t stored_bytes = 0;
  double raw_bytes = 0.0;
};

/// Writes both input files and regenerates the seeded read targets.
Inputs set_up(const Config& cfg, const pcw::Dims& snap, const pcw::Dims& ser,
              std::size_t box_edge, const std::string& snap_path,
              const std::string& series_path) {
  Inputs in;
  std::vector<FieldGen> gens;
  for (int f = 0; f < pcw::data::kNyxPrimaryFields; ++f) {
    gens.push_back({static_cast<pcw::data::NyxField>(f), 0.0});
  }
  in.snapshot = make_slabs(snap, kRanks, gens, cfg.seed);

  pcw::Result<pcw::Writer> w = pcw::Writer::create(snap_path);
  check_status(w.status());
  check_status(pcw::run(kRanks, [&](pcw::Rank& rank) {
    const int r = rank.rank();
    const pcw::Dims local = pcw::restart_region(snap, r, kRanks).extents();
    std::vector<pcw::Field> fields;
    for (int f = 0; f < pcw::data::kNyxPrimaryFields; ++f) {
      const auto info = pcw::data::nyx_field_info(static_cast<pcw::data::NyxField>(f));
      fields.push_back(make_field(info.name, in.snapshot[r][f], local, snap, info.abs_error_bound));
    }
    check_status(w->write(rank, fields).status());
    check_status(w->commit(rank));
    check_status(w->close(rank));
  }));

  // The series: every rank generates its slab of each step as it goes.
  pcw::Result<pcw::Writer> sw = pcw::Writer::create(series_path);
  check_status(sw.status());
  check_status(pcw::run(kRanks, [&](pcw::Rank& rank) {
    const int r = rank.rank();
    const pcw::Region slab = pcw::restart_region(ser, r, kRanks);
    pcw::Result<pcw::SeriesWriter> series = pcw::SeriesWriter::create(
        *sw, pcw::SeriesOptions().with_keyframe_interval(kKeyframe));
    check_status(series.status());
    std::vector<Drift> drifts;
    for (auto field : kSeriesFields) drifts.push_back(make_drift(ser, slab, field, cfg.seed));
    for (std::uint32_t step = 0; step < kSteps; ++step) {
      std::vector<std::vector<float>> data;
      std::vector<pcw::Field> fields;
      for (const Drift& d : drifts) data.push_back(drift_at(d, step, kSteps));
      for (std::size_t i = 0; i < data.size(); ++i) {
        const auto info = pcw::data::nyx_field_info(kSeriesFields[i]);
        fields.push_back(make_field(info.name, data[i], slab.extents(), ser, info.abs_error_bound));
      }
      check_status(series->write_step(rank, fields).status());
    }
    check_status(sw->close(rank));
  }));
  in.stored_bytes = file_size(snap_path) + file_size(series_path);
  in.raw_bytes = static_cast<double>(snap.count()) * sizeof(float) * pcw::data::kNyxPrimaryFields +
                 static_cast<double>(ser.count()) * sizeof(float) * 2 * kSteps;

  // Seeded targets, stratified so every seed reads the same mix. Boxes:
  // fields in turn, seeded corners. Planes: one seeded d0 plane of a
  // series field at a mid-chain step, chain positions 1..K-1 in turn, or
  // at a keyframe step.
  std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 12345);
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  for (std::size_t i = 0; i < kPool; ++i) {
    Target t;
    t.field = static_cast<pcw::data::NyxField>(i % pcw::data::kNyxPrimaryFields);
    const auto info = pcw::data::nyx_field_info(t.field);
    t.name = info.name;
    t.bound = info.abs_error_bound;
    for (int a = 0; a < 3; ++a) {
      const std::size_t extent = a == 0 ? snap.d0 : a == 1 ? snap.d1 : snap.d2;
      t.region.lo[a] = pick(extent - box_edge + 1);
      t.region.hi[a] = t.region.lo[a] + box_edge;
    }
    in.boxes.push_back(std::move(t));
  }
  auto plane = [&](std::size_t i, std::uint32_t step) {
    Target t;
    t.field = kSeriesFields[i % 2];
    const auto info = pcw::data::nyx_field_info(t.field);
    t.name = info.name;
    t.bound = info.abs_error_bound;
    t.step = step;
    const std::size_t z = pick(ser.d0);
    t.region = {{z, 0, 0}, {z + 1, ser.d1, ser.d2}};
    return t;
  };
  for (std::size_t i = 0; i < kPool; ++i) {
    const auto chain_pos = 1 + static_cast<std::uint32_t>(i % (kKeyframe - 1));
    const auto key = kKeyframe * static_cast<std::uint32_t>(i / 2 % (kSteps / kKeyframe));
    in.chain_planes.push_back(plane(i, key + chain_pos));
    in.keyframe_planes.push_back(plane(i, key));
  }
  std::vector<Target*> all;
  for (auto* pool : {&in.boxes, &in.chain_planes, &in.keyframe_planes}) {
    for (Target& t : *pool) all.push_back(&t);
  }
  parallel_for(all.size(), [&](std::size_t i) {
    Target& t = *all[i];
    t.want = i < in.boxes.size()
                 ? make_box(snap, t.region, {t.field, 0.0}, cfg.seed)
                 : drift_at(make_drift(ser, t.region, t.field, cfg.seed), t.step, kSteps);
  });
  return in;
}

/// Per-kind tallies of the timed reads.
struct Kind {
  Samples wall, traced_wall, untraced_wall;
  LibSpans spans;
};

}  // namespace

Outcome run_restart_read(const Config& cfg, SpanLog& log) {
  Outcome out;
  const std::size_t snap_edge = cfg.tiny ? 48 : 192;
  const std::size_t ser_edge = cfg.tiny ? 32 : 128;
  const std::size_t box_edge = cfg.tiny ? 8 : 32;
  const pcw::Dims snap = pcw::Dims::make_3d(snap_edge, snap_edge, snap_edge);
  const pcw::Dims ser = pcw::Dims::make_3d(ser_edge, ser_edge, ser_edge);
  const std::string snap_path = cfg.data_dir + "/snapshot.pcw5";
  const std::string series_path = cfg.data_dir + "/series.pcw5";

  Samples setup;
  Inputs in;
  for (int rep = 0; rep < cfg.setup_reps(); ++rep) {
    const std::uint64_t t0 = now_ns();
    make_dir(cfg.data_dir, true);
    try {
      in = set_up(cfg, snap, ser, box_edge, snap_path, series_path);
    } catch (const std::exception& e) {
      out.tally.fail(std::string("set-up: ") + e.what());
      return out;
    }
    setup.add(since_s(t0));
  }
  pcw::Result<pcw::Reader> reader = pcw::Reader::open(series_path);
  pcw::Result<pcw::Reader> snap_reader = pcw::Reader::open(snap_path);
  if (!reader.ok() || !snap_reader.ok()) {
    out.tally.fail("cannot open the inputs");
    return out;
  }

  Kind restart, box, chain, keyframe;
  std::vector<std::vector<pcw::ReadReport>> restart_reports;  // traced restarts
  std::vector<pcw::Telemetry> restart_deltas;                 // traced restarts
  Samples open_s;
  std::uint64_t dropped = 0;
  std::uint64_t ops = 0;
  std::uint64_t probe_op = 0;
  bool corrupt = cfg.corrupt == Corrupt::kReadback;

  // One timed read of `t` (a region of the snapshot, or a plane of a
  // series step), verified against its regenerated original.
  auto timed_read = [&](Kind& kind, const Target& t, bool series, bool traced) {
    const std::uint64_t op = log.next_op();
    if (traced) trace_arm();
    Span root(log, series ? "plane_read" : "box_read", -1, op);
    pcw::Result<std::vector<float>> got = pcw::Status::Ok();
    {
      Span s(log, series ? "pcw.restart" : "reader.read_region", root.index(), op);
      got = series ? pcw::restart<float>(*reader, t.name, t.step, t.region)
                   : snap_reader->read_region<float>(t.name, t.region);
    }
    const double wall = root.close();
    if (traced) trace_harvest(kind.spans, dropped);
    ++ops;
    if (!got.ok()) {
      out.tally.status(got.status(), "region read");
      return;
    }
    if (corrupt && !got->empty()) {
      (*got)[0] += static_cast<float>(4 * t.bound + 1);
      corrupt = false;
    }
    out.tally.check(got->size() == t.want.size() &&
                        first_violation(got->data(), t.want.data(), got->size(), t.bound) < 0,
                    t.name + " read out of bound");
    kind.wall.add(wall);
    (traced ? kind.traced_wall : kind.untraced_wall).add(wall);
  };

  const std::uint64_t loop_start = now_ns();
  for (std::size_t it = 0;; ++it) {
    const bool traced = cfg.trace && it % 2 == 1;

    // The 4-rank repartitioned restart of all six fields.
    {
      const std::uint64_t op = log.next_op();
      const pcw::Telemetry before = pcw::metrics_snapshot();
      if (traced) trace_arm();
      std::vector<pcw::ReadReport> reports(kRanks);
      std::vector<std::vector<std::vector<float>>> got(kRanks);
      Span root(log, "restart", -1, op);
      pcw::Result<pcw::Reader> r = pcw::Status::Ok();
      {
        Span s(log, "reader.open", root.index(), op);
        r = pcw::Reader::open(snap_path);
        open_s.add(s.close());
      }
      pcw::Status ran = r.status();
      if (ran.ok()) {
        Span run_span(log, "pcw.run", root.index(), op);
        ran = pcw::run(kRanks, [&](pcw::Rank& rank) {
          const int rk = rank.rank();
          std::vector<pcw::ReadRequest> reqs;
          for (int f = 0; f < pcw::data::kNyxPrimaryFields; ++f) {
            reqs.push_back({pcw::data::nyx_field_info(static_cast<pcw::data::NyxField>(f)).name,
                            pcw::restart_region(snap, rk, kRanks)});
          }
          std::optional<Span> s;
          if (rk == 0) s.emplace(log, "reader.read_fields", run_span.index(), op);
          auto res = r->read_fields<float>(rank, reqs, &reports[rk]);
          s.reset();
          check_status(res.status());
          got[rk] = std::move(res).value();
        });
      }
      const double wall = root.close();
      if (traced) {
        trace_harvest(restart.spans, dropped);
        restart_reports.push_back(reports);
        restart_deltas.push_back(telemetry_delta(pcw::metrics_snapshot(), before));
      }
      ++ops;
      if (!ran.ok()) {
        out.tally.status(ran, "restart");
      } else {
        bool good = true;
        for (int rk = 0; rk < kRanks && good; ++rk) {
          for (int f = 0; f < pcw::data::kNyxPrimaryFields && good; ++f) {
            const auto info = pcw::data::nyx_field_info(static_cast<pcw::data::NyxField>(f));
            const auto& want = in.snapshot[rk][f];
            good = got[rk][f].size() == want.size() &&
                   first_violation(got[rk][f].data(), want.data(), want.size(),
                                   info.abs_error_bound) < 0;
          }
        }
        out.tally.check(good, "restarted slab out of bound");
        restart.wall.add(wall);
        (traced ? restart.traced_wall : restart.untraced_wall).add(wall);
        probe_op = op;
      }
    }
    for (std::size_t j = 0; j < 4; ++j) {
      timed_read(box, in.boxes[(it * 4 + j) % kPool], false, traced);
    }
    for (std::size_t j = 0; j < 6; ++j) {
      timed_read(chain, in.chain_planes[(it * 6 + j) % kPool], true, traced);
    }
    for (std::size_t j = 0; j < 2; ++j) {
      timed_read(keyframe, in.keyframe_planes[(it * 2 + j) % kPool], true, traced);
    }
    const bool both_halves = !cfg.trace || it >= 1;
    if (since_s(loop_start) >= cfg.seconds && both_halves) break;
  }
  const double loop_s = since_s(loop_start);
  check_op_spans(cfg, log, probe_op, out.tally);

  out.end_to_end = {
      {"setup_s", setup.median(), "s", setup.size()},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
      {"primary_ms", restart.wall.median() * 1e3, "ms", restart.wall.size()},
      {"contrast1_ms", box.wall.median() * 1e3, "ms", box.wall.size()},
      {"contrast2_ms", chain.wall.median() * 1e3, "ms", chain.wall.size()},
      {"contrast3_ms", keyframe.wall.median() * 1e3, "ms", keyframe.wall.size()},
      {"ops_per_s", static_cast<double>(ops) / loop_s, "1/s", ops},
      {"stored_bytes_per_raw", static_cast<double>(in.stored_bytes) / in.raw_bytes, "ratio", 1},
  };
  out.named = {
      {"restart_s", restart.wall.median(), "s", restart.wall.size()},
      {"region_read_ms", box.wall.median() * 1e3, "ms", box.wall.size()},
      {"chain_read_ms", chain.wall.median() * 1e3, "ms", chain.wall.size()},
      {"keyframe_read_ms", keyframe.wall.median() * 1e3, "ms", keyframe.wall.size()},
  };
  out.meta["input_bytes"] = std::to_string(static_cast<std::uint64_t>(in.raw_bytes));
  out.meta["grid"] = std::to_string(snap_edge) + "^3 x 6 snapshot + " +
                     std::to_string(ser_edge) + "^3 x 2 x 16-step K=8 series, 4 ranks";
  if (!cfg.trace) return out;

  // Exact partial-decode counts: one untimed pass over each target pool.
  std::uint64_t region_blocks = 0, region_total = 0, region_bytes = 0;
  for (const Target& t : in.boxes) {
    pcw::ReadReport rep;
    out.tally.status(snap_reader->read_region<float>(t.name, t.region, &rep).status(),
                     "box count pass");
    region_blocks += rep.blocks_decoded;
    region_total += rep.blocks_total;
    region_bytes += rep.bytes_read;
  }
  std::uint64_t links = 0, chain_blocks = 0, chain_total = 0;
  for (const Target& t : in.chain_planes) {
    pcw::SeriesReadReport rep;
    out.tally.status(
        pcw::restart<float>(*reader, t.name, t.step, t.region, {}, &rep).status(),
        "chain count pass");
    links += rep.steps_chained;
    chain_blocks += rep.blocks_decoded;
    chain_total += rep.blocks_total;
  }

  Samples decompress, decode_mbps, read_s, read_bytes, blocks_enc, blocks_dec, writes,
      write_bytes, syncs;
  for (std::size_t i = 0; i < restart_reports.size(); ++i) {
    const pcw::ReadReport* slow = &restart_reports[i][0];
    double slowest_read = 0.0;
    std::uint64_t bytes = 0;
    for (const auto& r : restart_reports[i]) {
      if (r.decompress_seconds > slow->decompress_seconds) slow = &r;
      slowest_read = std::max(slowest_read, r.read_seconds);
      bytes += r.bytes_read;
    }
    decompress.add(slow->decompress_seconds);
    decode_mbps.add(static_cast<double>(slow->elements_out) * sizeof(float) /
                    slow->decompress_seconds / 1e6);
    read_s.add(slowest_read);
    read_bytes.add(static_cast<double>(bytes));
    const pcw::Telemetry& d = restart_deltas[i];
    blocks_enc.add(static_cast<double>(d.sz_blocks_encoded));
    blocks_dec.add(static_cast<double>(d.sz_blocks_decoded));
    writes.add(static_cast<double>(d.io_writes));
    write_bytes.add(static_cast<double>(d.io_write_bytes));
    syncs.add(static_cast<double>(d.io_syncs));
  }
  const double per_rank = 1.0 / kRanks;
  const std::size_t n = restart_reports.size();
  const LibSpans& sp = restart.spans;
  const double pool = static_cast<double>(kPool);
  out.per_layer = {
      measure_run_spawn(50),
      {"sz.decompress_s", decompress.median(), "s", n},
      {"sz.decode_mbps", decode_mbps.median(), "MB/s", n},
      {"sz.huffman_decode_s", sp.seconds_per_op("sz.huffman_decode") * per_rank, "s", n},
      {"sz.dequantize_s", sp.seconds_per_op("sz.dequantize") * per_rank, "s", n},
      {"sz.lz_expand_s", sp.seconds_per_op("sz.lz_expand") * per_rank, "s", n},
      {"sz.blocks_encoded", blocks_enc.median(), "count", n},
      {"sz.blocks_decoded", blocks_dec.median(), "count", n},
      {"h5.writes", writes.median(), "count", n},
      {"h5.write_bytes", write_bytes.median(), "bytes", n},
      {"h5.syncs", syncs.median(), "count", n},
      {"h5.open_ms", open_s.median() * 1e3, "ms", open_s.size()},
      {"h5.read_s", read_s.median(), "s", n},
      {"h5.read_bytes", read_bytes.median(), "bytes", n},
      {"read.plan_s", sp.seconds_per_op("read.plan") * per_rank, "s", n},
      {"read.payload_wait_s", sp.seconds_per_op("read.payload_wait") * per_rank, "s", n},
      {"read.region_blocks_ratio",
       region_total ? static_cast<double>(region_blocks) / static_cast<double>(region_total) : 0.0,
       "ratio", kPool},
      {"read.region_bytes", static_cast<double>(region_bytes) / pool, "bytes", kPool},
      {"series.links_per_read", static_cast<double>(links) / pool, "count", kPool},
      {"series.chain_blocks_ratio",
       chain_total ? static_cast<double>(chain_blocks) / static_cast<double>(chain_total) : 0.0,
       "ratio", kPool},
      {"series.read_s", chain.spans.seconds_per_op("series.read"), "s", chain.spans.ops},
      {"series.decode_s", chain.spans.seconds_per_op("series.decode"), "s", chain.spans.ops},
      {"trace_overhead", restart.traced_wall.median() / restart.untraced_wall.median(), "ratio",
       restart.traced_wall.size()},
      {"trace.dropped", static_cast<double>(dropped), "count", 1},
  };
  return out;
}

}  // namespace perfbench
