// serve-mixed: the store layer. An in-process pcwd server on a Unix
// socket and 2 closed-loop clients (one connection each, so 2 client
// plus 2 server threads are busy). ~90% of requests are READ_STEPs of
// 4-plane slabs of a 16-step 128^3 series under Zipf-skewed keys with a
// cache that holds about a quarter of them; ~10% are WRITE_STEPs of a
// 64^3 field appended to a shared writable file so group commit can
// batch. Decode runs only on cache misses.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <thread>

#include "common.h"
#include "pcw/store.h"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr int kClients = 2;
constexpr std::uint32_t kSteps = 16;
constexpr std::uint32_t kKeyframe = 8;
constexpr std::size_t kSlabPlanes = 4;
constexpr double kWriteShare = 0.10;
constexpr double kReadOnlyShare = 0.2;  // of the timed seconds, before the mix
constexpr double kZipfS = 1.0;
constexpr double kPhaseS = 0.15;  // traced runs: untraced / traced phase length
constexpr std::size_t kWriteVariants = 8;
constexpr std::size_t kSampleEvery = 8;  // remote reads checked bit-exact
constexpr std::uint64_t kHarvestEvents = 1024;  // well under the 4096-event rings
constexpr const char* kWriteField = "w";
constexpr pcw::data::NyxField kReadField = pcw::data::NyxField::kBaryonDensity;

struct Key {
  std::uint32_t step;
  std::size_t slab;
  auto operator<=>(const Key&) const = default;
};

/// Zipf(s) over the (step, slab) keys. The popularity order is seeded
/// but stratified: every run of kSteps consecutive ranks holds each step
/// exactly once, so the hot set has the same mix of keyframe and
/// mid-chain steps whatever the seed, and only the slabs vary.
class Zipf {
 public:
  Zipf(std::size_t slabs, std::uint64_t seed) : order_(slabs * kSteps), cdf_(slabs * kSteps) {
    double sum = 0.0;
    for (std::size_t i = 0; i < cdf_.size(); ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
    std::mt19937_64 rng(seed);
    std::vector<std::vector<std::size_t>> slab_order(kSteps);
    for (auto& perm : slab_order) {
      for (std::size_t j = 0; j < slabs; ++j) perm.push_back(j);
      std::shuffle(perm.begin(), perm.end(), rng);
    }
    std::vector<std::uint32_t> steps(kSteps);
    for (std::uint32_t j = 0; j < kSteps; ++j) steps[j] = j;
    for (std::size_t g = 0; g < slabs; ++g) {
      std::shuffle(steps.begin(), steps.end(), rng);
      for (std::uint32_t j = 0; j < kSteps; ++j) {
        order_[g * kSteps + j] = Key{steps[j], slab_order[steps[j]][g]};
      }
    }
  }
  Key sample(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return order_[std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                         order_.size() - 1)];
  }

 private:
  std::vector<Key> order_;
  std::vector<double> cdf_;
};

/// What one client thread observed.
struct ClientLog {
  Samples read_lat, write_lat;
  std::vector<std::pair<Key, std::uint64_t>> sampled;  // key, FNV-1a of bytes
  std::vector<std::uint32_t> acks;                     // acked steps
  Tally tally;
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t probe_op = 0;  // the last sampled read: a root with two children
};

/// Everything the timed window runs against.
struct Rig {
  pcw::store::Server server;
  std::vector<pcw::store::Client> clients;  // kClients load clients + 1 control
  std::vector<std::mt19937_64> rngs;        // one per load client, across phases
  std::uint32_t series_id = 0;
  std::uint32_t writes_id = 0;  // the shared writable file
  std::vector<std::vector<float>> variants;  // the WRITE_STEP payloads
  std::uint64_t stored_bytes = 0;

  void stop() {
    for (auto& c : clients) (void)c.close();
    clients.clear();
    (void)server.stop();
  }
};

std::map<std::string, std::uint64_t> stats_of(pcw::store::Client& c) {
  std::map<std::string, std::uint64_t> out;
  auto rows = c.stats();
  if (rows.ok()) {
    for (const auto& r : *rows) out[r.name] = r.value;
  }
  return out;
}

}  // namespace

Outcome run_serve_mixed(const Config& cfg, SpanLog& log) {
  Outcome out;
  const std::size_t edge = cfg.tiny ? 32 : 128;
  const std::size_t wedge = cfg.tiny ? 16 : 64;
  const pcw::Dims global = pcw::Dims::make_3d(edge, edge, edge);
  const pcw::Dims wdims = pcw::Dims::make_3d(wedge, wedge, wedge);
  const std::size_t slabs = edge / kSlabPlanes;
  const std::size_t nkeys = kSteps * slabs;
  const std::uint64_t slab_bytes = kSlabPlanes * edge * edge * sizeof(float);
  const auto info = pcw::data::nyx_field_info(kReadField);
  const std::string series_path = cfg.data_dir + "/series.pcw5";
  const std::string address = "unix:" + cfg.data_dir + "/pcwd.sock";
  const double warm_s = cfg.tiny ? 0.1 : 1.0;
  const std::string writes_path = cfg.data_dir + "/writes.pcw5";
  const Zipf zipf(slabs, cfg.seed);
  auto region_of = [&](const Key& k) {
    return pcw::Region{{k.slab * kSlabPlanes, 0, 0}, {(k.slab + 1) * kSlabPlanes, edge, edge}};
  };

  // Closed-loop client body: until the deadline or `halt`, Zipf reads
  // with probability 1 - kWriteShare, appends otherwise. Each request is
  // one operation: a root span around the façade call and, on sampled
  // reads, the hashing of the reply.
  std::atomic<std::uint64_t> next_slot{0};
  auto client_loop = [&](Rig& rig, int c, std::uint64_t deadline_ns,
                         const std::atomic<bool>& halt, bool writes, ClientLog& cl) {
    pcw::store::Client& client = rig.clients[static_cast<std::size_t>(c)];
    std::mt19937_64& rng = rig.rngs[static_cast<std::size_t>(c)];
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    while (now_ns() < deadline_ns && !halt.load(std::memory_order_relaxed)) {
      const std::uint64_t op = log.next_op();
      Span root(log, "request", -1, op);
      if (writes && uni(rng) < kWriteShare) {
        const auto& data = rig.variants[next_slot++ % rig.variants.size()];
        Span s(log, "client.write_step", root.index(), op);
        auto ack = client.write_step(rig.writes_id, kWriteField, pcw::FieldView::of(data, wdims),
                                     info.abs_error_bound, kKeyframe);
        const double lat = s.close();
        ++cl.writes;
        if (!ack.ok()) {
          cl.tally.status(ack.status(), "write_step");
          continue;
        }
        cl.tally.ok();
        cl.write_lat.add(lat);
        cl.acks.push_back(ack->step);
        continue;
      }
      const Key key = zipf.sample(uni(rng));
      Span s(log, "client.read_step", root.index(), op);
      auto got = client.read_step(rig.series_id, info.name, key.step, region_of(key),
                                  pcw::DType::kFloat32);
      const double lat = s.close();
      ++cl.reads;
      if (!got.ok()) {
        cl.tally.status(got.status(), "read_step");
        continue;
      }
      cl.tally.check(got->bytes.size() == slab_bytes, "read_step returned wrong size");
      cl.read_lat.add(lat);
      if (cl.reads % kSampleEvery == 0) {
        Span h(log, "fnv1a", root.index(), op);
        cl.sampled.emplace_back(key, fnv1a(got->bytes.data(), got->bytes.size()));
        cl.probe_op = op;
      }
    }
  };

  // Runs the load clients for `seconds`, or until `stop` (polled every
  // millisecond) says to end early; every request in flight completes
  // before this returns. Appends to logs[c]; returns the phase's seconds.
  auto run_clients = [&](Rig& rig, double seconds, bool writes, std::vector<ClientLog>& logs,
                         const std::function<bool()>& stop) {
    logs.resize(kClients);
    const std::uint64_t t0 = now_ns();
    const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    std::atomic<bool> halt{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] { client_loop(rig, c, deadline, halt, writes, logs[c]); });
    }
    if (stop) {
      while (now_ns() < deadline && !stop()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      halt = true;
    }
    for (auto& t : threads) t.join();
    return since_s(t0);
  };

  // ---- set-up: series file, write payloads, server, warm cache ----
  auto set_up = [&](Rig& rig) {
    make_dir(cfg.data_dir, true);
    pcw::Result<pcw::Writer> w = pcw::Writer::create(series_path);
    check_status(w.status());
    check_status(pcw::run(kRanks, [&](pcw::Rank& rank) {
      const pcw::Region slab = pcw::restart_region(global, rank.rank(), kRanks);
      auto series = pcw::SeriesWriter::create(
          *w, pcw::SeriesOptions().with_keyframe_interval(kKeyframe));
      check_status(series.status());
      const Drift drift = make_drift(global, slab, kReadField, cfg.seed);
      for (std::uint32_t step = 0; step < kSteps; ++step) {
        const auto data = drift_at(drift, step, kSteps);
        const pcw::Field f =
            make_field(info.name, data, slab.extents(), global, info.abs_error_bound);
        check_status(series->write_step(rank, {&f, 1}).status());
      }
      check_status(w->close(rank));
    }));
    rig.stored_bytes = file_size(series_path);
    const Drift wdrift = make_drift(wdims, pcw::Region::of(wdims), kReadField, cfg.seed + 1);
    rig.variants.clear();
    for (std::uint32_t i = 0; i < kWriteVariants; ++i) {
      rig.variants.push_back(drift_at(wdrift, i, kWriteVariants));
    }

    auto server = pcw::store::Server::start(
        address, pcw::store::StoreOptions().with_cache_bytes(nkeys / 4 * slab_bytes));
    check_status(server.status());
    rig.server = std::move(server).value();
    for (int c = 0; c <= kClients; ++c) {
      auto client = pcw::store::Client::connect(rig.server.address());
      check_status(client.status());
      auto opened = client->open(series_path);
      check_status(opened.status());
      rig.series_id = opened->id;
      rig.clients.push_back(std::move(client).value());
    }
    auto writable = rig.clients.back().open(writes_path, pcw::store::OpenMode::kCreate);
    check_status(writable.status());
    rig.writes_id = writable->id;
    for (int c = 0; c < kClients; ++c) {
      rig.rngs.emplace_back(cfg.seed * 1000003ull + static_cast<std::uint64_t>(c) * 7919 + 1);
    }
    // Warm the cache and page cache with the read mix itself.
    std::vector<ClientLog> warm;
    run_clients(rig, warm_s, false, warm, nullptr);
    for (const ClientLog& cl : warm) {
      if (cl.tally.failed) throw std::runtime_error("warm-up read failed");
    }
  };

  Samples setup;
  Rig rig;
  for (int rep = 0; rep < cfg.setup_reps(); ++rep) {
    if (rep > 0) rig.stop();
    rig = Rig{};
    const std::uint64_t t0 = now_ns();
    try {
      set_up(rig);
    } catch (const std::exception& e) {
      rig.stop();
      out.tally.fail(std::string("set-up: ") + e.what());
      return out;
    }
    setup.add(since_s(t0));
  }
  pcw::store::Client& control = rig.clients.back();

  // Protocol floor on an idle server (traced runs).
  Samples ping;
  if (cfg.trace) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t t0 = now_ns();
      out.tally.status(control.ping(), "ping");
      ping.add(since_s(t0) * 1e6);
    }
  }

  // ---- the timed window: a read-only phase, then the mixed load ----
  std::vector<ClientLog> read_only, logs, traced_logs;
  run_clients(rig, cfg.seconds * kReadOnlyShare, false, read_only, nullptr);
  const double mixed_s = cfg.seconds * (1.0 - kReadOnlyShare);
  LibSpans spans;
  std::uint64_t dropped = 0;
  const auto before = stats_of(control);
  double window_s = 0.0;
  if (!cfg.trace) {
    window_s = run_clients(rig, mixed_s, true, logs, nullptr);
  } else {
    // Alternate untraced and traced phases. Tracing is armed and harvested
    // only between phases, with no request in flight; a traced phase ends
    // early once kHarvestEvents events are buffered (across all threads),
    // so no thread's ring can wrap however fast requests get.
    const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(mixed_s * 1e9);
    while (now_ns() < end) {
      window_s += run_clients(rig, kPhaseS, true, logs, nullptr);
      trace_arm();
      window_s += run_clients(rig, kPhaseS, true, traced_logs, [] {
        return pcw::metrics_snapshot().trace_spans >= kHarvestEvents;
      });
      trace_harvest(spans, dropped, false);
    }
  }
  const auto after = stats_of(control);
  auto delta = [&](const char* name) {
    auto a = after.find(name);
    auto b = before.find(name);
    return a == after.end() || b == before.end() ? 0.0 : static_cast<double>(a->second - b->second);
  };

  // ---- correctness ----
  Samples read_lat, write_lat, traced_read, untraced_read, read_only_lat;
  std::uint64_t reads = 0, writes = 0, probe_op = 0;
  std::vector<std::uint32_t> acks;
  std::map<Key, std::vector<std::uint64_t>> sampled;
  auto absorb = [&](const std::vector<ClientLog>& phase_logs, Samples& reads_into) {
    for (const ClientLog& cl : phase_logs) {
      for (double v : cl.read_lat.values()) reads_into.add(v);
      for (const auto& [k, h] : cl.sampled) sampled[k].push_back(h);
      out.tally.attempted += cl.tally.attempted;
      out.tally.failed += cl.tally.failed;
      for (const auto& e : cl.tally.errors) out.tally.errors.push_back(e);
    }
  };
  absorb(read_only, read_only_lat);
  absorb(logs, untraced_read);
  absorb(traced_logs, traced_read);
  for (const auto* phase_logs : {&logs, &traced_logs}) {
    for (const ClientLog& cl : *phase_logs) {
      for (double v : cl.read_lat.values()) read_lat.add(v);
      for (double v : cl.write_lat.values()) write_lat.add(v);
      reads += cl.reads;
      writes += cl.writes;
      acks.insert(acks.end(), cl.acks.begin(), cl.acks.end());
      probe_op = std::max(probe_op, cl.probe_op);
    }
  }
  // Sampled remote reads are bit-exact against a direct Reader.
  {
    pcw::Result<pcw::Reader> reader = pcw::Reader::open(series_path);
    out.tally.status(reader.status(), "direct reader");
    bool corrupt = cfg.corrupt == Corrupt::kReadback;
    for (const auto& [key, hashes] : sampled) {
      if (!reader.ok()) break;
      auto want = pcw::restart<float>(*reader, info.name, key.step, region_of(key));
      if (!want.ok()) {
        out.tally.status(want.status(), "direct restart");
        continue;
      }
      if (corrupt) {
        (*want)[0] += 1.0f;
        corrupt = false;
      }
      const std::uint64_t h = fnv1a(want->data(), want->size() * sizeof(float));
      for (std::uint64_t got : hashes) {
        out.tally.check(got == h, "remote read differs from the direct Reader");
      }
    }
  }
  // Write acks, across both clients, carry consecutive steps 0..n-1.
  std::sort(acks.begin(), acks.end());
  bool consecutive = true;
  for (std::size_t i = 0; i < acks.size(); ++i) consecutive &= acks[i] == i;
  out.tally.check(consecutive, "write acks are not consecutive steps");
  check_op_spans(cfg, log, probe_op, out.tally);
  rig.stop();

  const double raw = static_cast<double>(global.count()) * sizeof(float) * kSteps;
  out.end_to_end = {
      {"setup_s", setup.median(), "s", setup.size()},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
      {"primary_ms", read_lat.median() * 1e3, "ms", read_lat.size()},
      {"contrast1_ms", read_lat.quantile(0.9) * 1e3, "ms", read_lat.size()},
      {"contrast2_ms", write_lat.median() * 1e3, "ms", write_lat.size()},
      {"contrast3_ms", read_only_lat.median() * 1e3, "ms", read_only_lat.size()},
      {"ops_per_s", static_cast<double>(reads + writes) / window_s, "1/s", reads + writes},
      {"stored_bytes_per_raw", static_cast<double>(rig.stored_bytes) / raw, "ratio", 1},
  };
  out.named = {
      {"serve_ops_per_s", static_cast<double>(reads + writes) / window_s, "1/s", reads + writes},
      {"serve_read_p50_ms", read_lat.median() * 1e3, "ms", read_lat.size()},
      {"serve_read_p90_ms", read_lat.quantile(0.9) * 1e3, "ms", read_lat.size()},
      {"serve_write_p50_ms", write_lat.median() * 1e3, "ms", write_lat.size()},
      {"serve_read_only_p50_ms", read_only_lat.median() * 1e3, "ms", read_only_lat.size()},
  };
  out.meta["input_bytes"] = std::to_string(static_cast<std::uint64_t>(raw));
  out.meta["grid"] = std::to_string(edge) + "^3 x 16-step series, " + std::to_string(nkeys) +
                     " keys of " + std::to_string(slab_bytes) + " B, cache " +
                     std::to_string(nkeys / 4 * slab_bytes) + " B";
  if (!cfg.trace) return out;

  const double hits = delta("store_cache_hits");
  const double lookups = hits + delta("store_cache_misses") + delta("store_coalesced");
  const double nreads = std::max<double>(1.0, static_cast<double>(reads));
  const double nwrites = std::max<double>(1.0, static_cast<double>(writes));
  const double traced_reads = static_cast<double>(spans.by_key["store.store.read_step"].first);
  auto per_traced_read = [&](const char* key) {
    auto it = spans.by_key.find(key);
    return it == spans.by_key.end() || traced_reads == 0
               ? 0.0
               : static_cast<double>(it->second.second) * 1e-9 / traced_reads;
  };
  const double traced_writes =
      static_cast<double>(spans.by_key["store.store.write_step"].first);
  auto per_traced_write = [&](const char* key) {
    auto it = spans.by_key.find(key);
    return it == spans.by_key.end() || traced_writes == 0
               ? 0.0
               : static_cast<double>(it->second.second) * 1e-9 / traced_writes;
  };
  const auto tr = static_cast<std::size_t>(traced_reads);
  const auto tw = static_cast<std::size_t>(traced_writes);
  out.per_layer = {
      measure_run_spawn(50),
      {"sz.huffman_decode_s", per_traced_read("sz.huffman_decode"), "s", tr},
      {"sz.dequantize_s", per_traced_read("sz.dequantize"), "s", tr},
      {"sz.lz_expand_s", per_traced_read("sz.lz_expand"), "s", tr},
      {"sz.blocks_encoded", delta("sz_blocks_encoded") / nwrites, "count", writes},
      {"sz.blocks_decoded", delta("sz_blocks_decoded") / nreads, "count", reads},
      {"h5.writes", delta("io_writes") / nwrites, "count", writes},
      {"h5.write_bytes", delta("io_write_bytes") / nwrites, "bytes", writes},
      {"h5.syncs", delta("io_syncs") / nwrites, "count", writes},
      {"sz.compress_s", per_traced_write("sz.compress"), "s", tw},
      {"h5.pwrite_s", per_traced_write("h5.pwrite"), "s", tw},
      {"h5.fsync_s", per_traced_write("h5.fsync"), "s", tw},
      {"series.read_s", per_traced_read("series.read"), "s", tr},
      {"series.decode_s", per_traced_read("series.decode"), "s", tr},
      {"store.ping_us", ping.median(), "us", ping.size()},
      {"store.read_step_ms", spans.mean_ms("store.store.read_step"), "ms", tr},
      {"store.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio", reads},
      {"store.evictions_per_read", delta("store_cache_evictions") / nreads, "ratio", reads},
      {"store.coalesced_per_read", delta("store_coalesced") / nreads, "ratio", reads},
      {"store.steps_per_batch",
       delta("store_write_batches") > 0 ? static_cast<double>(writes) / delta("store_write_batches")
                                        : 0.0,
       "count", writes},
      {"store.write_batch_ms", spans.mean_ms("store.store.write_batch"), "ms",
       static_cast<std::size_t>(spans.by_key["store.store.write_batch"].first)},
      {"store.syncs_per_write", delta("io_syncs") / nwrites, "count", writes},
      {"trace_overhead", traced_read.median() / untraced_read.median(), "ratio",
       traced_read.size()},
      {"trace.dropped", static_cast<double>(dropped), "count", 1},
  };
  return out;
}

}  // namespace perfbench
