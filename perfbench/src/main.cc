// perfbench — the repo benchmark. One process drives the public pcw
// façade through one of three workloads, each loading a different layer:
//
//   snapshot-write  checkpoint write through all four WriteModes (sz, h5, engine)
//   restart-read    repartitioned restart, region and mid-chain reads (decode side)
//   serve-mixed     an in-process pcwd server under Zipf reads plus writes (store)
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--data-dir DIR] [--tiny] [--corrupt readback|span]
//
// The last stdout line is one JSON object: correct/attempted/failed and,
// with --trace 0, the end-to-end metrics; with --trace 1 the per-layer
// metrics. The lines before it report every metric under the workload's
// own names with units and sample counts, plus host and run facts.
#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "pcw/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;

struct LayerName {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order. A workload reports the ones
// its layers produce; the rest print as 0 with 0 samples (the layer did
// no work in that workload).
const LayerName kLayerMetrics[] = {
    {"mpi.run_spawn_ms", "ms"},          {"mpi.exchange_s", "s"},
    {"mpi.rank_skew_s", "s"},            {"model.predict_s", "s"},
    {"model.size_error", "ratio"},       {"model.overflow_partitions", "count"},
    {"sz.compress_s", "s"},              {"sz.compress_mbps", "MB/s"},
    {"sz.quantize_s", "s"},              {"sz.huffman_encode_s", "s"},
    {"sz.lz_s", "s"},                    {"sz.decompress_s", "s"},
    {"sz.decode_mbps", "MB/s"},          {"sz.huffman_decode_s", "s"},
    {"sz.dequantize_s", "s"},            {"sz.lz_expand_s", "s"},
    {"sz.blocks_encoded", "count"},      {"sz.blocks_decoded", "count"},
    {"engine.write_exposed_s", "s"},     {"engine.overflow_s", "s"},
    {"engine.reserved_per_actual", "ratio"}, {"h5.create_ms", "ms"},
    {"h5.commit_s", "s"},                {"h5.close_s", "s"},
    {"h5.raw_write_s", "s"},             {"h5.filter_write_s", "s"},
    {"h5.pwrite_s", "s"},                {"h5.fsync_s", "s"},
    {"h5.writes", "count"},              {"h5.write_bytes", "bytes"},
    {"h5.syncs", "count"},               {"h5.open_ms", "ms"},
    {"h5.read_s", "s"},                  {"h5.read_bytes", "bytes"},
    {"read.plan_s", "s"},                {"read.payload_wait_s", "s"},
    {"read.region_blocks_ratio", "ratio"}, {"read.region_bytes", "bytes"},
    {"series.links_per_read", "count"},  {"series.chain_blocks_ratio", "ratio"},
    {"series.read_s", "s"},              {"series.decode_s", "s"},
    {"store.ping_us", "us"},             {"store.read_step_ms", "ms"},
    {"store.hit_ratio", "ratio"},        {"store.evictions_per_read", "ratio"},
    {"store.coalesced_per_read", "ratio"}, {"store.steps_per_batch", "count"},
    {"store.write_batch_ms", "ms"},      {"store.syncs_per_write", "count"},
    {"trace_overhead", "ratio"},         {"trace.dropped", "count"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload snapshot-write|restart-read|"
               "serve-mixed --seed N --seconds S --trace 0|1 [--data-dir DIR] [--tiny] "
               "[--corrupt readback|span]\n",
               msg);
  std::exit(2);
}

perfbench::Config parse(int argc, char** argv) {
  perfbench::Config cfg;
  cfg.data_dir = ".bench_build/data";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = value() == "1";
    } else if (a == "--data-dir") {
      cfg.data_dir = value();
    } else if (a == "--tiny") {
      cfg.tiny = true;
    } else if (a == "--corrupt") {
      const std::string what = value();
      if (what == "readback") {
        cfg.corrupt = perfbench::Corrupt::kReadback;
      } else if (what == "span") {
        cfg.corrupt = perfbench::Corrupt::kSpan;
      } else {
        usage(("unknown --corrupt " + what).c_str());
      }
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (cfg.workload.empty()) usage("--workload is required");
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");
  cfg.span_log = cfg.data_dir + "-spans.json";
  return cfg;
}

std::string fs_name(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_metrics(const char* tag, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-7s %-28s %16.6g %-6s n=%zu\n", tag, m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg = parse(argc, argv);
  // Fixed mmap and trim thresholds, as bench/bench_kernels.cc sets them.
  // glibc's adaptive threshold otherwise lets timing decide whether a
  // multi-MiB buffer is mapped fresh or reused from an arena, which moved
  // serve-mixed's peak RSS by 11% between runs. Arenas keep glibc's default.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  perfbench::SpanLog log;
  perfbench::Outcome out;
  perfbench::make_dir(cfg.data_dir, true);
  const std::string fs = fs_name(cfg.data_dir);

  if (cfg.workload == "snapshot-write") {
    out = perfbench::run_snapshot_write(cfg, log);
  } else if (cfg.workload == "restart-read") {
    out = perfbench::run_restart_read(cfg, log);
  } else if (cfg.workload == "serve-mixed") {
    out = perfbench::run_serve_mixed(cfg, log);
  } else {
    usage(("unknown workload " + cfg.workload).c_str());
  }
  if (cfg.trace && !log.write_json(cfg.span_log)) {
    out.tally.fail("cannot write span log " + cfg.span_log);
  }
  perfbench::remove_tree(cfg.data_dir);

  // ---- host and run facts ----
  namespace util = pcw::util;
  const char* simd_env = std::getenv("PCW_SIMD");
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  const bool optimized = build_type != "Debug";
#else
  const bool optimized = false;
#endif
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  out.meta["workload"] = cfg.workload;
  out.meta["seed"] = std::to_string(cfg.seed);
  out.meta["seconds"] = json_number(cfg.seconds);
  out.meta["trace"] = cfg.trace ? "1" : "0";
  out.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  out.meta["simd_detected"] = util::simd_name(util::simd_detected());
  out.meta["simd_active"] = util::simd_name(util::simd_active());
  out.meta["PCW_SIMD"] = simd_env != nullptr ? simd_env : "";
  out.meta["build_type"] = build_type;
  out.meta["optimized_build"] = optimized ? "yes" : "NO (timings not representative)";
  out.meta["data_fs"] = fs;
  out.meta["flush_policy"] =
      "commit = fsync after every checkpoint and every write batch, the same in every mode";
  out.meta["l2_bytes"] = std::to_string(l2);
  out.meta["l3_bytes"] = std::to_string(l3);
  out.meta["setup_reps"] = std::to_string(cfg.setup_reps());
  if (!optimized) std::fprintf(stderr, "perfbench: WARNING: non-optimized build\n");

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0,
              cfg.tiny ? " (tiny)" : "");
  std::string meta = "{";
  for (const auto& [k, v] : out.meta) {
    if (meta.size() > 1) meta += ",";
    meta += json_string(k) + ":" + json_string(v);
  }
  std::printf("meta %s}\n", meta.c_str());
  print_metrics("named", out.named);

  // The reported metric set: end-to-end, or every per-layer name.
  std::vector<Metric> reported;
  if (!cfg.trace) {
    reported = out.end_to_end;
  } else {
    for (const LayerName& l : kLayerMetrics) {
      Metric m{l.name, 0.0, l.unit, 0};
      for (const Metric& have : out.per_layer) {
        if (have.name == l.name) m = have;
      }
      reported.push_back(m);
    }
  }
  print_metrics(cfg.trace ? "layer" : "e2e", reported);
  for (const std::string& e : out.tally.errors) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
  }

  const perfbench::Tally& t = out.tally;
  std::printf("ops_total=%llu ops_failed=%llu\n",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  std::string json = "{\"correct\": ";
  json += t.failed == 0 && t.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(t.attempted, 1));
  json += ", \"failed\": " + std::to_string(t.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    if (i) json += ", ";
    json += json_string(reported[i].name) + ": {\"value\": " +
            json_number(reported[i].value) + ", \"unit\": " + json_string(reported[i].unit) +
            "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
