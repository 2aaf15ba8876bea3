// Process-wide metrics registry: named counters, level gauges with
// high-water marks, and log2-bucketed histograms, all relaxed atomics.
// Always on — an uncontended relaxed fetch_add per block/syscall-grained
// event is noise next to the work it counts, so there is no arming knob;
// hot inner loops accumulate locally and add once per block.
//
// snapshot() returns a plain struct (mirrored publicly as
// pcw::Telemetry); reset() zeroes everything (CLI --stats, tests).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pcw::util::metrics {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Level gauge (e.g. async-queue depth) with a monotone high-water mark.
class Gauge {
 public:
  void add(std::int64_t delta) noexcept {
    const std::int64_t now = v_.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (delta > 0) {
      std::uint64_t hi = hi_.load(std::memory_order_relaxed);
      const auto unow = static_cast<std::uint64_t>(now < 0 ? 0 : now);
      while (unow > hi &&
             !hi_.compare_exchange_weak(hi, unow, std::memory_order_relaxed)) {
      }
    }
  }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  std::uint64_t hiwater() const noexcept { return hi_.load(std::memory_order_relaxed); }
  void reset() noexcept {
    v_.store(0, std::memory_order_relaxed);
    hi_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::uint64_t> hi_{0};
};

/// Log2-bucketed histogram of u64 samples (latencies in ns, sizes in
/// bytes): bucket b counts samples with bit_width == b.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t v) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Upper bound of the bucket holding quantile q in [0, 1] (0 if empty).
  std::uint64_t quantile_bound(double q) const noexcept {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += buckets_[b].load(std::memory_order_relaxed);
      if (seen > rank) {
        return b >= 63 ? UINT64_MAX : (std::uint64_t{1} << (b + 1)) - 1;
      }
    }
    return UINT64_MAX;
  }
  void reset() noexcept {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  static std::size_t bucket_of(std::uint64_t v) noexcept {
    std::size_t b = 0;
    while (v > 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

/// The process-wide registry. Members are the metric taxonomy (see
/// docs/observability.md for the name table surfaced through pcw::).
struct Registry {
  // sz codec pipeline
  Counter sz_bytes_in;         // raw bytes entering compress()
  Counter sz_bytes_out;        // container bytes leaving compress()
  Counter sz_blocks_encoded;   // blocks through quantize+huffman encode
  Counter sz_blocks_decoded;   // blocks entropy-decoded (full or region)
  Counter sz_temporal_blocks;  // encoded blocks that chose the temporal path
  Counter sz_outliers;         // unpredictable values stored verbatim
  Counter sz_huffman_symbols;  // symbols through the Huffman tables (probes)
  // h5 I/O + async queue
  Counter io_writes;
  Counter io_write_bytes;
  Counter io_reads;
  Counter io_read_bytes;
  Counter io_syncs;
  Counter io_write_retries;   // transient-failure retries on the async queue
  Counter io_async_enqueues;  // async_write submissions (reads are synchronous)
  Gauge io_queue_depth;       // in-flight async ops (value + high-water)
  Histogram io_write_ns;      // per-pwrite latency
  // fault injection (util::fault): ops observed while a plan was armed
  Counter fault_writes;
  Counter fault_reads;
  Counter fault_syncs;
  Counter fault_fired;  // plans that actually fired
  // engine / series
  Counter engine_writes;        // write_fields calls
  Counter series_steps;         // SeriesWriter steps
  Counter chain_links_decoded;  // restart-chain links decoded
  Counter degraded_reads;       // keyframe fallbacks taken
  // store (the pcwd checkpoint-store service, src/store)
  Counter store_requests;         // protocol requests served
  Counter store_cache_hits;       // decoded-block cache hits
  Counter store_cache_misses;     // cache misses that became decodes
  Counter store_cache_evictions;  // entries evicted under the byte budget
  Counter store_coalesced;        // readers that joined an in-flight decode
  Counter store_write_batches;    // group commits admitting >=1 WRITE_STEP
  Gauge store_cache_bytes;        // bytes resident in the cache (+ hiwater)
  Gauge store_active_clients;     // connected clients (+ hiwater)

  static Registry& get() noexcept {
    static Registry r;
    return r;
  }
};

/// Plain-struct snapshot of every registry member (the internal mirror
/// of pcw::Telemetry).
struct Snapshot {
  std::uint64_t sz_bytes_in = 0;
  std::uint64_t sz_bytes_out = 0;
  std::uint64_t sz_blocks_encoded = 0;
  std::uint64_t sz_blocks_decoded = 0;
  std::uint64_t sz_temporal_blocks = 0;
  std::uint64_t sz_outliers = 0;
  std::uint64_t sz_huffman_symbols = 0;
  std::uint64_t io_writes = 0;
  std::uint64_t io_write_bytes = 0;
  std::uint64_t io_reads = 0;
  std::uint64_t io_read_bytes = 0;
  std::uint64_t io_syncs = 0;
  std::uint64_t io_write_retries = 0;
  std::uint64_t io_async_enqueues = 0;
  std::uint64_t io_queue_depth = 0;
  std::uint64_t io_queue_hiwater = 0;
  std::uint64_t io_write_p50_ns = 0;
  std::uint64_t io_write_p99_ns = 0;
  std::uint64_t fault_writes = 0;
  std::uint64_t fault_reads = 0;
  std::uint64_t fault_syncs = 0;
  std::uint64_t fault_fired = 0;
  std::uint64_t engine_writes = 0;
  std::uint64_t series_steps = 0;
  std::uint64_t chain_links_decoded = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t store_requests = 0;
  std::uint64_t store_cache_hits = 0;
  std::uint64_t store_cache_misses = 0;
  std::uint64_t store_cache_evictions = 0;
  std::uint64_t store_coalesced = 0;
  std::uint64_t store_write_batches = 0;
  std::uint64_t store_cache_bytes = 0;
  std::uint64_t store_cache_hiwater = 0;
  std::uint64_t store_active_clients = 0;
  std::uint64_t store_clients_hiwater = 0;
  std::uint64_t trace_spans = 0;
  std::uint64_t trace_dropped = 0;
};

Snapshot snapshot();
void reset();

}  // namespace pcw::util::metrics
