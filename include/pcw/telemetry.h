// pcw public API — observability: the metrics registry snapshot and the
// tracing control plane.
//
// The library is instrumented unconditionally. Metrics (counters, queue
// gauges, latency percentiles) are always on — an uncontended relaxed
// atomic per block/syscall-grained event — and snapshot into the plain
// Telemetry struct below. Tracing (scoped spans over every pipeline
// stage: sz quantize/huffman/lz per block, the h5 async write queue,
// the engines' per-step phases) is dormant until armed, either here via
// RuntimeOptions or by the PCW_TRACE=<path>[:cap=<n>] environment
// variable; armed traces export as Chrome trace-event JSON loadable in
// Perfetto or chrome://tracing.
//
// Writer, Reader, and SeriesWriter each expose telemetry() — the
// process-wide delta since that handle was created — while
// metrics_snapshot() reads the absolute process-wide totals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pcw/status.h"

namespace pcw {

/// Plain snapshot of every process-wide metric. Counters are cumulative
/// since process start (or the last metrics_reset()); *_p50/_p99 are
/// log2-bucket upper bounds over all samples so far; io_queue_depth is
/// the instantaneous async-queue level and io_queue_hiwater its peak.
struct Telemetry {
  // sz codec pipeline
  std::uint64_t sz_bytes_in = 0;         // raw bytes entering compress()
  std::uint64_t sz_bytes_out = 0;        // container bytes leaving compress()
  std::uint64_t sz_blocks_encoded = 0;   // blocks quantized + entropy-coded
  std::uint64_t sz_blocks_decoded = 0;   // blocks entropy-decoded
  std::uint64_t sz_temporal_blocks = 0;  // encoded blocks on the temporal path
  std::uint64_t sz_outliers = 0;         // unpredictable values stored verbatim
  std::uint64_t sz_huffman_symbols = 0;  // symbols through the Huffman tables
  // h5 I/O + async queue
  std::uint64_t io_writes = 0;
  std::uint64_t io_write_bytes = 0;
  std::uint64_t io_reads = 0;
  std::uint64_t io_read_bytes = 0;
  std::uint64_t io_syncs = 0;
  std::uint64_t io_write_retries = 0;
  std::uint64_t io_async_enqueues = 0;  // async_write submissions
  std::uint64_t io_queue_depth = 0;
  std::uint64_t io_queue_hiwater = 0;
  std::uint64_t io_write_p50_ns = 0;
  std::uint64_t io_write_p99_ns = 0;
  // fault injection (PCW_FAULT): ops observed while a plan was armed
  std::uint64_t fault_writes = 0;
  std::uint64_t fault_reads = 0;
  std::uint64_t fault_syncs = 0;
  std::uint64_t fault_fired = 0;
  // engine / series
  std::uint64_t engine_writes = 0;
  std::uint64_t series_steps = 0;
  std::uint64_t chain_links_decoded = 0;
  std::uint64_t degraded_reads = 0;
  // checkpoint-store service (pcwd)
  std::uint64_t store_requests = 0;         // protocol requests served
  std::uint64_t store_cache_hits = 0;       // decoded-block cache hits
  std::uint64_t store_cache_misses = 0;     // misses that became decodes
  std::uint64_t store_cache_evictions = 0;  // evictions under the byte budget
  std::uint64_t store_coalesced = 0;        // readers joining an in-flight decode
  std::uint64_t store_write_batches = 0;    // group commits of admitted writes
  std::uint64_t store_cache_bytes = 0;      // bytes resident in the cache
  std::uint64_t store_cache_hiwater = 0;    // peak resident bytes
  std::uint64_t store_active_clients = 0;   // currently connected clients
  std::uint64_t store_clients_hiwater = 0;  // peak concurrent clients
  // tracing
  std::uint64_t trace_spans = 0;    // events recorded since arming
  std::uint64_t trace_dropped = 0;  // of those, lost to ring wrap
};

/// One (name, value) row of a Telemetry — the iteration order the CLIs'
/// --stats tables print in.
struct TelemetryItem {
  const char* name;
  std::uint64_t value;
};

/// Absolute process-wide totals.
Telemetry metrics_snapshot();

/// Zeroes every metric (tests, CLI sessions). Does not touch the trace
/// buffers — use trace_reset() for those.
void metrics_reset();

/// Flattens a snapshot into named rows, in the declaration order above.
std::vector<TelemetryItem> telemetry_items(const Telemetry& t);

/// Process-wide runtime knobs, builder-style like the other *Options.
struct RuntimeOptions {
  /// Arm tracing and flush the Chrome trace-event JSON to this path at
  /// process exit (same effect as PCW_TRACE=<path>). Empty = leave
  /// tracing as it is.
  std::string trace_path;
  /// Arm tracing with no exit flush: events stay buffered for
  /// flush_trace() / trace_span_stats().
  bool trace_buffered = false;
  /// Per-thread ring capacity in events (0 = keep the default, 32768).
  /// Rings wrap, dropping oldest; Telemetry::trace_dropped counts them.
  std::size_t trace_capacity = 0;

  RuntimeOptions& with_trace(std::string path) {
    trace_path = std::move(path);
    return *this;
  }
  RuntimeOptions& with_trace_buffered(bool on = true) {
    trace_buffered = on;
    return *this;
  }
  RuntimeOptions& with_trace_capacity(std::size_t events) {
    trace_capacity = events;
    return *this;
  }
};

/// Applies the runtime knobs (arming tracing as requested). Safe to call
/// more than once; later calls win.
Status configure(const RuntimeOptions& options);

/// true while spans are being collected (armed via configure(), a bench
/// harness, or PCW_TRACE).
bool tracing_active();

/// Stops tracing and writes the buffered events as Chrome trace-event
/// JSON to `path` (empty = the path configure()/PCW_TRACE registered).
/// Events are kept for a second flush; trace_reset() discards them.
Status flush_trace(const std::string& path = "");

/// Stops collecting spans; buffered events are kept.
void trace_stop();

/// Stops collecting and discards every buffered event.
void trace_reset();

/// Aggregate per-span-site view of the buffered events: count and total
/// wall time per distinct (category, name) — what the CLIs' --stats
/// print when tracing was active.
struct SpanStat {
  const char* name;
  const char* cat;
  std::uint64_t count;
  std::uint64_t total_ns;
};
std::vector<SpanStat> trace_span_stats();

}  // namespace pcw
