// Shared plumbing of the repo benchmark: configuration, sample sets,
// the benchmark's own span log, library-span harvesting, correctness
// tallies and the metric lists every workload returns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "pcw/pcw.h"
#include "pcw/workloads.h"

namespace perfbench {

/// Negative tests: what a run deliberately breaks before checking it.
enum class Corrupt {
  kNone,
  kReadback,  // one read-back value moves out of its bound
  kSpan,      // the probed operation's first child span outlasts its parent
};

/// Command-line configuration of one run.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // seconds-long smoke size for the self-tests
  Corrupt corrupt = Corrupt::kNone;
  std::string data_dir;  // scratch files of this run
  std::string span_log;  // where the benchmark spans are written

  /// Set-ups per run; setup_s is their median.
  int setup_reps() const { return tiny ? 2 : 3; }
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double since_s(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// A set of timing samples; quantiles interpolate linearly.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& values() const { return v_; }

 private:
  std::vector<double> v_;
};

/// One reported number: name, value, unit and the samples behind it
/// (1 for exact counts and ratios computed once).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// Correctness bookkeeping: every attempted operation, and the failed
/// ones (an error Status or a value outside its contract).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few, for stderr

  void ok() { ++attempted; }
  void fail(const std::string& what);
  /// Counts one operation; fails it (with `what`) unless `good`.
  void check(bool good, const std::string& what) {
    if (good) {
      ok();
    } else {
      fail(what);
    }
  }
  /// Counts one operation by its Status.
  void status(const pcw::Status& s, const std::string& what) {
    check(s.ok(), what + ": " + s.to_string());
  }
};

/// The benchmark's own spans: name, start, end, parent and operation id
/// around every façade call it makes. Kept in memory, written as JSON at
/// the end of the run. Recording is always on (the cost is one clock
/// read and one vector push per façade call), so traced and untraced
/// runs pay the same.
class SpanLog {
 public:
  struct Record {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    int parent;  // index into records(), -1 for an operation root
    std::uint64_t op;
  };

  /// Opens a span; returns its index.
  int begin(const char* name, int parent, std::uint64_t op);
  void end(int index);
  std::uint64_t next_op() { return ++op_counter_; }  // thread-safe
  std::vector<Record> records() const;
  /// Duration of one closed span.
  double seconds(int index) const;
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::atomic<std::uint64_t> op_counter_{0};
};

/// RAII span on a SpanLog.
class Span {
 public:
  Span(SpanLog& log, const char* name, int parent, std::uint64_t op)
      : log_(log), index_(log.begin(name, parent, op)) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int index() const { return index_; }
  /// Closes early (idempotent); returns the span's duration in seconds.
  double close() {
    if (!closed_) {
      log_.end(index_);
      closed_ = true;
    }
    return log_.seconds(index_);
  }

 private:
  SpanLog& log_;
  int index_;
  bool closed_ = false;
};

/// Why operation `op`'s spans do not form a clean tree, or "" when they
/// do: one root; every child inside its parent's [start, end]; siblings
/// disjoint; and the self times (duration minus the time covered by
/// children) summing to the root's duration.
std::string span_tree_error(const std::vector<SpanLog::Record>& records, std::uint64_t op);

/// Counts one check of operation `op`'s spans (span_tree_error) in
/// `tally`. With Corrupt::kSpan, stretches the op's first child span past
/// its parent's end first (on a copy), so the check must fail.
void check_op_spans(const Config& cfg, const SpanLog& log, std::uint64_t op, Tally& tally);

/// Library span aggregates ("cat.name" → count, ns) accumulated over the
/// traced operations of one kind.
struct LibSpans {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_key;
  std::uint64_t ops = 0;  // traced operations folded in
  /// Seconds of span `key` per traced operation (summed over threads).
  double seconds_per_op(const std::string& key) const;
  double mean_ms(const std::string& key) const;
};

/// Library tracing around one traced operation: arm() before it,
/// harvest() after it folds the span aggregates into `into`, records any
/// ring wrap in `dropped`, and discards the buffers.
void trace_arm();
void trace_harvest(LibSpans& into, std::uint64_t& dropped, bool count_op = true);

/// Field-wise difference of two telemetry snapshots (counters only).
pcw::Telemetry telemetry_delta(const pcw::Telemetry& after, const pcw::Telemetry& before);

/// Everything a workload reports.
struct Outcome {
  std::vector<Metric> end_to_end;  // the BENCHMARK.json end_to_end names
  std::vector<Metric> named;       // the workload's own metric names (report only)
  std::vector<Metric> per_layer;   // traced runs only
  std::map<std::string, std::string> meta;  // run facts for the report
  Tally tally;
};

/// Throws std::runtime_error unless `s` is ok (set-up and rank bodies).
void check_status(const pcw::Status& s);

/// A float32 field: this rank's `local` box of `data`, bounded by `bound`.
pcw::Field make_field(const std::string& name, const std::vector<float>& data,
                      const pcw::Dims& local, const pcw::Dims& global, double bound);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Within-bound check of a decoded float array against its original;
/// bit-exact when `bound` is 0. Returns the first offending index or -1.
long first_violation(const float* got, const float* want, std::size_t n, double bound);

/// Byte-wise 64-bit FNV-1a (bit-exactness checks without keeping copies).
std::uint64_t fnv1a(const void* data, std::size_t n);

/// Creates `dir` (and parents); empties it first when `fresh`.
void make_dir(const std::string& dir, bool fresh);
void remove_tree(const std::string& dir);
std::uint64_t file_size(const std::string& path);

/// Runs fn(i) for every i in [0, n) on at most kThreads threads.
inline constexpr int kThreads = 4;
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Generator coordinates of one synthetic field.
struct FieldGen {
  pcw::data::NyxField field;
  double time = 0.0;
};

/// The values of `box` of a generated field (generators are globally
/// consistent, so any box regenerates exactly).
std::vector<float> make_box(const pcw::Dims& global, const pcw::Region& box,
                            const FieldGen& gen, std::uint64_t seed);

/// A box of a field drifting linearly from its generator state at time 0
/// to its state at time 1 (contrast grows, structures move). Step s of n
/// is the blend at s/(n-1): a series costs two generated boxes, not n.
struct Drift {
  std::vector<float> from, to;
};
Drift make_drift(const pcw::Dims& global, const pcw::Region& box, pcw::data::NyxField field,
                 std::uint64_t seed);
std::vector<float> drift_at(const Drift& d, std::uint32_t step, std::uint32_t steps);

/// [rank][field] slabs of a global field set, cut as pcw::restart_region
/// cuts it, so each rank's slice is a contiguous run of the global array
/// and the stored dataset equals the generated field.
using Slabs = std::vector<std::vector<std::vector<float>>>;
Slabs make_slabs(const pcw::Dims& global, int ranks, const std::vector<FieldGen>& fields,
                 std::uint64_t seed);

// The three workloads.
Outcome run_snapshot_write(const Config& cfg, SpanLog& log);
Outcome run_restart_read(const Config& cfg, SpanLog& log);
Outcome run_serve_mixed(const Config& cfg, SpanLog& log);

/// Empty pcw::run(4) spawn cost in ms (median of `reps`), for mpi.run_spawn_ms.
Metric measure_run_spawn(int reps);

}  // namespace perfbench
