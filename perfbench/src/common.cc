#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

void Tally::fail(const std::string& what) {
  ++attempted;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

int SpanLog::begin(const char* name, int parent, std::uint64_t op) {
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  records_.push_back(Record{name, t, t, parent, op});
  return static_cast<int>(records_.size() - 1);
}

void SpanLog::end(int index) {
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  records_[static_cast<std::size_t>(index)].end_ns = t;
}

std::vector<SpanLog::Record> SpanLog::records() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

double SpanLog::seconds(int index) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Record& r = records_[static_cast<std::size_t>(index)];
  return static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lk(mu_);
  out << "{\"spans\":[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << r.name << "\",\"op\":" << r.op
        << ",\"parent\":" << r.parent << ",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << "}" << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string span_tree_error(const std::vector<SpanLog::Record>& records, std::uint64_t op) {
  std::vector<int> spans;
  int root = -1;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].op != op) continue;
    spans.push_back(static_cast<int>(i));
    if (records[i].parent >= 0) continue;
    if (root >= 0) return "more than one root span";
    root = static_cast<int>(i);
  }
  if (root < 0) return "no root span";
  auto at = [&](int i) -> const SpanLog::Record& { return records[static_cast<std::size_t>(i)]; };
  for (int i : spans) {
    const SpanLog::Record& s = at(i);
    if (s.end_ns < s.start_ns) return std::string(s.name) + " ends before it starts";
    if (s.parent < 0) continue;
    const SpanLog::Record& p = at(s.parent);
    if (p.op != op) return std::string(s.name) + " has a parent in another operation";
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return std::string(s.name) + " lies outside its parent " + p.name;
    }
  }
  std::uint64_t self_sum = 0;
  for (int i : spans) {
    const SpanLog::Record& s = at(i);
    // Children (inside this span, as checked above) sorted by start must
    // not overlap; the time they cover is not this span's self time.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
    for (int j : spans) {
      if (at(j).parent == i) kids.emplace_back(at(j).start_ns, at(j).end_ns);
    }
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    for (std::size_t k = 0; k < kids.size(); ++k) {
      if (k > 0 && kids[k].first < kids[k - 1].second) {
        return std::string("children of ") + s.name + " overlap";
      }
      covered += kids[k].second - kids[k].first;
    }
    self_sum += (s.end_ns - s.start_ns) - covered;
  }
  const std::uint64_t wall = at(root).end_ns - at(root).start_ns;
  if (self_sum != wall) {
    return "self times sum to " + std::to_string(self_sum) + " ns, wall time is " +
           std::to_string(wall) + " ns";
  }
  return "";
}

void check_op_spans(const Config& cfg, const SpanLog& log, std::uint64_t op, Tally& tally) {
  std::vector<SpanLog::Record> records = log.records();
  if (cfg.corrupt == Corrupt::kSpan) {
    for (SpanLog::Record& r : records) {
      if (r.op == op && r.parent >= 0) {
        r.end_ns = records[static_cast<std::size_t>(r.parent)].end_ns + 1000;
        break;
      }
    }
  }
  const std::string err = op == 0 ? "no operation probed" : span_tree_error(records, op);
  tally.check(err.empty(), "spans of operation " + std::to_string(op) + ": " + err);
}

double LibSpans::seconds_per_op(const std::string& key) const {
  auto it = by_key.find(key);
  if (it == by_key.end() || ops == 0) return 0.0;
  return static_cast<double>(it->second.second) * 1e-9 / static_cast<double>(ops);
}

double LibSpans::mean_ms(const std::string& key) const {
  auto it = by_key.find(key);
  if (it == by_key.end() || it->second.first == 0) return 0.0;
  return static_cast<double>(it->second.second) * 1e-6 /
         static_cast<double>(it->second.first);
}

namespace {
// Small rings: every traced operation is harvested (and the rings
// cleared) right after it ends, and every short-lived thread that
// records a span keeps its ring for the life of the process.
constexpr std::size_t kTraceRingEvents = 4096;
}  // namespace

void trace_arm() {
  (void)pcw::configure(pcw::RuntimeOptions().with_trace_buffered().with_trace_capacity(
      kTraceRingEvents));
}

void trace_harvest(LibSpans& into, std::uint64_t& dropped, bool count_op) {
  pcw::trace_stop();
  for (const pcw::SpanStat& s : pcw::trace_span_stats()) {
    auto& slot = into.by_key[std::string(s.cat) + "." + s.name];
    slot.first += s.count;
    slot.second += s.total_ns;
  }
  dropped += pcw::metrics_snapshot().trace_dropped;
  if (count_op) ++into.ops;
  pcw::trace_reset();
}

void check_status(const pcw::Status& s) {
  if (!s.ok()) throw std::runtime_error(s.to_string());
}

pcw::Field make_field(const std::string& name, const std::vector<float>& data,
                      const pcw::Dims& local, const pcw::Dims& global, double bound) {
  return pcw::Field{name, pcw::FieldView::of(data, local), global,
                    pcw::CodecOptions().with_error_bound(bound)};
}

pcw::Telemetry telemetry_delta(const pcw::Telemetry& a, const pcw::Telemetry& b) {
  pcw::Telemetry d = a;
  d.sz_blocks_encoded -= b.sz_blocks_encoded;
  d.sz_blocks_decoded -= b.sz_blocks_decoded;
  d.io_writes -= b.io_writes;
  d.io_write_bytes -= b.io_write_bytes;
  d.io_reads -= b.io_reads;
  d.io_read_bytes -= b.io_read_bytes;
  d.io_syncs -= b.io_syncs;
  d.chain_links_decoded -= b.chain_links_decoded;
  d.store_requests -= b.store_requests;
  d.store_cache_hits -= b.store_cache_hits;
  d.store_cache_misses -= b.store_cache_misses;
  d.store_cache_evictions -= b.store_cache_evictions;
  d.store_coalesced -= b.store_coalesced;
  d.store_write_batches -= b.store_write_batches;
  return d;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

long first_violation(const float* got, const float* want, std::size_t n, double bound) {
  for (std::size_t i = 0; i < n; ++i) {
    if (bound == 0.0) {
      if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) return static_cast<long>(i);
    } else if (!(std::fabs(static_cast<double>(got[i]) - static_cast<double>(want[i])) <=
                 bound)) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void make_dir(const std::string& dir, bool fresh) {
  if (fresh) remove_tree(dir);
  std::filesystem::create_directories(dir);
}

void remove_tree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& t : pool) t.join();
}

std::vector<float> make_box(const pcw::Dims& global, const pcw::Region& box,
                            const FieldGen& gen, std::uint64_t seed) {
  std::vector<float> out(box.count());
  pcw::data::fill_nyx_field(out, box.extents(), box.lo, global, gen.field, seed, gen.time);
  return out;
}

Drift make_drift(const pcw::Dims& global, const pcw::Region& box, pcw::data::NyxField field,
                 std::uint64_t seed) {
  return {make_box(global, box, {field, 0.0}, seed), make_box(global, box, {field, 1.0}, seed)};
}

std::vector<float> drift_at(const Drift& d, std::uint32_t step, std::uint32_t steps) {
  const float a = steps > 1 ? static_cast<float>(step) / static_cast<float>(steps - 1) : 0.0f;
  std::vector<float> out(d.from.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = d.from[i] + a * (d.to[i] - d.from[i]);
  return out;
}

Slabs make_slabs(const pcw::Dims& global, int ranks, const std::vector<FieldGen>& fields,
                 std::uint64_t seed) {
  Slabs slabs(static_cast<std::size_t>(ranks),
              std::vector<std::vector<float>>(fields.size()));
  parallel_for(slabs.size() * fields.size(), [&](std::size_t i) {
    const std::size_t r = i / fields.size();
    const std::size_t f = i % fields.size();
    slabs[r][f] = make_box(global, pcw::restart_region(global, static_cast<int>(r), ranks),
                           fields[f], seed);
  });
  return slabs;
}

Metric measure_run_spawn(int reps) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    (void)pcw::run(4, [](pcw::Rank&) {});
    s.add(since_s(t0) * 1e3);
  }
  return {"mpi.run_spawn_ms", s.median(), "ms", s.size()};
}

}  // namespace perfbench
