// pcwd server: accept loop, thread-per-client service loop, and the
// request dispatch gluing the protocol to the catalog and cache.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <thread>

#include "pcw/series.h"
#include "pcw/store.h"
#include "pcw/telemetry.h"
#include "store/cache.h"
#include "store/catalog.h"
#include "store/protocol.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pcw::store {

namespace metrics = util::metrics;

namespace {

RemoteDataset to_remote(const DatasetInfo& info) {
  RemoteDataset d;
  d.name = info.name;
  d.dtype = info.dtype;
  d.dims = info.dims;
  d.filter_id = info.filter_id;
  d.stored_bytes = info.stored_bytes;
  d.partitions = static_cast<std::uint32_t>(info.partitions.size());
  d.series_member = info.series_member;
  d.series_base = info.series_base;
  d.series_step = info.series_step;
  d.series_ref_step = info.series_ref_step;
  return d;
}

/// Row-major copy of `region` out of a whole-field buffer with extents
/// `dims` (the cache's keyframe-reconstruction reuse: a resident whole
/// step serves any sparse region of it without another decode).
CachedValue slice_region(const CachedValue& whole, const Region& region) {
  CachedValue out;
  out.dtype = whole.dtype;
  out.extents = region.extents();
  const std::size_t elem = element_size(whole.dtype);
  const Dims& dims = whole.extents;
  out.bytes.resize(region.count() * elem);
  const std::size_t row = (region.hi[2] - region.lo[2]) * elem;
  std::size_t dst = 0;
  for (std::size_t i0 = region.lo[0]; i0 < region.hi[0]; ++i0) {
    for (std::size_t i1 = region.lo[1]; i1 < region.hi[1]; ++i1) {
      const std::size_t src =
          ((i0 * dims.d1 + i1) * dims.d2 + region.lo[2]) * elem;
      std::memcpy(out.bytes.data() + dst, whole.bytes.data() + src, row);
      dst += row;
    }
  }
  return out;
}

bool region_within(const Region& region, const Dims& dims) {
  return !region.empty() && region.hi[0] <= dims.d0 && region.hi[1] <= dims.d1 &&
         region.hi[2] <= dims.d2;
}

std::array<std::uint64_t, 6> box_of(const std::optional<Region>& region) {
  std::array<std::uint64_t, 6> box{};
  if (region.has_value()) {
    for (int i = 0; i < 3; ++i) box[static_cast<std::size_t>(i)] = region->lo[static_cast<std::size_t>(i)];
    for (int i = 0; i < 3; ++i) box[static_cast<std::size_t>(i) + 3] = region->hi[static_cast<std::size_t>(i)];
  }
  return box;
}

}  // namespace

struct Server::Impl {
  StoreOptions options;
  Address addr;
  int listen_fd = -1;
  Catalog catalog;
  BlockCache cache;

  std::thread accept_thread;
  std::atomic<bool> stopping{false};

  struct Conn {
    int fd = -1;
    std::thread worker;
    std::atomic<bool> finished{false};
  };
  std::mutex conns_mu;
  std::vector<std::unique_ptr<Conn>> conns;

  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop_requested = false;
  bool stopped = false;
  Status stop_status = Status::Ok();

  Impl(StoreOptions opts)
      : options(opts),
        catalog(opts.reader),
        cache(opts.cache_bytes, opts.cache_shards) {}

  void accept_loop();
  void serve_client(Conn* conn);
  Result<std::vector<std::uint8_t>> dispatch(std::uint8_t op,
                                             const std::vector<std::uint8_t>& payload,
                                             bool* want_shutdown);

  Result<std::vector<std::uint8_t>> handle_open(WireReader& req);
  Result<std::vector<std::uint8_t>> handle_list(WireReader& req);
  Result<std::vector<std::uint8_t>> handle_read(WireReader& req, bool series_step);
  Result<std::vector<std::uint8_t>> handle_write_step(WireReader& req);
  Result<std::vector<std::uint8_t>> handle_scrub(WireReader& req);
  Result<std::vector<std::uint8_t>> handle_stats();

  void request_stop() {
    {
      std::lock_guard<std::mutex> lk(stop_mu);
      stop_requested = true;
    }
    stop_cv.notify_all();
  }
};

void Server::Impl::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (stop) or fatal: either way, stop accepting
    }
    if (stopping.load()) {
      ::close(fd);
      continue;
    }
    // Reap finished connections so a long-lived server does not
    // accumulate joinable threads. The Conn owns its fd: it is closed
    // here (or in stop()), strictly after the worker has been joined.
    std::lock_guard<std::mutex> lk(conns_mu);
    for (auto it = conns.begin(); it != conns.end();) {
      if ((*it)->finished.load()) {
        (*it)->worker.join();
        ::close((*it)->fd);
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    conn->worker = std::thread([this, raw] { serve_client(raw); });
    conns.push_back(std::move(conn));
  }
}

void Server::Impl::serve_client(Conn* conn) {
  metrics::Registry::get().store_active_clients.add(1);
  std::vector<std::uint8_t> payload;
  bool want_shutdown = false;
  for (;;) {
    std::uint8_t op = 0;
    try {
      if (!read_frame(conn->fd, &op, &payload)) break;  // clean EOF
    } catch (const std::exception&) {
      break;  // torn frame or dead socket: nothing sane to reply to
    }
    metrics::Registry::get().store_requests.add(1);
    Result<std::vector<std::uint8_t>> reply = dispatch(op, payload, &want_shutdown);
    try {
      if (reply.ok()) {
        write_frame(conn->fd, 0, reply.value());
      } else {
        WireWriter w;
        w.str(reply.status().message());
        const std::vector<std::uint8_t> body = w.take();
        write_frame(conn->fd, static_cast<std::uint8_t>(reply.status().code()), body);
      }
    } catch (const std::exception&) {
      break;  // peer vanished mid-reply
    }
    if (want_shutdown) break;
  }
  // The fd stays open until the owner joins this thread: stop() may be
  // concurrently ::shutdown()-ing it, which must never hit a recycled fd.
  metrics::Registry::get().store_active_clients.add(-1);
  if (want_shutdown) request_stop();
  conn->finished.store(true);
}

Result<std::vector<std::uint8_t>> Server::Impl::dispatch(
    std::uint8_t op, const std::vector<std::uint8_t>& payload, bool* want_shutdown) {
  util::trace::Span span(op_name(op), "store");
  WireReader req{std::span<const std::uint8_t>(payload)};
  try {
    switch (static_cast<Op>(op)) {
      case Op::kOpen: return handle_open(req);
      case Op::kList: return handle_list(req);
      case Op::kReadRegion: return handle_read(req, /*series_step=*/false);
      case Op::kReadStep: return handle_read(req, /*series_step=*/true);
      case Op::kWriteStep: return handle_write_step(req);
      case Op::kScrub: return handle_scrub(req);
      case Op::kStats: return handle_stats();
      case Op::kPing: return std::vector<std::uint8_t>{};
      case Op::kShutdown:
        *want_shutdown = true;
        return std::vector<std::uint8_t>{};
    }
    return Status(StatusCode::kInvalidArgument,
                  "store: unknown opcode " + std::to_string(op));
  } catch (const std::exception& e) {
    // Truncated payloads and other parse failures land here.
    return Status(StatusCode::kInvalidArgument, std::string("store: ") + e.what());
  }
}

Result<std::vector<std::uint8_t>> Server::Impl::handle_open(WireReader& req) {
  const std::string path = req.str();
  const auto mode = static_cast<OpenMode>(req.u8());
  if (mode != OpenMode::kRead && mode != OpenMode::kCreate) {
    return Status(StatusCode::kInvalidArgument, "store: bad open mode");
  }
  Result<std::shared_ptr<FileEntry>> entry = catalog.open(path, mode);
  if (!entry.ok()) return entry.status();
  const FileEntry& e = *entry.value();
  std::uint32_t datasets = 0;
  if (Result<std::shared_ptr<Reader>> snap = e.snapshot(); snap.ok()) {
    datasets = static_cast<std::uint32_t>(snap.value()->datasets().size());
  }
  WireWriter w;
  w.u32(e.id());
  w.str(e.path());
  w.u8(e.writable() ? 1 : 0);
  w.u64(e.generation());
  w.u32(datasets);
  return w.take();
}

Result<std::vector<std::uint8_t>> Server::Impl::handle_list(WireReader& req) {
  const std::uint32_t file_id = req.u32();
  WireWriter w;
  if (file_id == 0) {  // whole-catalog listing: file records
    const auto entries = catalog.entries();
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) {
      std::uint32_t datasets = 0;
      if (Result<std::shared_ptr<Reader>> snap = e->snapshot(); snap.ok()) {
        datasets = static_cast<std::uint32_t>(snap.value()->datasets().size());
      }
      w.u32(e->id());
      w.str(e->path());
      w.u8(e->writable() ? 1 : 0);
      w.u64(e->generation());
      w.u32(datasets);
    }
    return w.take();
  }
  Result<std::shared_ptr<FileEntry>> entry = catalog.find(file_id);
  if (!entry.ok()) return entry.status();
  Result<std::shared_ptr<Reader>> snap = entry.value()->snapshot();
  if (!snap.ok()) return snap.status();
  const std::vector<DatasetInfo> infos = snap.value()->datasets();
  w.u32(static_cast<std::uint32_t>(infos.size()));
  for (const DatasetInfo& info : infos) put_dataset(w, to_remote(info));
  return w.take();
}

Result<std::vector<std::uint8_t>> Server::Impl::handle_read(WireReader& req,
                                                            bool series_step) {
  const std::uint32_t file_id = req.u32();
  const std::string name = req.str();
  const std::uint32_t step = series_step ? req.u32() : 0;
  const std::optional<Region> region = req.region();
  const std::uint8_t expected = req.u8();

  Result<std::shared_ptr<FileEntry>> found = catalog.find(file_id);
  if (!found.ok()) return found.status();
  FileEntry& entry = *found.value();

  // Shared lock on the dataset's shard for the whole read: a write batch
  // touching this field waits, and vice versa.
  std::shared_lock<std::shared_mutex> lock = entry.lock_read(name);
  Result<std::shared_ptr<Reader>> snap = entry.snapshot();
  if (!snap.ok()) return snap.status();
  std::shared_ptr<Reader> reader = snap.value();

  Result<DatasetInfo> info = series_step ? reader->series_step(name, step)
                                         : reader->dataset(name);
  if (!info.ok()) return info.status();
  const DType dtype = expected == kDTypeAny ? info.value().dtype
                                            : static_cast<DType>(expected);

  CacheKey key;
  key.file_id = file_id;
  key.kind = series_step ? 1 : 0;
  key.step = step;
  key.dtype = static_cast<std::uint8_t>(dtype);
  key.name = name;
  key.box = box_of(region);

  std::shared_ptr<const CachedValue> value;
  if (region.has_value()) {
    // Exact-region entry, else slice a resident whole-field/step decode
    // (keyframe reconstruction reuse), else decode just the region.
    value = cache.lookup(key);
    if (value == nullptr && region_within(*region, info.value().dims)) {
      CacheKey whole = key;
      whole.box = {};
      if (std::shared_ptr<const CachedValue> all = cache.lookup(whole)) {
        value = std::make_shared<const CachedValue>(slice_region(*all, *region));
      }
    }
  }
  if (value == nullptr) {
    const Dims extents = region.has_value() ? region->extents() : info.value().dims;
    auto fill = [&]() -> Result<CachedValue> {
      Result<std::vector<std::uint8_t>> bytes =
          series_step
              ? restart_bytes(*reader, name, step, dtype, region,
                              SeriesReadOptions())
              : (region.has_value()
                     ? reader->read_region_bytes(name, *region, dtype)
                     : reader->read_bytes(name, dtype));
      if (!bytes.ok()) return bytes.status();
      CachedValue v;
      v.dtype = dtype;
      v.extents = extents;
      v.bytes = std::move(bytes).value();
      return v;
    };
    Result<std::shared_ptr<const CachedValue>> filled = cache.get_or_fill(key, fill);
    if (!filled.ok()) return filled.status();
    value = std::move(filled).value();
  }

  WireWriter w;
  w.u8(static_cast<std::uint8_t>(value->dtype));
  w.u64(value->extents.d0);
  w.u64(value->extents.d1);
  w.u64(value->extents.d2);
  w.blob(value->bytes);
  return w.take();
}

Result<std::vector<std::uint8_t>> Server::Impl::handle_write_step(WireReader& req) {
  const std::uint32_t file_id = req.u32();
  auto pending = std::make_unique<PendingWrite>();
  pending->field = req.str();
  pending->dtype = static_cast<DType>(req.u8());
  pending->dims.d0 = static_cast<std::size_t>(req.u64());
  pending->dims.d1 = static_cast<std::size_t>(req.u64());
  pending->dims.d2 = static_cast<std::size_t>(req.u64());
  pending->error_bound = req.f64();
  pending->keyframe_interval = req.u32();
  pending->data = req.blob();
  if (pending->dtype != DType::kFloat32 && pending->dtype != DType::kFloat64) {
    return Status(StatusCode::kInvalidArgument,
                  "store: write_step dtype must be float32 or float64");
  }

  Result<std::shared_ptr<FileEntry>> found = catalog.find(file_id);
  if (!found.ok()) return found.status();
  Result<RemoteStep> step = found.value()->submit_write(std::move(pending));
  if (!step.ok()) return step.status();
  WireWriter w;
  w.u32(step.value().step);
  w.u8(step.value().keyframe ? 1 : 0);
  w.u64(step.value().generation);
  return w.take();
}

Result<std::vector<std::uint8_t>> Server::Impl::handle_scrub(WireReader& req) {
  const std::uint32_t file_id = req.u32();
  const bool deep = req.u8() != 0;
  Result<std::shared_ptr<FileEntry>> found = catalog.find(file_id);
  if (!found.ok()) return found.status();
  FileEntry& entry = *found.value();
  // Scrub holds every shard shared: it tolerates concurrent readers but
  // never overlaps a write batch's commit window.
  const auto locks = entry.lock_read_all();
  Result<std::shared_ptr<Reader>> snap = entry.snapshot();
  if (!snap.ok()) return snap.status();
  Result<ScrubReport> report = snap.value()->scrub(deep);
  if (!report.ok()) return report.status();
  WireWriter w;
  put_scrub(w, report.value());
  return w.take();
}

Result<std::vector<std::uint8_t>> Server::Impl::handle_stats() {
  const Telemetry t = pcw::metrics_snapshot();
  const std::vector<TelemetryItem> items = telemetry_items(t);
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const TelemetryItem& item : items) {
    w.str(item.name);
    w.u64(item.value);
  }
  return w.take();
}

// ---- public handle ---------------------------------------------------------

Result<Server> Server::start(const std::string& address, StoreOptions options) {
  auto impl = std::make_shared<Impl>(options);
  try {
    impl->addr = parse_address(address);
    impl->listen_fd = listen_on(impl->addr);
  } catch (const std::exception& e) {
    return Status(StatusCode::kIoError, e.what());
  }
  impl->accept_thread = std::thread([impl] { impl->accept_loop(); });
  Server server;
  server.impl_ = std::move(impl);
  return server;
}

std::string Server::address() const {
  if (impl_ == nullptr) return {};
  return to_spec(impl_->addr);
}

void Server::wait() {
  if (impl_ == nullptr) return;
  std::unique_lock<std::mutex> lk(impl_->stop_mu);
  impl_->stop_cv.wait(lk, [&] { return impl_->stop_requested || impl_->stopped; });
}

bool Server::wait_for_ms(unsigned ms) {
  if (impl_ == nullptr) return true;
  std::unique_lock<std::mutex> lk(impl_->stop_mu);
  return impl_->stop_cv.wait_for(lk, std::chrono::milliseconds(ms), [&] {
    return impl_->stop_requested || impl_->stopped;
  });
}

Status Server::stop() {
  if (impl_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "store: invalid server handle");
  }
  Impl& s = *impl_;
  {
    std::lock_guard<std::mutex> lk(s.stop_mu);
    if (s.stopped) return s.stop_status;
  }
  s.stopping.store(true);
  // Closing the listener makes accept() fail, ending the accept loop.
  ::shutdown(s.listen_fd, SHUT_RDWR);
  ::close(s.listen_fd);
  if (s.accept_thread.joinable()) s.accept_thread.join();
  // Kick every live client off its blocking read, then join.
  {
    std::lock_guard<std::mutex> lk(s.conns_mu);
    for (auto& conn : s.conns) {
      if (!conn->finished.load()) ::shutdown(conn->fd, SHUT_RDWR);
    }
    for (auto& conn : s.conns) {
      if (conn->worker.joinable()) conn->worker.join();
      ::close(conn->fd);
    }
    s.conns.clear();
  }
  Status status = s.catalog.close_all();
  if (!s.addr.tcp) ::unlink(s.addr.path.c_str());
  {
    std::lock_guard<std::mutex> lk(s.stop_mu);
    s.stopped = true;
    s.stop_status = status;
  }
  s.stop_cv.notify_all();
  return status;
}

}  // namespace pcw::store
