// pcw::store::Client — blocking request/response handle over one pcwd
// connection. Calls are serialized per handle by a mutex; no exception
// crosses the façade (socket and protocol failures become Status).
#include <unistd.h>

#include <mutex>

#include "pcw/store.h"
#include "store/protocol.h"

namespace pcw::store {

struct Client::Impl {
  int fd = -1;
  std::mutex mu;  // one request/response in flight per connection

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }
};

namespace {

/// Sends one request and decodes the reply envelope: kOk replies return
/// their payload, error replies become the carried Status, transport
/// failures become kIoError.
Result<std::vector<std::uint8_t>> call(Client::Impl& impl, Op op,
                                       std::vector<std::uint8_t> payload) {
  std::lock_guard<std::mutex> lk(impl.mu);
  if (impl.fd < 0) {
    return Status(StatusCode::kFailedPrecondition, "store: client is closed");
  }
  try {
    write_frame(impl.fd, static_cast<std::uint8_t>(op), payload);
    std::uint8_t tag = 0;
    std::vector<std::uint8_t> reply;
    if (!read_frame(impl.fd, &tag, &reply)) {
      return Status(StatusCode::kIoError, "store: server closed the connection");
    }
    if (tag != 0) {
      std::string message = "store: request failed";
      try {
        WireReader r{std::span<const std::uint8_t>(reply)};
        message = r.str();
      } catch (const std::exception&) {
      }
      return Status(static_cast<StatusCode>(tag), std::move(message));
    }
    return reply;
  } catch (const std::exception& e) {
    return Status(StatusCode::kIoError, e.what());
  }
}

RemoteFile get_file(WireReader& r) {
  RemoteFile f;
  f.id = r.u32();
  f.path = r.str();
  f.writable = r.u8() != 0;
  f.generation = r.u64();
  f.datasets = r.u32();
  return f;
}

RemoteRead get_read(WireReader& r) {
  RemoteRead out;
  out.dtype = r.dtype();
  out.extents.d0 = static_cast<std::size_t>(r.u64());
  out.extents.d1 = static_cast<std::size_t>(r.u64());
  out.extents.d2 = static_cast<std::size_t>(r.u64());
  out.bytes = r.blob();
  return out;
}

/// Wraps reply parsing: a malformed reply is a kCorruptData, not a leak
/// of the underlying std::runtime_error.
template <typename T, typename Fn>
Result<T> parse(Result<std::vector<std::uint8_t>> reply, Fn decode) {
  if (!reply.ok()) return reply.status();
  try {
    WireReader r{std::span<const std::uint8_t>(reply.value())};
    return decode(r);
  } catch (const std::exception& e) {
    return Status(StatusCode::kCorruptData, std::string("store: bad reply: ") + e.what());
  }
}

}  // namespace

Result<Client> Client::connect(const std::string& address) {
  auto impl = std::make_shared<Impl>();
  try {
    Address addr = parse_address(address);
    impl->fd = connect_to(addr);
  } catch (const std::exception& e) {
    return Status(StatusCode::kIoError, e.what());
  }
  Client client;
  client.impl_ = std::move(impl);
  return client;
}

Result<RemoteFile> Client::open(const std::string& path, OpenMode mode) {
  if (impl_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "store: invalid client handle");
  }
  WireWriter w;
  w.str(path);
  w.u8(static_cast<std::uint8_t>(mode));
  return parse<RemoteFile>(call(*impl_, Op::kOpen, w.take()),
                           [](WireReader& r) { return get_file(r); });
}

Result<std::vector<RemoteFile>> Client::catalog() {
  if (impl_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "store: invalid client handle");
  }
  WireWriter w;
  w.u32(0);
  return parse<std::vector<RemoteFile>>(
      call(*impl_, Op::kList, w.take()), [](WireReader& r) {
        const std::uint32_t n = r.u32();
        std::vector<RemoteFile> files;
        files.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) files.push_back(get_file(r));
        return files;
      });
}

Result<std::vector<RemoteDataset>> Client::list(std::uint32_t file_id) {
  if (impl_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "store: invalid client handle");
  }
  if (file_id == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "store: list needs a file id from open()");
  }
  WireWriter w;
  w.u32(file_id);
  return parse<std::vector<RemoteDataset>>(
      call(*impl_, Op::kList, w.take()), [](WireReader& r) {
        const std::uint32_t n = r.u32();
        std::vector<RemoteDataset> out;
        out.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) out.push_back(get_dataset(r));
        return out;
      });
}

Result<RemoteRead> Client::read_region(std::uint32_t file_id, const std::string& dataset,
                                       const std::optional<Region>& region,
                                       std::optional<DType> expected) {
  if (impl_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "store: invalid client handle");
  }
  WireWriter w;
  w.u32(file_id);
  w.str(dataset);
  w.region(region);
  w.u8(expected.has_value() ? static_cast<std::uint8_t>(*expected) : kDTypeAny);
  return parse<RemoteRead>(call(*impl_, Op::kReadRegion, w.take()),
                           [](WireReader& r) { return get_read(r); });
}

Result<RemoteRead> Client::read_step(std::uint32_t file_id, const std::string& base,
                                     std::uint32_t step,
                                     const std::optional<Region>& region,
                                     std::optional<DType> expected) {
  if (impl_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "store: invalid client handle");
  }
  WireWriter w;
  w.u32(file_id);
  w.str(base);
  w.u32(step);
  w.region(region);
  w.u8(expected.has_value() ? static_cast<std::uint8_t>(*expected) : kDTypeAny);
  return parse<RemoteRead>(call(*impl_, Op::kReadStep, w.take()),
                           [](WireReader& r) { return get_read(r); });
}

Result<RemoteStep> Client::write_step(std::uint32_t file_id, const std::string& field,
                                      const FieldView& data, double error_bound,
                                      std::uint32_t keyframe_interval) {
  if (impl_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "store: invalid client handle");
  }
  WireWriter w;
  w.u32(file_id);
  w.str(field);
  w.u8(static_cast<std::uint8_t>(data.dtype));
  w.u64(data.dims.d0);
  w.u64(data.dims.d1);
  w.u64(data.dims.d2);
  w.f64(error_bound);
  w.u32(keyframe_interval);
  w.blob(data.bytes);
  return parse<RemoteStep>(call(*impl_, Op::kWriteStep, w.take()), [](WireReader& r) {
    RemoteStep s;
    s.step = r.u32();
    s.keyframe = r.u8() != 0;
    s.generation = r.u64();
    return s;
  });
}

Result<ScrubReport> Client::scrub(std::uint32_t file_id, bool deep) {
  if (impl_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "store: invalid client handle");
  }
  WireWriter w;
  w.u32(file_id);
  w.u8(deep ? 1 : 0);
  return parse<ScrubReport>(call(*impl_, Op::kScrub, w.take()),
                            [](WireReader& r) { return get_scrub(r); });
}

Result<std::vector<RemoteStat>> Client::stats() {
  if (impl_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "store: invalid client handle");
  }
  return parse<std::vector<RemoteStat>>(call(*impl_, Op::kStats, {}), [](WireReader& r) {
    const std::uint32_t n = r.u32();
    std::vector<RemoteStat> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      RemoteStat s;
      s.name = r.str();
      s.value = r.u64();
      out.push_back(std::move(s));
    }
    return out;
  });
}

Status Client::ping() {
  if (impl_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "store: invalid client handle");
  }
  return call(*impl_, Op::kPing, {}).status();
}

Status Client::shutdown_server() {
  if (impl_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "store: invalid client handle");
  }
  return call(*impl_, Op::kShutdown, {}).status();
}

Status Client::close() {
  if (impl_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "store: invalid client handle");
  }
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (impl_->fd >= 0) {
    ::close(impl_->fd);
    impl_->fd = -1;
  }
  return Status::Ok();
}

}  // namespace pcw::store
