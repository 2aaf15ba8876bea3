#include "h5/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "mpi/comm.h"
#include "util/crc32c.h"
#include "util/fault.h"
#include "util/io_error.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pcw::h5 {
namespace {

// One background writer, as in the paper's async VOL connector.
constexpr unsigned kWriteQueueThreads = 1;

[[noreturn]] void throw_errno(const std::string& what) {
  const int e = errno;
  throw util::IoError("h5: " + what + ": " + std::strerror(e), e,
                      util::IoError::transient_errno(e));
}

void pwrite_loop(int fd, const std::uint8_t* buf, std::size_t len, std::uint64_t off) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, buf, len, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pwrite");
    }
    buf += n;
    len -= static_cast<std::size_t>(n);
    off += static_cast<std::uint64_t>(n);
  }
}

void full_pwrite(int fd, const std::uint8_t* buf, std::size_t len, std::uint64_t off) {
  auto& reg = util::metrics::Registry::get();
  reg.io_writes.add();
  reg.io_write_bytes.add(len);
  util::trace::Span span("pwrite", "h5", "bytes", len);
  const std::uint64_t t0 = util::trace::now_ns();
  if (util::fault::armed()) {
    if (const auto tear = util::fault::on_write(len)) {
      // Torn write: the prefix reaches the disk, then the power goes.
      pwrite_loop(fd, buf, std::min(static_cast<std::size_t>(*tear), len), off);
      throw util::fault::CrashError();
    }
  }
  pwrite_loop(fd, buf, len, off);
  reg.io_write_ns.record(util::trace::now_ns() - t0);
}

void full_pread(int fd, std::uint8_t* buf, std::size_t len, std::uint64_t off) {
  auto& reg = util::metrics::Registry::get();
  reg.io_reads.add();
  reg.io_read_bytes.add(len);
  util::trace::Span span("pread", "h5", "bytes", len);
  std::uint8_t* const start = buf;
  const std::size_t total = len;
  while (len > 0) {
    const ssize_t n = ::pread(fd, buf, len, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread");
    }
    if (n == 0) throw std::runtime_error("h5: pread past EOF");
    buf += n;
    len -= static_cast<std::size_t>(n);
    off += static_cast<std::uint64_t>(n);
  }
  if (util::fault::armed()) util::fault::on_read(start, total);
}

void fsync_fd(int fd) {
  util::metrics::Registry::get().io_syncs.add();
  util::trace::Span span("fsync", "h5");
  if (util::fault::armed()) util::fault::on_sync();
  while (::fsync(fd) < 0) {
    if (errno == EINTR) continue;
    throw_errno("fsync");
  }
}

/// Makes a rename() of an entry in `path`'s directory durable.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) throw_errno("open parent dir");
  try {
    fsync_fd(dfd);
  } catch (...) {
    ::close(dfd);
    throw;
  }
  ::close(dfd);
}

}  // namespace

std::shared_ptr<File> File::create(const std::string& path, FileOptions opts) {
  auto file = std::shared_ptr<File>(new File());
  file->path_ = path;
  file->opts_ = opts;
  file->write_path_ = opts.atomic_create ? path + ".tmp" : path;
  file->temp_pending_ = opts.atomic_create;
  file->writable_ = true;
  file->fd_ = ::open(file->write_path_.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (file->fd_ < 0) throw_errno("open for create");
  // Placeholder superblock: slot 0 carries magic/version with seq 0 and
  // footer_off 0 ("no commit yet"), slot 1 stays zero. A reader of a
  // never-committed in-place file gets a clean "no committed footer".
  std::vector<std::uint8_t> sb(kSuperblockSize, 0);
  serialize_slot(SuperblockSlot{}, sb.data());
  full_pwrite(file->fd_, sb.data(), sb.size(), 0);
  file->async_pool_ = std::make_unique<util::ThreadPool>(kWriteQueueThreads);
  return file;
}

std::shared_ptr<File> File::open(const std::string& path) {
  auto file = std::shared_ptr<File>(new File());
  file->path_ = path;
  file->write_path_ = path;
  file->writable_ = false;
  file->fd_ = ::open(path.c_str(), O_RDONLY);
  if (file->fd_ < 0) throw_errno("open for read");

  struct stat st {};
  if (::fstat(file->fd_, &st) < 0) throw_errno("fstat");
  const auto fsize = static_cast<std::uint64_t>(st.st_size);

  std::uint8_t head[kLegacySuperblockSize];
  full_pread(file->fd_, head, sizeof(head), 0);
  std::uint32_t magic, version;
  std::memcpy(&magic, head, 4);
  std::memcpy(&version, head + 4, 4);
  if (magic != kMagic) throw std::runtime_error("h5: bad magic (not a PCW5 file)");
  if (version < kVersionMin || version > kVersion) {
    throw std::runtime_error("h5: unsupported version");
  }

  if (version < 3) {
    // Legacy single superblock patched at close.
    std::uint64_t footer_off, footer_size;
    std::memcpy(&footer_off, head + 8, 8);
    std::memcpy(&footer_size, head + 16, 8);
    if (footer_off == 0) throw std::runtime_error("h5: file was not closed");
    if (footer_off > fsize || footer_size > fsize - footer_off) {
      throw std::runtime_error("h5: footer extends past end of file");
    }
    std::vector<std::uint8_t> footer(footer_size);
    full_pread(file->fd_, footer.data(), footer.size(), footer_off);
    file->datasets_ = parse_footer(footer, version);
    file->cursor_.store(footer_off);
    file->file_bytes_ = footer_off + footer_size;
    file->closed_ = true;
    return file;
  }

  // v3: two commit slots; take the valid one with the highest sequence
  // number, falling back to the other (the shadow copy of the previous
  // commit) when the newest footer turns out torn or corrupt.
  std::uint8_t sb[kSuperblockSize];
  full_pread(file->fd_, sb, sizeof(sb), 0);
  std::optional<SuperblockSlot> slots[2] = {parse_slot(sb),
                                            parse_slot(sb + kSuperblockSlotSize)};
  if (slots[1] && (!slots[0] || slots[1]->seq > slots[0]->seq)) {
    std::swap(slots[0], slots[1]);
  }
  std::string detail = "h5: no committed footer";
  for (const auto& slot : slots) {
    if (!slot || slot->footer_off == 0) continue;
    if (slot->footer_off > fsize || slot->footer_size > fsize - slot->footer_off ||
        slot->footer_size < kFooterTrailerBytes) {
      detail = "h5: footer extends past end of file";
      continue;
    }
    std::vector<std::uint8_t> footer(slot->footer_size);
    full_pread(file->fd_, footer.data(), footer.size(), slot->footer_off);
    if (util::crc32c(0, footer.data(), footer.size()) != slot->footer_crc) {
      detail = "h5: footer checksum mismatch";
      continue;
    }
    try {
      file->datasets_ = parse_sealed_footer(footer);
    } catch (const std::exception& e) {
      detail = e.what();
      continue;
    }
    file->commit_seq_ = slot->seq;
    file->cursor_.store(slot->footer_off);
    file->file_bytes_ = slot->footer_off + slot->footer_size;
    file->closed_ = true;
    return file;
  }
  throw std::runtime_error(detail);
}

File::~File() {
  if (async_pool_) async_pool_->wait_idle();
  if (fd_ >= 0) ::close(fd_);
  // An atomic_create file that never committed leaves no trace behind.
  if (temp_pending_) ::unlink(write_path_.c_str());
}

std::uint64_t File::alloc(std::uint64_t bytes) {
  if (!writable_) throw std::runtime_error("h5: alloc on read-only file");
  return cursor_.fetch_add(bytes);
}

std::uint64_t File::alloc_collective(mpi::Comm& comm, std::uint64_t total_bytes) {
  std::uint64_t base = 0;
  if (comm.rank() == 0) base = alloc(total_bytes);
  return comm.bcast(base, 0);
}

void File::pwrite(std::uint64_t offset, std::span<const std::uint8_t> data) {
  if (!writable_) throw std::runtime_error("h5: pwrite on read-only file");
  full_pwrite(fd_, data.data(), data.size(), offset);
}

std::vector<std::uint8_t> File::pread(std::uint64_t offset, std::uint64_t size) const {
  std::vector<std::uint8_t> out(size);
  full_pread(fd_, out.data(), out.size(), offset);
  return out;
}

namespace {

/// Decrements the async-queue depth gauge when a queued task finishes,
/// on every exit path (return, retry exhaustion, rethrow).
struct DepthDrop {
  ~DepthDrop() { util::metrics::Registry::get().io_queue_depth.add(-1); }
};

}  // namespace

WriteTicket File::async_write(std::uint64_t offset, std::vector<std::uint8_t> data) {
  if (!writable_) throw std::runtime_error("h5: async_write on read-only file");
  auto buf = std::make_shared<std::vector<std::uint8_t>>(std::move(data));
  const unsigned retries = opts_.write_retries;
  {
    auto& reg = util::metrics::Registry::get();
    reg.io_async_enqueues.add();
    reg.io_queue_depth.add(1);
  }
  util::trace::instant("enqueue", "h5", "bytes", buf->size());
  std::future<void> fut = async_pool_->submit([this, offset, buf, retries] {
    DepthDrop drop;
    util::trace::Span span("async_write", "h5", "bytes", buf->size());
    for (unsigned attempt = 0;; ++attempt) {
      try {
        full_pwrite(fd_, buf->data(), buf->size(), offset);
        return;
      } catch (const util::IoError& e) {
        if (!e.transient() || attempt >= retries) {
          // Record the post-retry failure so flush_async()/commit()
          // surface it even when nobody waits on this ticket — a commit
          // must never seal a footer over a payload that never landed.
          std::lock_guard lock(err_mu_);
          if (!async_error_) async_error_ = std::current_exception();
          throw;
        }
        util::metrics::Registry::get().io_write_retries.add();
        // Escalating backoff: 1, 4, 16... ms.
        std::this_thread::sleep_for(std::chrono::milliseconds(1u << (2 * attempt)));
      }
    }
  });
  return WriteTicket(fut.share());
}

void File::flush_async() {
  if (async_pool_) async_pool_->wait_idle();
  std::lock_guard lock(err_mu_);
  if (async_error_) std::rethrow_exception(async_error_);
}

void File::add_dataset(DatasetDesc desc) {
  std::lock_guard lock(meta_mu_);
  for (const auto& d : datasets_) {
    if (d.name == desc.name) throw std::invalid_argument("h5: duplicate dataset " + desc.name);
  }
  datasets_.push_back(std::move(desc));
}

void File::update_dataset(const DatasetDesc& desc) {
  std::lock_guard lock(meta_mu_);
  for (auto& d : datasets_) {
    if (d.name == desc.name) {
      d = desc;
      return;
    }
  }
  throw std::invalid_argument("h5: update of unknown dataset " + desc.name);
}

const DatasetDesc* File::find_dataset(const std::string& name) const {
  std::lock_guard lock(meta_mu_);
  for (const auto& d : datasets_) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

const DatasetDesc* File::find_series(const std::string& base, std::uint32_t step) const {
  std::lock_guard lock(meta_mu_);
  for (const auto& d : datasets_) {
    if (d.series_member && d.series_step == step && d.series_base == base) return &d;
  }
  return nullptr;
}

void File::promote_temp() {
  if (::rename(write_path_.c_str(), path_.c_str()) < 0) throw_errno("rename");
  temp_pending_ = false;
  fsync_parent_dir(path_);
}

void File::commit_locked() {
  if (!writable_) throw std::runtime_error("h5: commit on read-only file");
  if (closed_) throw std::runtime_error("h5: commit on closed file");
  // 1. Data durable before the footer that describes it.
  fsync_fd(fd_);
  // 2. Footer appended into freshly *allocated* space, so no later data
  //    write can ever land on a committed footer, then made durable.
  std::vector<std::uint8_t> footer = seal_footer(datasets_);
  const std::uint64_t footer_off = cursor_.fetch_add(footer.size());
  full_pwrite(fd_, footer.data(), footer.size(), footer_off);
  fsync_fd(fd_);
  // 3. Publication: overwrite only the slot the *previous* commit did not
  //    use. Until this fsync returns, a reader still sees the previous
  //    commit; after it, the new one. There is no in-between.
  SuperblockSlot slot;
  slot.seq = commit_seq_ + 1;
  slot.footer_off = footer_off;
  slot.footer_size = footer.size();
  slot.footer_crc = util::crc32c(0, footer.data(), footer.size());
  std::uint8_t raw[kSuperblockSlotSize];
  serialize_slot(slot, raw);
  full_pwrite(fd_, raw, sizeof(raw), (slot.seq % 2) * kSuperblockSlotSize);
  fsync_fd(fd_);
  commit_seq_ = slot.seq;
  file_bytes_ = footer_off + footer.size();
  if (temp_pending_) promote_temp();
}

void File::commit() {
  flush_async();
  std::lock_guard lock(meta_mu_);
  commit_locked();
}

void File::commit_collective(mpi::Comm& comm) {
  comm.barrier();  // all writes issued
  flush_async();   // drain the shared async queue
  comm.barrier();
  if (comm.rank() == 0) {
    std::lock_guard lock(meta_mu_);
    commit_locked();
  }
  comm.barrier();
}

void File::close_collective(mpi::Comm& comm) {
  comm.barrier();          // all writes issued
  flush_async();           // drain this process's async queue
  comm.barrier();          // all queues drained
  if (comm.rank() == 0) {
    std::lock_guard lock(meta_mu_);
    if (!closed_) {
      commit_locked();
      closed_ = true;
    }
  }
  comm.barrier();
}

void File::close_single() {
  flush_async();
  std::lock_guard lock(meta_mu_);
  if (closed_) return;
  commit_locked();
  closed_ = true;
}

}  // namespace pcw::h5
