// The pcwd catalog: every file the server has open, each with a
// committed-state Reader snapshot, sharded per-dataset reader-writer
// locks, and (for writable files) a batched write-admission queue.
//
// Consistency model:
//   - Reads serve from an immutable `shared_ptr<pcw::Reader>` snapshot
//     of the last committed state. A commit opens a fresh Reader and
//     swaps it in (generation++), so a read observes the pre- or
//     post-commit state in full — never a hybrid. In-flight reads keep
//     the old snapshot alive through their shared_ptr.
//   - Concurrent WRITE_STEPs enqueue; the first arriver becomes the
//     batch leader, drains the queue in arrival order under exclusive
//     locks on the touched fields' shards, and lands ONE dual-slot
//     commit for the whole batch (group commit). Followers block on a
//     future until their step is durable.
//   - A failed engine write, a torn commit, or a commit whose snapshot
//     cannot be reopened poisons the writer: the batch fails, later
//     WRITE_STEPs fail with kFailedPrecondition, and reads keep serving
//     the last published snapshot.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "pcw/reader.h"
#include "pcw/series.h"
#include "pcw/store.h"
#include "pcw/writer.h"

namespace pcw::store {

/// Per-dataset lock shards per file; dataset/base names hash onto them.
inline constexpr unsigned kLockShards = 16;

/// One queued WRITE_STEP, owning a copy of the client's element bytes.
struct PendingWrite {
  std::string field;
  DType dtype = DType::kFloat32;
  Dims dims;
  double error_bound = 1e-3;
  std::uint32_t keyframe_interval = 8;
  std::vector<std::uint8_t> data;
  std::promise<Result<RemoteStep>> done;
};

class FileEntry {
 public:
  FileEntry(std::uint32_t id, std::string path, bool writable);

  std::uint32_t id() const { return id_; }
  const std::string& path() const { return path_; }
  bool writable() const { return writable_; }

  /// The last committed state (kFailedPrecondition before a writable
  /// file's first commit). The returned Reader is immutable and safe for
  /// concurrent reads (h5 pread is thread-safe).
  Result<std::shared_ptr<Reader>> snapshot() const;
  std::uint64_t generation() const;

  /// Shared (reader-side) lock on the shard owning `name`.
  std::shared_lock<std::shared_mutex> lock_read(const std::string& name);
  /// Shared locks on every shard, in index order (SCRUB).
  std::vector<std::shared_lock<std::shared_mutex>> lock_read_all();

  /// Enqueues one write and blocks until the admitting group commit has
  /// been published to readers (or failed).
  Result<RemoteStep> submit_write(std::unique_ptr<PendingWrite> w);

  /// Installs the initial snapshot (read-only OPEN). Not thread-safe;
  /// called once before the entry is published.
  void adopt_reader(Reader reader);
  /// Creates the backing Writer (OPEN kCreate). Not thread-safe; called
  /// once before the entry is published.
  Status create_writer(const WriterOptions& options);

  void set_reader_options(const ReaderOptions& options) { reader_options_ = options; }

  /// Final commit + close of a writable file (server stop). Callers must
  /// have joined every client thread first.
  Status close_writer();

 private:
  void process_batch(std::vector<std::unique_ptr<PendingWrite>> batch);
  std::size_t shard_index(const std::string& name) const;

  const std::uint32_t id_;
  const std::string path_;
  const bool writable_;
  ReaderOptions reader_options_;

  std::array<std::shared_mutex, kLockShards> shards_;

  // committed-state snapshot (swap under snap_mu_, innermost lock)
  mutable std::mutex snap_mu_;
  std::shared_ptr<Reader> reader_;
  std::uint64_t generation_ = 0;

  // write admission (admit_mu_ guards everything below)
  std::mutex admit_mu_;
  std::deque<std::unique_ptr<PendingWrite>> pending_;
  bool leader_active_ = false;
  bool poisoned_ = false;
  std::string poison_detail_;
  Writer writer_;
  std::map<std::string, SeriesWriter> series_;  // one per field name
};

class Catalog {
 public:
  explicit Catalog(ReaderOptions reader_options) : reader_options_(reader_options) {}

  /// Opens (kRead) or creates (kCreate) `path`, or returns the existing
  /// entry when the path is already in the catalog.
  Result<std::shared_ptr<FileEntry>> open(const std::string& path, OpenMode mode);

  Result<std::shared_ptr<FileEntry>> find(std::uint32_t id) const;
  std::vector<std::shared_ptr<FileEntry>> entries() const;

  /// Commits + closes every writable file; first error wins.
  Status close_all();

 private:
  ReaderOptions reader_options_;
  mutable std::mutex mu_;
  std::map<std::uint32_t, std::shared_ptr<FileEntry>> by_id_;
  std::map<std::string, std::uint32_t> by_path_;
  std::uint32_t next_id_ = 1;
};

}  // namespace pcw::store
