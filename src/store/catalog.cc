#include "store/catalog.h"

#include <algorithm>
#include <functional>
#include <set>

#include "pcw/runtime.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pcw::store {

FileEntry::FileEntry(std::uint32_t id, std::string path, bool writable)
    : id_(id), path_(std::move(path)), writable_(writable) {}

Result<std::shared_ptr<Reader>> FileEntry::snapshot() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  if (reader_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition,
                  "store: " + path_ + " has no committed state yet");
  }
  return reader_;
}

std::uint64_t FileEntry::generation() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  return generation_;
}

std::size_t FileEntry::shard_index(const std::string& name) const {
  return std::hash<std::string>{}(name) % kLockShards;
}

std::shared_lock<std::shared_mutex> FileEntry::lock_read(const std::string& name) {
  return std::shared_lock<std::shared_mutex>(shards_[shard_index(name)]);
}

std::vector<std::shared_lock<std::shared_mutex>> FileEntry::lock_read_all() {
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(kLockShards);
  for (auto& shard : shards_) locks.emplace_back(shard);
  return locks;
}

void FileEntry::adopt_reader(Reader reader) {
  std::lock_guard<std::mutex> lk(snap_mu_);
  reader_ = std::make_shared<Reader>(std::move(reader));
  generation_ = 1;
}

Status FileEntry::create_writer(const WriterOptions& options) {
  Result<Writer> writer = Writer::create(path_, options);
  if (!writer.ok()) return writer.status();
  std::lock_guard<std::mutex> lk(admit_mu_);
  writer_ = std::move(writer).value();
  return Status::Ok();
}

Result<RemoteStep> FileEntry::submit_write(std::unique_ptr<PendingWrite> w) {
  if (!writable_) {
    return Status(StatusCode::kFailedPrecondition,
                  "store: " + path_ + " is open read-only");
  }
  const std::size_t elems = w->dims.count();
  if (elems == 0 || w->data.size() != elems * element_size(w->dtype)) {
    return Status(StatusCode::kInvalidArgument,
                  "store: write_step payload is " + std::to_string(w->data.size()) +
                      " bytes for dims " + std::to_string(w->dims.d0) + "x" +
                      std::to_string(w->dims.d1) + "x" + std::to_string(w->dims.d2));
  }
  std::future<Result<RemoteStep>> fut = w->done.get_future();
  bool leader = false;
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
    pending_.push_back(std::move(w));
    if (!leader_active_) {
      leader_active_ = true;
      leader = true;
    }
  }
  // Block outside admit_mu_: a follower waiting on its future while
  // holding the lock would deadlock the leader's drain loop.
  if (!leader) return fut.get();
  // Batch leader: drain every write admitted while we were working, so
  // concurrent arrivals share one commit.
  for (;;) {
    std::vector<std::unique_ptr<PendingWrite>> batch;
    {
      std::lock_guard<std::mutex> lk(admit_mu_);
      if (pending_.empty()) {
        leader_active_ = false;
        break;
      }
      batch.reserve(pending_.size());
      for (auto& p : pending_) batch.push_back(std::move(p));
      pending_.clear();
    }
    process_batch(std::move(batch));
  }
  return fut.get();
}

namespace {

/// True for engine/I-O failures that leave the writer's on-disk or
/// in-memory state untrusted; validation errors (bad dims, dtype
/// mismatch) are clean rejections that poison nothing.
bool poisons(const Status& s) {
  switch (s.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kFailedPrecondition:
      return false;
    default:
      return true;
  }
}

}  // namespace

void FileEntry::process_batch(std::vector<std::unique_ptr<PendingWrite>> batch) {
  util::trace::Span span("store.write_batch", "store");
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
    if (poisoned_) {
      for (auto& item : batch) {
        item->done.set_value(Status(StatusCode::kFailedPrecondition,
                                    "store: writer poisoned: " + poison_detail_));
      }
      return;
    }
  }

  // Exclusive-lock the union of touched field shards, in index order.
  std::set<std::size_t> shard_ids;
  for (const auto& item : batch) shard_ids.insert(shard_index(item->field));
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shard_ids.size());
  for (std::size_t idx : shard_ids) locks.emplace_back(shards_[idx]);

  struct Outcome {
    Result<RemoteStep> result = Status(StatusCode::kInternal, "store: step not attempted");
  };
  std::vector<Outcome> outcomes(batch.size());
  Status fatal = Status::Ok();

  // The engines are collective; a single-rank run hosts the whole batch.
  const Status run_status = pcw::run(1, [&](Rank& rank) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      PendingWrite& item = *batch[i];
      auto sit = series_.find(item.field);
      if (sit == series_.end()) {
        Result<SeriesWriter> sw = SeriesWriter::create(
            writer_, SeriesOptions().with_keyframe_interval(item.keyframe_interval));
        if (!sw.ok()) {
          outcomes[i].result = sw.status();
          if (poisons(sw.status()) && fatal.ok()) fatal = sw.status();
          continue;
        }
        sit = series_.emplace(item.field, std::move(sw).value()).first;
      }
      SeriesWriter& series = sit->second;
      const std::uint32_t step = series.next_step();
      Field field;
      field.name = item.field;
      field.local = FieldView{item.dtype, std::span<const std::uint8_t>(item.data),
                              item.dims};
      field.global_dims = item.dims;
      field.codec = CodecOptions().with_error_bound(item.error_bound);
      Result<SeriesStepReport> report =
          series.write_step(rank, std::span<const Field>(&field, 1));
      if (!report.ok()) {
        outcomes[i].result = report.status();
        if (poisons(report.status()) && fatal.ok()) fatal = report.status();
        continue;
      }
      RemoteStep ack;
      ack.step = step;
      ack.keyframe = report.value().keyframe;
      outcomes[i].result = ack;
    }
  });
  if (!run_status.ok() && fatal.ok()) fatal = run_status;

  if (fatal.ok()) {
    const Status committed = writer_.commit();
    if (!committed.ok()) fatal = committed;
  }
  // A commit is visible only once a fresh snapshot of it is open; one
  // that cannot be reopened must not be acknowledged.
  std::shared_ptr<Reader> fresh;
  if (fatal.ok()) {
    Result<Reader> reopened = Reader::open(path_, reader_options_);
    if (reopened.ok()) {
      fresh = std::make_shared<Reader>(std::move(reopened).value());
    } else {
      fatal = reopened.status();
    }
  }

  if (!fatal.ok()) {
    // The batch never became visible: fail everyone and poison, since the
    // writer's state is no longer trusted; the read side keeps serving
    // the last published snapshot.
    {
      std::lock_guard<std::mutex> lk(admit_mu_);
      poisoned_ = true;
      poison_detail_ = fatal.message();
      series_.clear();
    }
    const Status refused(fatal.code(), "store: write batch failed: " + fatal.message());
    for (auto& item : batch) item->done.set_value(refused);
    return;
  }

  // Publish the new snapshot, then acknowledge. The swap happens before
  // any promise resolves, so a reader acting on an ack always sees its
  // step. Cached decodes stay valid: committed steps never change.
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lk(snap_mu_);
    reader_ = std::move(fresh);
    gen = ++generation_;
  }
  util::metrics::Registry::get().store_write_batches.add(1);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (outcomes[i].result.ok()) outcomes[i].result.value().generation = gen;
    batch[i]->done.set_value(std::move(outcomes[i].result));
  }
}

Status FileEntry::close_writer() {
  std::lock_guard<std::mutex> lk(admit_mu_);
  if (!writable_ || !writer_.valid()) return Status::Ok();
  series_.clear();
  if (poisoned_) {
    writer_ = Writer();  // drop without another commit attempt
    return Status::Ok();
  }
  const Status closed = writer_.close();
  writer_ = Writer();
  return closed;
}

Result<std::shared_ptr<FileEntry>> Catalog::open(const std::string& path, OpenMode mode) {
  // The catalog lock spans the open/create I/O: concurrent OPENs of the
  // same path must agree on one entry, and opens are rare enough that
  // serializing them is the simple correct choice (find() blocks only
  // for the duration of one file open).
  std::lock_guard<std::mutex> lk(mu_);
  auto it = by_path_.find(path);
  if (it != by_path_.end()) {
    std::shared_ptr<FileEntry> entry = by_id_.at(it->second);
    if (mode == OpenMode::kCreate && !entry->writable()) {
      return Status(StatusCode::kFailedPrecondition,
                    "store: " + path + " is already open read-only");
    }
    return entry;
  }

  auto entry = std::make_shared<FileEntry>(next_id_, path, mode == OpenMode::kCreate);
  if (mode == OpenMode::kRead) {
    Result<Reader> reader = Reader::open(path, reader_options_);
    if (!reader.ok()) return reader.status();
    entry->adopt_reader(std::move(reader).value());
  } else {
    const Status created = entry->create_writer(WriterOptions());
    if (!created.ok()) return created;
  }
  entry->set_reader_options(reader_options_);
  by_id_.emplace(next_id_, entry);
  by_path_.emplace(path, next_id_);
  ++next_id_;
  return entry;
}

Result<std::shared_ptr<FileEntry>> Catalog::find(std::uint32_t id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status(StatusCode::kNotFound,
                  "store: no open file with id " + std::to_string(id));
  }
  return it->second;
}

std::vector<std::shared_ptr<FileEntry>> Catalog::entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::shared_ptr<FileEntry>> out;
  out.reserve(by_id_.size());
  for (const auto& [id, entry] : by_id_) out.push_back(entry);
  return out;
}

Status Catalog::close_all() {
  Status first = Status::Ok();
  for (const std::shared_ptr<FileEntry>& entry : entries()) {
    const Status s = entry->close_writer();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

}  // namespace pcw::store
