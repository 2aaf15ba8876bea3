#include "core/engine.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace pcw::core {
namespace {

using h5::dtype_of;

/// Per-(field, rank) prediction message exchanged in the all-gather.
struct PredMsg {
  std::uint64_t predicted_bytes = 0;
  double predicted_ratio = 1.0;
  std::uint64_t elem_count = 0;
};
static_assert(std::is_trivially_copyable_v<PredMsg>);

/// Per-(field, rank) outcome message exchanged after the write wave.
struct ActualMsg {
  std::uint64_t actual_bytes = 0;
  std::uint64_t overflow_bytes = 0;
};
static_assert(std::is_trivially_copyable_v<ActualMsg>);

template <typename T>
RankReport run_no_compression(mpi::Comm& comm, h5::File& file,
                              std::span<const FieldSpec<T>> fields) {
  RankReport report;
  util::Timer total;
  util::Timer phase;
  for (const auto& field : fields) {
    h5::write_contiguous<T>(comm, file, field.name, field.local, field.global_dims);
    report.raw_bytes += field.local.size_bytes();
  }
  report.compressed_bytes = report.raw_bytes;
  report.write_seconds = phase.seconds();
  report.total_seconds = total.seconds();
  report.order = identity_order(fields.size());
  return report;
}

template <typename T>
RankReport run_filter_collective(mpi::Comm& comm, h5::File& file,
                                 std::span<const FieldSpec<T>> fields,
                                 const EngineConfig& config) {
  // H5Z-SZ semantics: the write of the shared file cannot start until all
  // compressed sizes are known. Each dataset is compressed and written
  // collectively in sequence; within one dataset the phases are already
  // serialized by write_filtered_collective.
  RankReport report;
  util::Timer total;
  for (const auto& field : fields) {
    sz::Params params = field.params;
    params.threads = config.compress_threads;
    h5::SzFilter filter(params);
    const h5::FilterWriteStats stats = h5::write_filtered_collective<T>(
        comm, file, field.name, field.local, field.local_dims, field.global_dims,
        filter);
    report.compress_seconds += stats.compress_seconds;
    report.exchange_seconds += stats.exchange_seconds;
    report.write_seconds += stats.write_seconds;
    report.compressed_bytes += stats.compressed_bytes;
    report.raw_bytes += field.local.size_bytes();
  }
  report.reserved_bytes = report.compressed_bytes;  // filter path wastes nothing
  report.total_seconds = total.seconds();
  report.order = identity_order(fields.size());
  return report;
}

template <typename T>
RankReport run_overlap(mpi::Comm& comm, h5::File& file,
                       std::span<const FieldSpec<T>> fields,
                       const EngineConfig& config, bool reorder) {
  RankReport report;
  util::Timer total;
  const std::size_t nfields = fields.size();
  const auto nranks = static_cast<std::size_t>(comm.size());
  const auto my_rank = static_cast<std::size_t>(comm.rank());

  // --- Phase 1: prediction (ratio, compression time, write time). -------
  std::vector<PredMsg> my_preds(nfields);
  std::vector<ScheduledTask> tasks(nfields);
  {
    util::trace::StageTimer stage("predict", "engine", "fields", nfields);
    for (std::size_t f = 0; f < nfields; ++f) {
      const auto est = model::estimate_ratio<T>(fields[f].local, fields[f].local_dims,
                                                fields[f].params, config.ratio_config);
      const double raw_bytes = static_cast<double>(fields[f].local.size_bytes());
      // Predicted compressed size, plus the sz container margin the model
      // already amortizes; +1 guards the zero edge.
      my_preds[f].predicted_bytes =
          static_cast<std::uint64_t>(est.bit_rate / 8.0 *
                                     static_cast<double>(fields[f].local.size())) +
          1;
      my_preds[f].predicted_ratio = est.ratio;
      my_preds[f].elem_count = fields[f].local.size();
      tasks[f].comp_seconds = config.comp_model.predict_time(raw_bytes, est.bit_rate);
      tasks[f].write_seconds = config.write_model.predict_time(
          static_cast<double>(my_preds[f].predicted_bytes));
      report.raw_bytes += fields[f].local.size_bytes();
    }
    report.predict_seconds = stage.seconds();
  }

  // --- Phase 2: one all-gather distributes every prediction. ------------
  std::vector<std::vector<PredMsg>> all_preds;
  {
    util::trace::StageTimer stage("exchange", "engine");
    all_preds = comm.allgatherv<PredMsg>(my_preds);
    report.exchange_seconds = stage.seconds();
  }

  // --- Phase 3: identical offset planning on every rank. ----------------
  std::vector<std::vector<PartitionPrediction>> predictions(
      nfields, std::vector<PartitionPrediction>(nranks));
  for (std::size_t r = 0; r < nranks; ++r) {
    if (all_preds[r].size() != nfields) {
      throw std::runtime_error("engine: rank disagreement on field count");
    }
    for (std::size_t f = 0; f < nfields; ++f) {
      predictions[f][r].predicted_bytes = all_preds[r][f].predicted_bytes;
      predictions[f][r].predicted_ratio = all_preds[r][f].predicted_ratio;
    }
  }
  const LayoutPlan plan = plan_layout(predictions, config.rspace);
  const std::uint64_t base = file.alloc_collective(comm, plan.total_bytes);
  for (std::size_t f = 0; f < nfields; ++f) {
    report.reserved_bytes += plan.slots[f][my_rank].reserved_bytes;
  }

  // --- Phase 4: compression-order optimization (Algorithm 1). -----------
  report.order = reorder ? optimize_order(tasks) : identity_order(nfields);

  // --- Phase 5: compress/async-write pipeline. ---------------------------
  std::vector<ActualMsg> my_actuals(nfields);
  std::vector<std::vector<std::uint8_t>> overflow_tails(nfields);
  std::vector<h5::WriteTicket> tickets;
  tickets.reserve(nfields);
  double compress_accum = 0.0;
  for (const int fi : report.order) {
    const auto f = static_cast<std::size_t>(fi);
    std::vector<std::uint8_t> blob;
    {
      util::trace::StageTimer stage("compress", "engine", "field", f);
      sz::Params comp_params = fields[f].params;
      comp_params.threads = config.compress_threads;
      blob = sz::compress<T>(fields[f].local, fields[f].local_dims, comp_params);
      compress_accum += stage.seconds();
    }

    const PartitionSlot& slot = plan.slots[f][my_rank];
    my_actuals[f].actual_bytes = blob.size();
    report.compressed_bytes += blob.size();
    if (blob.size() > slot.reserved_bytes) {
      // Overflow: the slot takes what fits; the excess is appended after
      // the main wave (§III-D).
      my_actuals[f].overflow_bytes = blob.size() - slot.reserved_bytes;
      report.overflow_bytes += my_actuals[f].overflow_bytes;
      ++report.overflow_partitions;
      overflow_tails[f].assign(blob.begin() + static_cast<std::ptrdiff_t>(slot.reserved_bytes),
                               blob.end());
      blob.resize(slot.reserved_bytes);
    }
    tickets.push_back(file.async_write(base + slot.offset, std::move(blob)));
  }
  report.compress_seconds = compress_accum;

  // Exposed write tail: from the end of the last compression to the last
  // byte of this rank's async queue landing.
  {
    util::trace::StageTimer stage("write_exposed", "engine", "tickets",
                                  tickets.size());
    for (const auto& ticket : tickets) ticket.wait();
    report.write_seconds = stage.seconds();
  }

  // --- Phase 6: overflow handling + outcome gather. ---------------------
  std::vector<std::vector<ActualMsg>> all_actuals;
  std::vector<std::vector<std::uint64_t>> overflow_offsets;
  std::uint64_t overflow_base = 0;
  {
    util::trace::StageTimer stage("overflow", "engine");
    all_actuals = comm.allgatherv<ActualMsg>(my_actuals);
    std::vector<std::vector<std::uint64_t>> overflow_sizes(
        nfields, std::vector<std::uint64_t>(nranks, 0));
    for (std::size_t r = 0; r < nranks; ++r) {
      for (std::size_t f = 0; f < nfields; ++f) {
        overflow_sizes[f][r] = all_actuals[r][f].overflow_bytes;
      }
    }
    std::uint64_t overflow_total = 0;
    overflow_offsets = assign_overflow_offsets(overflow_sizes, &overflow_total);
    if (overflow_total > 0) {
      overflow_base = file.alloc_collective(comm, overflow_total);
      for (std::size_t f = 0; f < nfields; ++f) {
        if (!overflow_tails[f].empty()) {
          file.pwrite(overflow_base + overflow_offsets[f][my_rank], overflow_tails[f]);
        }
      }
    }
    report.overflow_seconds = stage.seconds();
  }

  // --- Phase 7: metadata registration (rank 0). --------------------------
  if (comm.rank() == 0) {
    for (std::size_t f = 0; f < nfields; ++f) {
      h5::DatasetDesc desc;
      desc.name = fields[f].name;
      desc.dtype = dtype_of<T>();
      desc.global_dims = fields[f].global_dims;
      desc.layout = h5::Layout::kPartitioned;
      desc.filter = h5::FilterId::kSz;
      desc.abs_error_bound = fields[f].params.error_bound;
      std::uint64_t elem_cursor = 0;
      for (std::size_t r = 0; r < nranks; ++r) {
        h5::PartitionRecord part;
        part.rank = static_cast<std::uint32_t>(r);
        part.elem_offset = elem_cursor;
        part.elem_count = all_preds[r][f].elem_count;
        elem_cursor += part.elem_count;
        part.file_offset = base + plan.slots[f][r].offset;
        part.reserved_bytes = plan.slots[f][r].reserved_bytes;
        part.actual_bytes = all_actuals[r][f].actual_bytes;
        part.overflow_bytes = all_actuals[r][f].overflow_bytes;
        if (part.overflow_bytes > 0) {
          part.overflow_offset = overflow_base + overflow_offsets[f][r];
        }
        desc.partitions.push_back(part);
      }
      if (elem_cursor != fields[f].global_dims.count()) {
        throw std::runtime_error("engine: slice counts do not cover " + fields[f].name);
      }
      file.add_dataset(std::move(desc));
    }
  }
  comm.barrier();
  report.total_seconds = total.seconds();
  return report;
}

}  // namespace

template <typename T>
RankReport write_fields(mpi::Comm& comm, h5::File& file,
                        std::span<const FieldSpec<T>> fields,
                        const EngineConfig& config) {
  if (fields.empty()) throw std::invalid_argument("engine: no fields");
  util::metrics::Registry::get().engine_writes.add();
  switch (config.mode) {
    case WriteMode::kNoCompression:
      return run_no_compression<T>(comm, file, fields);
    case WriteMode::kFilterCollective:
      return run_filter_collective<T>(comm, file, fields, config);
    case WriteMode::kOverlap:
      return run_overlap<T>(comm, file, fields, config, /*reorder=*/false);
    case WriteMode::kOverlapReorder:
      return run_overlap<T>(comm, file, fields, config, /*reorder=*/true);
  }
  throw std::invalid_argument("engine: unknown mode");
}

template RankReport write_fields<float>(mpi::Comm&, h5::File&,
                                        std::span<const FieldSpec<float>>,
                                        const EngineConfig&);
template RankReport write_fields<double>(mpi::Comm&, h5::File&,
                                         std::span<const FieldSpec<double>>,
                                         const EngineConfig&);

}  // namespace pcw::core
