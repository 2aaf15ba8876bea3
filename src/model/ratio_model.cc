#include "model/ratio_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sz/huffman.h"
#include "sz/lorenzo.h"

namespace pcw::model {
namespace {

// Quantizes one sampled block in isolation (zero-padded Lorenzo, exactly
// the compressor's stencil semantics but restricted to the block), and
// accumulates the code histogram plus LZ run statistics.
template <typename T>
void sample_block(std::span<const T> data, const sz::Dims& dims,
                  std::size_t bx, std::size_t by, std::size_t bz,
                  std::size_t ex, std::size_t ey, std::size_t ez, double eb,
                  std::uint32_t radius, const RatioModelConfig& config,
                  std::vector<std::uint64_t>& counts, std::uint64_t& outliers,
                  std::uint64_t& points, std::uint64_t& run_saved_codes,
                  std::vector<std::uint32_t>& scratch_codes,
                  std::vector<T>& scratch_recon) {
  const std::size_t n = ex * ey * ez;
  scratch_codes.resize(n);
  scratch_recon.resize(n);
  const double twice_eb = 2.0 * eb;
  const auto max_q = static_cast<long long>(radius) - 1;
  const std::size_t sy_src = dims.d2;
  const std::size_t sx_src = dims.d1 * dims.d2;

  std::size_t i = 0;
  for (std::size_t x = 0; x < ex; ++x) {
    for (std::size_t y = 0; y < ey; ++y) {
      for (std::size_t z = 0; z < ez; ++z, ++i) {
        const std::size_t src =
            (bx + x) * sx_src + (by + y) * sy_src + (bz + z);
        const double orig = static_cast<double>(data[src]);
        // Block-local Lorenzo on the scratch reconstruction buffer.
        const bool hx = x > 0, hy = y > 0, hz = z > 0;
        const std::size_t sx = ey * ez, sy = ez;
        double pred = 0.0;
        if (hz) pred += static_cast<double>(scratch_recon[i - 1]);
        if (hy) pred += static_cast<double>(scratch_recon[i - sy]);
        if (hx) pred += static_cast<double>(scratch_recon[i - sx]);
        if (hy && hz) pred -= static_cast<double>(scratch_recon[i - sy - 1]);
        if (hx && hz) pred -= static_cast<double>(scratch_recon[i - sx - 1]);
        if (hx && hy) pred -= static_cast<double>(scratch_recon[i - sx - sy]);
        if (hx && hy && hz)
          pred += static_cast<double>(scratch_recon[i - sx - sy - 1]);

        const double scaled = (orig - pred) / twice_eb;
        bool predictable = std::abs(scaled) <= static_cast<double>(max_q);
        long long q = 0;
        double rec = 0.0;
        if (predictable) {
          q = std::llround(scaled);
          rec = pred + static_cast<double>(q) * twice_eb;
          predictable =
              std::abs(static_cast<double>(static_cast<T>(rec)) - orig) <= eb;
        }
        if (predictable) {
          const auto code =
              static_cast<std::uint32_t>(q + static_cast<long long>(radius));
          scratch_codes[i] = code;
          ++counts[code];
          scratch_recon[i] = static_cast<T>(rec);
        } else {
          scratch_codes[i] = 0;
          ++counts[0];
          ++outliers;
          scratch_recon[i] = data[src];
        }
      }
    }
  }
  points += n;

  // Run-length structure: codes repeated >= min_lz_run times produce
  // byte-periodic Huffman output the LZ stage collapses. Count the codes
  // covered by such runs (minus a fixed anchor per run that LZ still
  // spends tokens on).
  std::size_t run_start = 0;
  for (std::size_t k = 1; k <= n; ++k) {
    if (k == n || scratch_codes[k] != scratch_codes[run_start]) {
      const std::size_t len = k - run_start;
      if (len >= config.min_lz_run && len > 8) run_saved_codes += len - 8;
      run_start = k;
    }
  }
}

}  // namespace

template <typename T>
RatioEstimate estimate_ratio(std::span<const T> data, const sz::Dims& dims,
                             const sz::Params& params,
                             const RatioModelConfig& config) {
  const double eb = sz::resolve_error_bound<T>(data, params);
  const std::size_t total = dims.count();

  // Block grid.
  const bool is_multidim = (dims.d0 > 1) + (dims.d1 > 1) + (dims.d2 > 1) >= 2;
  const std::size_t bx = is_multidim ? std::min(config.block_edge, dims.d0) : 1;
  const std::size_t by = is_multidim ? std::min(config.block_edge, dims.d1) : 1;
  const std::size_t bz =
      is_multidim ? std::min(config.block_edge, dims.d2) : std::min(config.block_len_1d, dims.d2);
  const std::size_t gx = (dims.d0 + bx - 1) / bx;
  const std::size_t gy = (dims.d1 + by - 1) / by;
  const std::size_t gz = (dims.d2 + bz - 1) / bz;
  const std::size_t total_blocks = gx * gy * gz;
  const std::size_t block_points = bx * by * bz;
  std::size_t want_blocks = static_cast<std::size_t>(
      std::ceil(config.sample_fraction * static_cast<double>(total) /
                static_cast<double>(block_points)));
  want_blocks = std::clamp<std::size_t>(want_blocks, 1, total_blocks);
  // Prime-ish stride decorrelates the sample from periodic structure.
  const std::size_t stride = std::max<std::size_t>(1, total_blocks / want_blocks);

  std::vector<std::uint64_t> counts(2ull * params.radius, 0);
  std::uint64_t outliers = 0, points = 0, run_saved = 0;
  std::vector<std::uint32_t> scratch_codes;
  std::vector<T> scratch_recon;

  for (std::size_t b = 0; b < total_blocks; b += stride) {
    const std::size_t ix = b / (gy * gz);
    const std::size_t iy = (b / gz) % gy;
    const std::size_t iz = b % gz;
    const std::size_t x0 = ix * bx, y0 = iy * by, z0 = iz * bz;
    const std::size_t ex = std::min(bx, dims.d0 - x0);
    const std::size_t ey = std::min(by, dims.d1 - y0);
    const std::size_t ez = std::min(bz, dims.d2 - z0);
    sample_block<T>(data, dims, x0, y0, z0, ex, ey, ez, eb, params.radius,
                    config, counts, outliers, points, run_saved, scratch_codes,
                    scratch_recon);
  }

  RatioEstimate est;
  est.sampled_points = points;
  if (points == 0) return est;
  est.outlier_fraction = static_cast<double>(outliers) / static_cast<double>(points);

  // Hypothetical Huffman cost over the sampled histogram.
  std::vector<sz::SymbolCount> freqs;
  std::uint64_t distinct = 0;
  for (std::uint32_t s = 0; s < counts.size(); ++s) {
    if (counts[s] > 0) {
      freqs.push_back({s, counts[s]});
      ++distinct;
    }
  }
  const auto lengths = sz::huffman_code_lengths(freqs);
  std::uint64_t huff_bits = 0;
  double saved_bits = 0.0;
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    huff_bits += freqs[k].count * lengths[k];
  }
  est.huffman_bit_rate = static_cast<double>(huff_bits) / static_cast<double>(points);

  // LZ gain: codes inside long runs compress to (almost) nothing; weight
  // the saved codes by the *modal* code length since runs are
  // overwhelmingly the zero-residual code.
  std::uint8_t modal_len = 8;
  std::uint64_t modal_count = 0;
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    if (freqs[k].count > modal_count) {
      modal_count = freqs[k].count;
      modal_len = lengths[k];
    }
  }
  saved_bits = static_cast<double>(run_saved) * static_cast<double>(modal_len);
  if (params.lossless && huff_bits > 0) {
    est.lz_gain = std::clamp(1.0 - saved_bits / static_cast<double>(huff_bits), 0.02, 1.0);
  }

  // Per-partition overheads amortized over the full partition, not the
  // sample: serialized codebook (~3 bytes/distinct symbol) + container
  // header (~64 bytes).
  const double overhead_bits =
      (static_cast<double>(distinct) * 24.0 + 64.0 * 8.0) / static_cast<double>(total);
  const double outlier_raw_bits = est.outlier_fraction * 8.0 * sizeof(T);

  est.bit_rate = est.huffman_bit_rate * est.lz_gain + outlier_raw_bits + overhead_bits;
  est.bit_rate = std::max(est.bit_rate, 0.05);
  est.ratio = 8.0 * sizeof(T) / est.bit_rate;
  return est;
}

template RatioEstimate estimate_ratio<float>(std::span<const float>, const sz::Dims&,
                                             const sz::Params&, const RatioModelConfig&);
template RatioEstimate estimate_ratio<double>(std::span<const double>, const sz::Dims&,
                                              const sz::Params&, const RatioModelConfig&);

}  // namespace pcw::model
