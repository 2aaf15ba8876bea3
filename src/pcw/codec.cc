#include "pcw/codec.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "h5/codec_registry.h"
#include "pcw/convert.h"
#include "sz/compressor.h"
#include "zfp/zfp.h"

namespace pcw {
namespace {

static_assert(kMaxBlobHeaderBytes == sz::kMaxHeaderBytes,
              "public header-economy bound must track the sz container");

/// Adapts a registered pcw::Codec to the internal Filter interface; this
/// is the entire bridge an out-of-tree codec crosses into the h5 layer.
class RegisteredCodecFilter final : public h5::Filter {
 public:
  RegisteredCodecFilter(std::uint32_t id, std::unique_ptr<Codec> codec)
      : id_(id), codec_(std::move(codec)) {}

  h5::FilterId id() const override { return static_cast<h5::FilterId>(id_); }

  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> raw,
                                   h5::DataType dtype,
                                   const sz::Dims& dims) const override {
    FieldView view;
    view.dtype = dtype;
    view.bytes = raw;
    view.dims = dims;
    return codec_->encode(view);
  }

  std::vector<std::uint8_t> decode(std::span<const std::uint8_t> blob,
                                   h5::DataType dtype,
                                   std::uint64_t expect_elems) const override {
    return codec_->decode(blob, dtype, expect_elems);
  }

 private:
  std::uint32_t id_;
  std::unique_ptr<Codec> codec_;
};

CodecInfo info_of(const h5::CodecEntry& e) {
  CodecInfo info;
  info.filter_id = e.id;
  info.name = e.name;
  info.caps.supports_decode_region = e.supports_decode_region;
  info.caps.supports_temporal = e.supports_temporal;
  info.builtin = e.builtin;
  return info;
}

bool is_zfp_blob(std::span<const std::uint8_t> blob) {
  return blob.size() >= 4 && std::memcmp(blob.data(), "PZFP", 4) == 0;
}

std::vector<std::uint8_t> take_bytes(const void* data, std::size_t bytes) {
  std::vector<std::uint8_t> out(bytes);
  if (bytes > 0) std::memcpy(out.data(), data, bytes);
  return out;
}

}  // namespace

Status register_codec(std::uint32_t filter_id, std::string name, CodecCaps caps,
                      CodecFactory factory) {
  return detail::guarded_status([&] {
    if (!factory) throw std::invalid_argument("codec: empty factory");
    h5::CodecEntry entry;
    entry.id = filter_id;
    entry.name = std::move(name);
    entry.supports_decode_region = caps.supports_decode_region;
    entry.supports_temporal = caps.supports_temporal;
    entry.builtin = false;
    entry.make = [filter_id, factory = std::move(factory)](const h5::FilterParams&) {
      return std::unique_ptr<h5::Filter>(
          new RegisteredCodecFilter(filter_id, factory()));
    };
    h5::CodecRegistry::instance().add(std::move(entry));
  });
}

std::vector<CodecInfo> registered_codecs() {
  std::vector<CodecInfo> out;
  for (const h5::CodecEntry& e : h5::CodecRegistry::instance().entries()) {
    out.push_back(info_of(e));
  }
  return out;
}

Result<CodecInfo> find_codec(std::uint32_t filter_id) {
  return detail::guarded(
      [&] { return info_of(h5::CodecRegistry::instance().info(filter_id)); });
}

Result<std::vector<std::uint8_t>> encode_blob(const FieldView& field,
                                              const CodecOptions& options) {
  return detail::guarded([&] {
    if (field.bytes.size() != field.dims.count() * element_size(field.dtype)) {
      throw std::invalid_argument("codec: field bytes do not match dims");
    }
    h5::FilterParams params;
    params.sz = detail::to_sz_params(options);
    params.zfp = detail::to_zfp_params(options);
    const auto filter = h5::CodecRegistry::instance().make(options.filter_id, params);
    return filter->encode(field.bytes, field.dtype, field.dims);
  });
}

Result<DecodedBlob> decode_blob(std::span<const std::uint8_t> blob,
                                const FieldView& prev) {
  return detail::guarded([&] {
    DecodedBlob out;
    if (is_zfp_blob(blob)) {
      const std::vector<float> vals = zfp::decompress(blob, &out.dims);
      out.dtype = DType::kFloat32;
      out.bytes = take_bytes(vals.data(), vals.size() * sizeof(float));
      return out;
    }
    const sz::HeaderInfo info = sz::inspect(blob);
    out.dtype = detail::from_sz(info.dtype);
    out.dims = info.dims;
    if (info.temporal_blocks > 0 && prev.bytes.empty()) {
      throw detail::FailedPreconditionError(
          "codec: blob holds temporal blocks; decoding needs the reconstructed "
          "reference step (prev)");
    }
    if (!prev.bytes.empty() && prev.dtype != out.dtype) {
      throw std::invalid_argument("codec: prev dtype differs from blob dtype");
    }
    if (out.dtype == DType::kFloat32) {
      const std::span<const float> ref{
          reinterpret_cast<const float*>(prev.bytes.data()),
          prev.bytes.size() / sizeof(float)};
      const std::vector<float> vals = sz::decompress<float>(blob, ref);
      out.bytes = take_bytes(vals.data(), vals.size() * sizeof(float));
    } else {
      const std::span<const double> ref{
          reinterpret_cast<const double*>(prev.bytes.data()),
          prev.bytes.size() / sizeof(double)};
      const std::vector<double> vals = sz::decompress<double>(blob, ref);
      out.bytes = take_bytes(vals.data(), vals.size() * sizeof(double));
    }
    return out;
  });
}

Result<BlobInfo> inspect_blob(std::span<const std::uint8_t> blob) {
  return detail::guarded([&] {
    BlobInfo out;
    if (is_zfp_blob(blob)) {
      (void)zfp::decompress(blob, &out.dims);  // validates and yields extents
      out.filter_id = kCodecZfp;
      out.codec = "zfp";
      out.dtype = DType::kFloat32;
      return out;
    }
    const sz::HeaderInfo info = sz::inspect(blob);
    out.filter_id = kCodecSz;
    out.codec = "sz";
    out.dtype = detail::from_sz(info.dtype);
    out.dims = info.dims;
    out.abs_error_bound = info.abs_error_bound;
    out.radius = info.radius;
    out.outlier_count = info.outlier_count;
    out.lz_applied = info.lz_applied;
    out.version = info.version;
    out.block_count = info.block_count;
    out.temporal_blocks = info.temporal_blocks;
    out.checksummed = info.checksummed;
    return out;
  });
}

Result<std::vector<BlobBlockInfo>> inspect_blob_blocks(
    std::span<const std::uint8_t> blob) {
  return detail::guarded([&] {
    if (is_zfp_blob(blob)) {
      throw std::invalid_argument("codec: zfp blobs carry no block index");
    }
    const sz::HeaderInfo info = sz::inspect(blob);
    const std::size_t esize = info.dtype == sz::DataType::kFloat32 ? 4 : 8;
    std::vector<BlobBlockInfo> out;
    for (const sz::BlockInfo& blk : sz::inspect_blocks(blob)) {
      BlobBlockInfo b;
      b.elem_count = blk.elem_count;
      b.stored_bytes = blk.stored_bytes(esize);
      b.temporal = blk.predictor == sz::Predictor::kTemporal;
      out.push_back(b);
    }
    return out;
  });
}

BlobVerifyReport verify_blob(std::span<const std::uint8_t> blob, bool deep) {
  BlobVerifyReport out;
  if (is_zfp_blob(blob)) {
    // zfp carries no checksums; a full decode is the only structural check.
    try {
      sz::Dims dims;
      (void)zfp::decompress(blob, &dims);
      out.parsed = true;
      out.ok = true;
    } catch (const std::exception& e) {
      out.detail = e.what();
    }
    return out;
  }
  const sz::BlobVerifyReport rep = sz::verify_blob(blob, deep);
  out.parsed = rep.parsed;
  out.version = rep.version;
  out.checksummed = rep.checksummed;
  out.ok = rep.ok;
  out.damaged_blocks = rep.damaged_blocks;
  out.detail = rep.detail;
  return out;
}

}  // namespace pcw
