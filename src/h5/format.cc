#include "h5/format.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/crc32c.h"
#include "util/pod_io.h"

namespace pcw::h5 {
namespace {

template <typename T>
void put(std::vector<std::uint8_t>& out, const T& v) {
  util::append_pod(out, v);
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

template <typename T>
T get(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  if (pos + sizeof(T) > in.size()) throw std::runtime_error("h5: truncated footer");
  T v;
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

std::string get_string(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  const auto len = get<std::uint32_t>(in, pos);
  if (pos + len > in.size()) throw std::runtime_error("h5: truncated footer string");
  std::string s(reinterpret_cast<const char*>(in.data() + pos), len);
  pos += len;
  return s;
}

}  // namespace

std::string series_dataset_name(const std::string& base, std::uint32_t step) {
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, "@t%04u", step);
  return base + suffix;
}

std::vector<std::uint8_t> serialize_footer(const std::vector<DatasetDesc>& datasets) {
  std::vector<std::uint8_t> out;
  put(out, static_cast<std::uint32_t>(datasets.size()));
  for (const auto& d : datasets) {
    put_string(out, d.name);
    put(out, static_cast<std::uint8_t>(d.dtype));
    put(out, static_cast<std::uint8_t>(d.layout));
    put(out, static_cast<std::uint32_t>(d.filter));
    put(out, static_cast<std::uint64_t>(d.global_dims.d0));
    put(out, static_cast<std::uint64_t>(d.global_dims.d1));
    put(out, static_cast<std::uint64_t>(d.global_dims.d2));
    put(out, d.abs_error_bound);
    put(out, d.file_offset);
    put(out, d.nbytes);
    put(out, static_cast<std::uint8_t>(d.series_member ? 1 : 0));
    if (d.series_member) {
      put_string(out, d.series_base);
      put(out, d.series_step);
      put(out, d.series_ref_step);
    }
    put(out, static_cast<std::uint64_t>(d.partitions.size()));
    for (const auto& p : d.partitions) {
      put(out, p.rank);
      put(out, p.elem_offset);
      put(out, p.elem_count);
      put(out, p.file_offset);
      put(out, p.reserved_bytes);
      put(out, p.actual_bytes);
      put(out, p.overflow_offset);
      put(out, p.overflow_bytes);
    }
  }
  return out;
}

std::vector<DatasetDesc> parse_footer(const std::vector<std::uint8_t>& bytes,
                                      std::uint32_t version) {
  if (version < kVersionMin || version > kVersion) {
    throw std::runtime_error("h5: unsupported footer version");
  }
  std::size_t pos = 0;
  const auto n = get<std::uint32_t>(bytes, pos);
  // Cap counts against the bytes present before reserving/resizing: a
  // corrupt count must fail the parse, not size an allocation. Every
  // dataset record is well over one byte, every partition record is
  // exactly 60 bytes.
  if (n > bytes.size()) throw std::runtime_error("h5: truncated footer");
  std::vector<DatasetDesc> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    DatasetDesc d;
    d.name = get_string(bytes, pos);
    // Legacy footers carry no CRC and a crafted one can carry a valid
    // CRC, so the enum bytes are range-checked before they are cast.
    const auto dtype = get<std::uint8_t>(bytes, pos);
    const auto layout = get<std::uint8_t>(bytes, pos);
    if (dtype > kMaxDataType) throw std::runtime_error("h5: corrupt footer (bad dtype)");
    if (layout > kMaxLayout) throw std::runtime_error("h5: corrupt footer (bad layout)");
    d.dtype = static_cast<DataType>(dtype);
    d.layout = static_cast<Layout>(layout);
    d.filter = static_cast<FilterId>(get<std::uint32_t>(bytes, pos));
    d.global_dims.d0 = get<std::uint64_t>(bytes, pos);
    d.global_dims.d1 = get<std::uint64_t>(bytes, pos);
    d.global_dims.d2 = get<std::uint64_t>(bytes, pos);
    d.abs_error_bound = get<double>(bytes, pos);
    d.file_offset = get<std::uint64_t>(bytes, pos);
    d.nbytes = get<std::uint64_t>(bytes, pos);
    if (version >= 2) {
      d.series_member = get<std::uint8_t>(bytes, pos) != 0;
      if (d.series_member) {
        d.series_base = get_string(bytes, pos);
        d.series_step = get<std::uint32_t>(bytes, pos);
        d.series_ref_step = get<std::uint32_t>(bytes, pos);
        if (d.series_ref_step > d.series_step) {
          throw std::runtime_error("h5: series step references a later step");
        }
      }
    }
    const auto nparts = get<std::uint64_t>(bytes, pos);
    if (nparts > (bytes.size() - pos) / 60) {
      throw std::runtime_error("h5: truncated footer");
    }
    d.partitions.resize(nparts);
    for (auto& p : d.partitions) {
      p.rank = get<std::uint32_t>(bytes, pos);
      p.elem_offset = get<std::uint64_t>(bytes, pos);
      p.elem_count = get<std::uint64_t>(bytes, pos);
      p.file_offset = get<std::uint64_t>(bytes, pos);
      p.reserved_bytes = get<std::uint64_t>(bytes, pos);
      p.actual_bytes = get<std::uint64_t>(bytes, pos);
      p.overflow_offset = get<std::uint64_t>(bytes, pos);
      p.overflow_bytes = get<std::uint64_t>(bytes, pos);
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<std::uint8_t> seal_footer(const std::vector<DatasetDesc>& datasets) {
  std::vector<std::uint8_t> out = serialize_footer(datasets);
  const std::uint32_t payload_crc = util::crc32c(0, out.data(), out.size());
  const std::uint64_t payload_size = out.size();
  put(out, payload_crc);
  put(out, payload_size);
  put(out, kVersion);
  put(out, kFooterMagic);
  return out;
}

std::vector<DatasetDesc> parse_sealed_footer(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kFooterTrailerBytes) {
    throw std::runtime_error("h5: footer too small");
  }
  const std::size_t tail = bytes.size() - kFooterTrailerBytes;
  std::uint32_t payload_crc, version, magic;
  std::uint64_t payload_size;
  std::memcpy(&payload_crc, bytes.data() + tail, 4);
  std::memcpy(&payload_size, bytes.data() + tail + 4, 8);
  std::memcpy(&version, bytes.data() + tail + 12, 4);
  std::memcpy(&magic, bytes.data() + tail + 16, 4);
  if (magic != kFooterMagic) throw std::runtime_error("h5: bad footer magic");
  if (version < 3 || version > kVersion) {
    throw std::runtime_error("h5: unsupported footer version");
  }
  if (payload_size != tail) throw std::runtime_error("h5: footer size mismatch");
  if (util::crc32c(0, bytes.data(), tail) != payload_crc) {
    throw std::runtime_error("h5: footer checksum mismatch");
  }
  std::vector<std::uint8_t> payload(bytes.begin(),
                                    bytes.begin() + static_cast<std::ptrdiff_t>(tail));
  return parse_footer(payload, version);
}

void serialize_slot(const SuperblockSlot& slot, std::uint8_t* out) {
  std::memset(out, 0, kSuperblockSlotSize);
  std::memcpy(out + 0, &kMagic, 4);
  std::memcpy(out + 4, &kVersion, 4);
  std::memcpy(out + 8, &slot.seq, 8);
  std::memcpy(out + 16, &slot.footer_off, 8);
  std::memcpy(out + 24, &slot.footer_size, 8);
  std::memcpy(out + 32, &slot.footer_crc, 4);
  const std::uint32_t slot_crc = util::crc32c(0, out, 36);
  std::memcpy(out + 36, &slot_crc, 4);
}

std::optional<SuperblockSlot> parse_slot(const std::uint8_t* in) {
  std::uint32_t magic, version, slot_crc;
  std::memcpy(&magic, in + 0, 4);
  std::memcpy(&version, in + 4, 4);
  std::memcpy(&slot_crc, in + 36, 4);
  if (magic != kMagic || version < 3 || version > kVersion) return std::nullopt;
  if (util::crc32c(0, in, 36) != slot_crc) return std::nullopt;
  SuperblockSlot s;
  std::memcpy(&s.seq, in + 8, 8);
  std::memcpy(&s.footer_off, in + 16, 8);
  std::memcpy(&s.footer_size, in + 24, 8);
  std::memcpy(&s.footer_crc, in + 32, 4);
  return s;
}

}  // namespace pcw::h5
