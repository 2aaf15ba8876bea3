// Internal glue for the pcw:: façade: codec-option mapping, the typed ↔
// byte-vector helpers, and the exception → Status boundary every façade
// entry point funnels through. The value types need no conversion: the
// engine aliases the public ones (pcw/types.h).
#pragma once

#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pcw/codec.h"
#include "pcw/status.h"
#include "pcw/types.h"
#include "sz/compressor.h"
#include "util/io_error.h"
#include "zfp/zfp.h"

namespace pcw::detail {

/// sz's element-type tag is narrower than DType (no kBytes).
inline DType from_sz(sz::DataType t) {
  return t == sz::DataType::kFloat32 ? DType::kFloat32 : DType::kFloat64;
}

inline sz::Params to_sz_params(const CodecOptions& c) {
  sz::Params p;
  p.mode = c.mode;
  p.error_bound = c.error_bound;
  p.radius = c.radius;
  p.lossless = c.lossless;
  return p;
}

inline zfp::Params to_zfp_params(const CodecOptions& c) {
  zfp::Params p;
  p.rate_bits = static_cast<int>(c.rate_bits);
  return p;
}

/// Copies a typed vector out as raw element bytes (the type-erased return
/// convention of the façade's *_bytes methods).
template <typename T>
std::vector<std::uint8_t> to_bytes(const std::vector<T>& vals) {
  std::vector<std::uint8_t> out(vals.size() * sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), vals.data(), out.size());
  return out;
}

/// Erases a typed read result to the byte-vector convention of the
/// façade's `*_bytes` methods.
template <typename T>
Result<std::vector<std::uint8_t>> erase_typed(Result<std::vector<T>> r) {
  if (!r.ok()) return r.status();
  return to_bytes(*r);
}
template <typename T>
Result<std::vector<std::vector<std::uint8_t>>> erase_typed(
    Result<std::vector<std::vector<T>>> r) {
  if (!r.ok()) return r.status();
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(r->size());
  for (const auto& vals : *r) out.push_back(to_bytes(vals));
  return out;
}

/// Dispatches a runtime dtype tag onto a typed callable (invoked with a
/// float or double tag value); the byte dtype is uniformly unsupported
/// at the façade.
template <typename Fn>
auto dispatch_dtype(DType expected, Fn&& fn) -> decltype(fn(float{})) {
  if (expected == DType::kFloat32) return fn(float{});
  if (expected == DType::kFloat64) return fn(double{});
  return Status(StatusCode::kInvalidArgument,
                "pcw: raw-bytes datasets are not supported; use kFloat32/kFloat64");
}

/// Thrown inside a guarded() body for call-sequencing errors that must
/// surface as kFailedPrecondition (a plain runtime_error would classify
/// as kCorruptData).
class FailedPreconditionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Maps the in-flight exception to a Status. Classification keys off the
/// exception type first and well-known message prefixes second (the
/// engine throws std::invalid_argument for caller bugs and
/// std::runtime_error for corrupt data / I/O, with "no dataset named" /
/// "already registered" / errno text distinguishing the finer codes).
inline Status status_from_current_exception() {
  // A Status round-tripped through a thrown runtime_error — the
  // documented rank-body idiom is `throw std::runtime_error(
  // status.to_string())` — keeps its code and message instead of
  // degrading to the fallback (an ENOSPC must not resurface as
  // kCorruptData with a doubled prefix).
  auto unwrap = [](const std::string& msg) -> std::optional<Status> {
    constexpr StatusCode kPrefixed[] = {
        StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kCorruptData,     StatusCode::kIoError,
        StatusCode::kFailedPrecondition, StatusCode::kAlreadyExists,
        StatusCode::kInternal,        StatusCode::kResourceExhausted,
    };
    for (StatusCode code : kPrefixed) {
      const std::string prefix = std::string(pcw::to_string(code)) + ": ";
      if (msg.rfind(prefix, 0) == 0) {
        return Status(code, msg.substr(prefix.size()));
      }
    }
    return std::nullopt;
  };
  auto classify = [](StatusCode fallback, const std::string& msg) {
    const auto has = [&](const char* needle) {
      return msg.find(needle) != std::string::npos;
    };
    if (has("no dataset named") || has("no codec registered") || has("no series") ||
        has("unknown series") || has("unknown step") || has("no step")) {
      return StatusCode::kNotFound;
    }
    if (has("already registered") || has("duplicate dataset")) {
      return StatusCode::kAlreadyExists;
    }
    if (has("open for read") || has("open for create") || has("pread") ||
        has("pwrite")) {
      return StatusCode::kIoError;
    }
    return fallback;
  };
  try {
    throw;
  } catch (const FailedPreconditionError& e) {
    return {StatusCode::kFailedPrecondition, e.what()};
  } catch (const std::invalid_argument& e) {
    if (auto s = unwrap(e.what())) return *s;
    return {classify(StatusCode::kInvalidArgument, e.what()), e.what()};
  } catch (const util::IoError& e) {
    // Must precede the runtime_error arm (IoError derives from it). A full
    // device/quota is actionable by the caller, so it gets its own code.
    return {e.resource_exhausted() ? StatusCode::kResourceExhausted
                                   : StatusCode::kIoError,
            e.what()};
  } catch (const std::runtime_error& e) {
    if (auto s = unwrap(e.what())) return *s;
    return {classify(StatusCode::kCorruptData, e.what()), e.what()};
  } catch (const std::exception& e) {
    return {StatusCode::kInternal, e.what()};
  } catch (...) {
    return {StatusCode::kInternal, "unknown exception"};
  }
}

/// Runs `fn` inside the exception → Status boundary. `fn` returns the
/// Result's value type.
template <typename Fn>
auto guarded(Fn&& fn) -> Result<decltype(fn())> {
  try {
    return std::forward<Fn>(fn)();
  } catch (...) {
    return status_from_current_exception();
  }
}

/// Status-returning variant for void operations.
template <typename Fn>
Status guarded_status(Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
    return Status::Ok();
  } catch (...) {
    return status_from_current_exception();
  }
}

}  // namespace pcw::detail
