#include "pcw/status.h"

#include "pcw/types.h"

namespace pcw {

const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kCorruptData: return "CORRUPT_DATA";
    case StatusCode::kIoError: return "IO_ERROR";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
  }
  return "?";
}

std::string Status::to_string() const {
  if (ok()) return "OK";
  return std::string(pcw::to_string(code_)) + ": " + message_;
}

const char* to_string(DType t) {
  switch (t) {
    case DType::kFloat32: return "float32";
    case DType::kFloat64: return "float64";
    case DType::kBytes: return "bytes";
  }
  return "?";
}

const char* to_string(WriteMode mode) {
  switch (mode) {
    case WriteMode::kNoCompression: return "no-compression";
    case WriteMode::kFilterCollective: return "filter-collective";
    case WriteMode::kOverlap: return "overlap";
    case WriteMode::kOverlapReorder: return "overlap+reorder";
  }
  return "?";
}

}  // namespace pcw
