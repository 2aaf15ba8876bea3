// pcw::core::scrub_file — offline damage audit of a checkpoint file.
//
// Walks every dataset of an open file and verifies what can be verified
// without decoding: extent/structure checks for every partition and, for
// v4 sz containers, the stored checksums (deep mode additionally checks
// the codebook and every per-block CRC, localizing damage to block
// indices). A second pass follows series restart chains so a step whose
// own bytes are fine but whose chain passes through a damaged ancestor is
// reported damaged too — with `salvageable` telling whether a degraded
// read (SeriesReadConfig::degraded: keyframe fallback) can still deliver
// data for it. pcw::Reader::scrub and `pcw5ls --scrub` surface this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "h5/file.h"
#include "pcw/types.h"

namespace pcw::core {

using DatasetHealth = pcw::ScrubHealth;

struct DatasetScrub {
  std::string name;
  DatasetHealth state = DatasetHealth::kClean;
  /// Damaged, but a degraded series read can still deliver data for this
  /// dataset (its chain's keyframe is intact). Always false when clean.
  bool salvageable = false;
  std::uint64_t partitions = 0;
  std::uint64_t damaged_partitions = 0;
  /// First damage found, naming partition (and blocks when localized).
  std::string detail;
};

struct ScrubReport {
  std::vector<DatasetScrub> datasets;
  std::uint64_t clean = 0;
  std::uint64_t damaged = 0;
  std::uint64_t unreadable = 0;
  bool ok() const { return damaged == 0 && unreadable == 0; }
};

/// Scrubs every dataset of `file`. `deep` additionally decodes v4 sz
/// payload structure far enough to CRC the codebook and each block,
/// naming the damaged block indices in `detail` (one extra pass over the
/// stored bytes; still no entropy decode).
ScrubReport scrub_file(const h5::File& file, bool deep = true);

}  // namespace pcw::core
