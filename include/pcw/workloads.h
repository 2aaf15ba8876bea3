// pcw toolkit — synthetic scientific workloads (Nyx/VPIC-like fields,
// noise models, domain decomposition) used by the examples and benches.
//
// In-tree convenience surface: re-exports the library's data layer so
// examples/tools/bench compile against "pcw/" headers only. Not part of
// the installed API (see docs/public_api.md). The generators take
// pcw::Dims directly (the data layer's extent type is the public one).
#pragma once

#include "data/noise.h"      // IWYU pragma: export
#include "data/workloads.h"  // IWYU pragma: export
#include "pcw/types.h"
