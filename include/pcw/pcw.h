// pcw — public API umbrella.
//
// Predictive-compression parallel write path (SC'22 reproduction):
//
//   #include "pcw/pcw.h"
//
//   auto writer = pcw::Writer::create("out.pcw5");
//   pcw::run(8, [&](pcw::Rank& rank) {
//     pcw::Field f{"rho", pcw::FieldView::of(my_slice, local_dims), global_dims,
//                  pcw::CodecOptions().with_error_bound(1e-3)};
//     writer->write(rank, {&f, 1});
//     writer->close(rank);
//   });
//
// Everything lives in namespace pcw. See docs/public_api.md for the tour
// (error model, codec registry extension how-to, series engine).
#pragma once

#include "pcw/codec.h"     // codec registry, blob-level compress/inspect
#include "pcw/reader.h"    // Reader, DatasetInfo, region + multi-field reads
#include "pcw/runtime.h"   // SPMD run() + Rank
#include "pcw/series.h"    // SeriesWriter, restart(), read_series()
#include "pcw/status.h"    // Status, Result<T>
#include "pcw/telemetry.h" // Telemetry, tracing control plane
#include "pcw/types.h"     // DType, Dims, Region, FieldView, mode enums
#include "pcw/writer.h"    // Writer, Field, WriterOptions
