// Umbrella header for the tsad library — a C++ reproduction of
// Wu & Keogh, "Current Time Series Anomaly Detection Benchmarks are
// Flawed and are Creating the Illusion of Progress" (ICDE 2022).
//
// Include this to get the whole public API; include the individual
// module headers to keep compile times down.

#ifndef TSAD_TSAD_H_
#define TSAD_TSAD_H_

#include "common/csv.h"          // IWYU pragma: export
#include "common/fft.h"          // IWYU pragma: export
#include "common/parallel.h"     // IWYU pragma: export
#include "common/rng.h"          // IWYU pragma: export
#include "common/series.h"       // IWYU pragma: export
#include "common/stats.h"        // IWYU pragma: export
#include "common/status.h"       // IWYU pragma: export
#include "common/vector_ops.h"   // IWYU pragma: export
#include "common/wire.h"         // IWYU pragma: export

#include "substrates/matrix_profile.h"     // IWYU pragma: export
#include "substrates/sliding_window.h"     // IWYU pragma: export

#include "detectors/cusum.h"          // IWYU pragma: export
#include "detectors/detector.h"       // IWYU pragma: export
#include "detectors/discord.h"        // IWYU pragma: export
#include "detectors/merlin.h"         // IWYU pragma: export
#include "detectors/moving_zscore.h"  // IWYU pragma: export
#include "detectors/control_chart.h"  // IWYU pragma: export
#include "detectors/multivariate.h"   // IWYU pragma: export
#include "detectors/naive.h"          // IWYU pragma: export
#include "detectors/semisup_discord.h"  // IWYU pragma: export
#include "detectors/oneliner.h"       // IWYU pragma: export
#include "detectors/reference_stats.h"  // IWYU pragma: export
#include "detectors/registry.h"       // IWYU pragma: export
#include "detectors/seasonal_esd.h"   // IWYU pragma: export
#include "detectors/spectral_residual.h"  // IWYU pragma: export
#include "detectors/streaming_discord.h"  // IWYU pragma: export
#include "detectors/telemanom.h"      // IWYU pragma: export

#include "datasets/domains.h"     // IWYU pragma: export
#include "datasets/gait.h"        // IWYU pragma: export
#include "datasets/generators.h"  // IWYU pragma: export
#include "datasets/nasa.h"        // IWYU pragma: export
#include "datasets/numenta.h"     // IWYU pragma: export
#include "datasets/omni.h"        // IWYU pragma: export
#include "datasets/physio.h"      // IWYU pragma: export
#include "datasets/yahoo.h"       // IWYU pragma: export

#include "scoring/affiliation.h"   // IWYU pragma: export
#include "scoring/auc.h"           // IWYU pragma: export
#include "scoring/confusion.h"     // IWYU pragma: export
#include "scoring/delay.h"         // IWYU pragma: export
#include "scoring/nab.h"           // IWYU pragma: export
#include "scoring/point_adjust.h"  // IWYU pragma: export
#include "scoring/range_pr.h"      // IWYU pragma: export
#include "scoring/ucr_score.h"     // IWYU pragma: export

#include "serving/admission.h"        // IWYU pragma: export
#include "serving/engine.h"           // IWYU pragma: export
#include "serving/online_adapters.h"  // IWYU pragma: export
#include "serving/online_detector.h"  // IWYU pragma: export
#include "serving/replay.h"           // IWYU pragma: export

#include "robustness/fault_injector.h"  // IWYU pragma: export
#include "robustness/matrix.h"          // IWYU pragma: export
#include "robustness/resilient.h"       // IWYU pragma: export
#include "robustness/sanitize.h"        // IWYU pragma: export

#include "core/benchmark_audit.h"  // IWYU pragma: export
#include "core/density.h"          // IWYU pragma: export
#include "core/invariance.h"       // IWYU pragma: export
#include "core/leaderboard.h"      // IWYU pragma: export
#include "core/mislabel.h"         // IWYU pragma: export
#include "core/relabel.h"          // IWYU pragma: export
#include "core/report.h"           // IWYU pragma: export
#include "core/run_to_failure.h"   // IWYU pragma: export
#include "core/triviality.h"       // IWYU pragma: export
#include "core/ucr_archive.h"      // IWYU pragma: export

#endif  // TSAD_TSAD_H_
