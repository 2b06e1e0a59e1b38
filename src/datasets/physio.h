// Synthetic physiological signals for the UCR-archive construction
// demos and the Fig 13 invariance study:
//
//  * ECG: a Gaussian-wave beat model (P-QRS-T, ECGSYN-flavored) with a
//    single premature ventricular contraction (PVC) — the anomaly in
//    Fig 13's one-minute electrocardiogram.
//  * BIDMC-style pleth + parallel ECG pair (Fig 11): the pleth anomaly
//    is subtle; the simultaneously recorded ECG shows the PVC plainly,
//    providing the "out-of-band" confirmation of §3.1. The mechanical
//    pleth signal lags the electrical ECG by kPhysioPlethLagSec.

#ifndef TSAD_DATASETS_PHYSIO_H_
#define TSAD_DATASETS_PHYSIO_H_

#include <cstdint>

#include "common/series.h"

namespace tsad {

/// Sample rate of every generated signal.
inline constexpr double kPhysioSampleRateHz = 200.0;
/// Mechanical delay of the pleth pulse behind the ECG beat.
inline constexpr double kPhysioPlethLagSec = 0.15;

struct PhysioConfig {
  uint64_t seed = 5;
  double duration_sec = 60.0;    // Fig 13 uses one minute => 12000 pts
};

/// One-channel ECG with a single PVC; the label covers the aberrant
/// QRS complex. train-free (train_length = 0) by default; callers set
/// a prefix when a detector needs one.
LabeledSeries GenerateEcgWithPvc(const PhysioConfig& config = {});

/// A parallel pleth/ECG recording. `pleth` is the UCR-style dataset
/// (training prefix = first `train_length` points, single anomaly =
/// the weak pulse caused by the PVC, shifted by the mechanical lag);
/// `ecg` is the out-of-band confirmation channel.
struct EcgPlethPair {
  LabeledSeries pleth;
  LabeledSeries ecg;
};
EcgPlethPair GenerateBidmcPair(const PhysioConfig& config = {},
                               std::size_t train_length = 2500);

}  // namespace tsad

#endif  // TSAD_DATASETS_PHYSIO_H_
