// The UCR Time Series Anomaly Archive toolkit (§3): dataset naming,
// construction of single-anomaly datasets (natural-with-out-of-band
// confirmation and synthetic-but-plausible insertion), structural
// validation, difficulty calibration, and the evaluation harness that
// scores detectors by the archive's binary accuracy protocol.
//
// File-name convention (§3.1):
//   UCR_Anomaly_<base>_<train>_<begin>_<end>
// means: the first <train> points are anomaly-free training data, and
// the single anomaly lies in [<begin>, <end>).

#ifndef TSAD_CORE_UCR_ARCHIVE_H_
#define TSAD_CORE_UCR_ARCHIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/series.h"
#include "common/status.h"
#include "detectors/detector.h"
#include "scoring/ucr_score.h"

namespace tsad {

/// Parsed UCR dataset name.
struct UcrName {
  std::string base;
  std::size_t train_length = 0;
  std::size_t anomaly_begin = 0;
  std::size_t anomaly_end = 0;
};

/// Formats "UCR_Anomaly_<base>_<train>_<begin>_<end>".
std::string FormatUcrName(const UcrName& name);

/// Parses a UCR archive file name; accepts names with or without the
/// "UCR_Anomaly_" prefix. Returns InvalidArgument on malformed names.
Result<UcrName> ParseUcrName(const std::string& name);

/// Validates the UCR structural contract: exactly one anomaly region,
/// entirely after the training prefix; a nonempty training prefix; the
/// name (if UCR-formatted) consistent with the labels.
Status ValidateUcrDataset(const LabeledSeries& series);

/// Synthetic-but-plausible insertion transforms (§3.2).
enum class UcrInjection {
  kSpike,       // point outlier (the AspenTech -9999-style dropout too)
  kDropout,
  kFreeze,
  kSmoothHump,
  kTimeWarp,
};

std::string_view UcrInjectionName(UcrInjection kind);

/// Builds a UCR dataset from an anomaly-free base series by injecting
/// one anomaly at a random test-span location (never inside the
/// training prefix). `scale` multiplies the injection's default
/// magnitude (spike/dropout/hump amplitude, freeze width, warp
/// stretch); 1.0 is the stock size. Returns InvalidArgument when the
/// base is too short for the requested split.
Result<LabeledSeries> MakeUcrDataset(const std::string& base_name,
                                     Series base_values,
                                     std::size_t train_length,
                                     UcrInjection kind, Rng& rng,
                                     double scale = 1.0);

/// Difficulty rating (§3.2 "thread the needle between too easy and too
/// difficult").
enum class UcrDifficulty {
  kTrivial,     // a one-liner solves it
  kModerate,    // a fixed-window discord finds it
  kHard,        // neither does
};

std::string_view UcrDifficultyName(UcrDifficulty difficulty);

/// Rates a dataset by actually running the one-liner search and a
/// discord detector against it.
UcrDifficulty RateDifficulty(const LabeledSeries& series,
                             std::size_t discord_window = 64);

/// §3.2's "thread the needle between being too easy, and too
/// difficult", operationalized: bisect the injection magnitude until
/// the dataset rates `target` difficulty (default kModerate — hard
/// enough to defeat the one-liners, easy enough that a discord finds
/// it). The anomaly position and flavor are held fixed across the
/// search (every attempt replays the same RNG stream). Returns
/// NotFound if no magnitude in [0.02x, 8x] hits the target within 10
/// bisection steps.
Result<LabeledSeries> MakeCalibratedUcrDataset(
    const std::string& base_name, const Series& base_values,
    std::size_t train_length, UcrInjection kind, uint64_t seed,
    UcrDifficulty target = UcrDifficulty::kModerate);


/// A demo archive built entirely from this repository's simulators —
/// physiology, gait, industrial sawtooth, machine telemetry — spanning
/// trivial to hard, single anomaly each.
struct UcrArchive {
  std::vector<LabeledSeries> datasets;
};
UcrArchive BuildDemoArchive(uint64_t seed = 99);

/// The full multi-domain archive: the demo archive plus datasets built
/// from every domain generator in datasets/domains.h (entomology,
/// robotics, industry, urban sensing, space science) across all five
/// injection kinds — ~28 single-anomaly datasets spanning trivial to
/// hard, mirroring §3's "the datasets span many domains".
UcrArchive BuildFullArchive(uint64_t seed = 99);

/// Runs a detector over an archive under the UCR protocol: score the
/// series, take the argmax over the test span, check it against the
/// labeled region (with the default UCR slop). Series the detector
/// errors on count as incorrect (with the error recorded in the
/// outcome's name field).
/// When detector.concurrent_score_safe() holds, series are scored in
/// parallel over the common/parallel.h pool; outcomes are placed in
/// archive order regardless of thread count.
UcrAccuracy EvaluateOnArchive(const AnomalyDetector& detector,
                              const UcrArchive& archive);

}  // namespace tsad

#endif  // TSAD_CORE_UCR_ARCHIVE_H_
