// Reference statistics for the detectors that standardize each point
// against a baseline level and scale (CUSUM, EWMA chart, Page-Hinkley):
// one fit, shared by their batch Score and their online adapters.

#ifndef TSAD_DETECTORS_REFERENCE_STATS_H_
#define TSAD_DETECTORS_REFERENCE_STATS_H_

#include <cstddef>
#include <vector>

namespace tsad {

/// The floor on a fitted reference sigma.
inline constexpr double kMinReferenceSigma = 1e-9;

/// The level and scale a reference-statistics detector standardizes by.
struct ReferenceStats {
  double mu = 0.0;
  double sigma = kMinReferenceSigma;
};

/// Mean and std of the training prefix when 8 <= train_length <=
/// series.size(); otherwise median and 1.4826 * MAD of the whole
/// series, so the anomaly cannot contaminate the baseline. Sigma is
/// floored at kMinReferenceSigma. An online stream that ends before its
/// prefix completes fits what it saw with the same call, which takes
/// the robust branch exactly as the batch path does.
ReferenceStats FitReferenceStats(const std::vector<double>& series,
                                 std::size_t train_length);

}  // namespace tsad

#endif  // TSAD_DETECTORS_REFERENCE_STATS_H_
