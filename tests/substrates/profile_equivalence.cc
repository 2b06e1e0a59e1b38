#include "profile_equivalence.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "datasets/gait.h"
#include "datasets/nasa.h"
#include "datasets/numenta.h"
#include "datasets/omni.h"
#include "datasets/physio.h"
#include "datasets/yahoo.h"
#include "substrates/profile_internal.h"
#include "substrates/sliding_window.h"
#include "substrates/streaming_mpx.h"

namespace tsad {
namespace testing {

namespace {

std::vector<double> TruncatedTo(const std::vector<double>& x, std::size_t n) {
  return std::vector<double>(
      x.begin(), x.begin() + static_cast<std::ptrdiff_t>(std::min(n,
                                                                  x.size())));
}

// One side of an oracle join: per-subsequence flat flags and every
// dynamic subsequence z-normalized with the given moments, row-major
// (count x m; flat rows stay zero and are never read).
struct NaiveSide {
  std::size_t m = 0;
  std::size_t count = 0;
  std::vector<std::uint8_t> flat;
  std::vector<double> z;
};

NaiveSide MakeSide(const double* x, std::size_t count, std::size_t m,
                   const double* means, const double* stds) {
  NaiveSide side;
  side.m = m;
  side.count = count;
  side.flat.assign(count, 0);
  side.z.assign(count * m, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    if (profile_internal::IsFlat(means[i], stds[i])) {
      side.flat[i] = 1;
      continue;
    }
    for (std::size_t k = 0; k < m; ++k) {
      side.z[i * m + k] = (x[i + k] - means[i]) / stds[i];
    }
  }
  return side;
}

NaiveSide MakeSide(const std::vector<double>& x, std::size_t m) {
  const WindowStats stats = ComputeWindowStats(x, m);
  return MakeSide(x.data(), stats.size(), m, stats.means.data(),
                  stats.stds.data());
}

// Euclidean distance of two length-m rows. Four partial sums only to
// keep the O(n^2 m) oracle affordable at test sizes.
double RowDistance(const double* a, const double* b, std::size_t m) {
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t k = 0;
  for (; k + 4 <= m; k += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      const double d = a[k + l] - b[k + l];
      s[l] += d * d;
    }
  }
  for (; k < m; ++k) s[0] += (a[k] - b[k]) * (a[k] - b[k]);
  return std::sqrt((s[0] + s[1]) + (s[2] + s[3]));
}

// The oracle: for every entry i of `a`, the nearest entry j of `b` that
// `eligible(i, j)` admits, scanning j ascending with a strict '<' (the
// lowest index wins ties, so a flat entry lands on its lowest eligible
// flat neighbor). Rows are independent, so spreading them over the
// pool cannot change a bit.
template <typename Eligible>
MatrixProfile NaiveJoin(const NaiveSide& a, const NaiveSide& b,
                        const Eligible& eligible) {
  const std::size_t m = a.m;
  const double sqrt_two_m = std::sqrt(2.0 * static_cast<double>(m));
  MatrixProfile profile;
  profile.subsequence_length = m;
  profile.distances.assign(a.count, std::numeric_limits<double>::infinity());
  profile.indices.assign(a.count, kNoNeighbor);
  const Status status = ParallelFor(0, a.count, [&](std::size_t i) -> Status {
    for (std::size_t j = 0; j < b.count; ++j) {
      if (!eligible(i, j)) continue;
      double d;
      if (a.flat[i] && b.flat[j]) {
        d = 0.0;
      } else if (a.flat[i] || b.flat[j]) {
        d = sqrt_two_m;
      } else {
        d = RowDistance(&a.z[i * m], &b.z[j * m], m);
      }
      if (d < profile.distances[i]) {
        profile.distances[i] = d;
        profile.indices[i] = j;
      }
    }
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return profile;
}

std::vector<std::uint8_t> FlatFlags(const std::vector<double>& x,
                                    std::size_t m) {
  const WindowStats stats = ComputeWindowStats(x, m);
  std::vector<std::uint8_t> flat(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    flat[i] = profile_internal::IsFlat(stats.means[i], stats.stds[i]);
  }
  return flat;
}

// The three-clause contract (plus the no-neighbor clause). `flat` holds
// the flat classification of the entries' side. `label` names the
// candidate in failure messages. Clause 3 compares the top
// kContractDiscords discords.
constexpr std::size_t kContractDiscords = 3;
::testing::AssertionResult CheckProfileContract(
    const MatrixProfile& oracle, const MatrixProfile& candidate,
    const std::vector<std::uint8_t>& flat, const char* label) {
  if (candidate.size() != oracle.size() ||
      candidate.subsequence_length != oracle.subsequence_length) {
    return ::testing::AssertionFailure()
           << "profile shapes differ: " << label << " " << candidate.size()
           << "/m=" << candidate.subsequence_length << " vs oracle "
           << oracle.size() << "/m=" << oracle.subsequence_length;
  }

  const double sq_tol =
      2.0 * static_cast<double>(oracle.subsequence_length) * kMpxCorrTolerance;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    const double ref_d = oracle.distances[i];
    const double cand_d = candidate.distances[i];
    if (std::isinf(ref_d) || std::isinf(cand_d)) {
      // No-eligible-neighbor entries must be +inf/kNoNeighbor on BOTH
      // sides — a kernel that invents or loses a neighbor is wrong
      // regardless of tolerance.
      if (cand_d != ref_d || candidate.indices[i] != oracle.indices[i]) {
        return ::testing::AssertionFailure()
               << "entry " << i << " neighbor eligibility differs: oracle d="
               << ref_d << " j=" << oracle.indices[i] << ", " << label
               << " d=" << cand_d << " j=" << candidate.indices[i];
      }
      continue;
    }
    if (flat[i]) {
      if (cand_d != ref_d ||
          (ref_d == 0.0 && candidate.indices[i] != oracle.indices[i])) {
        return ::testing::AssertionFailure()
               << "flat entry " << i << " must match exactly: oracle d="
               << ref_d << " j=" << oracle.indices[i] << ", " << label
               << " d=" << cand_d << " j=" << candidate.indices[i];
      }
      continue;
    }
    const double err = std::fabs(ref_d * ref_d - cand_d * cand_d);
    if (!(err <= sq_tol)) {  // negated: catches NaN too
      return ::testing::AssertionFailure()
             << "entry " << i << " out of tolerance: oracle d=" << ref_d
             << " " << label << " d=" << cand_d << " squared-distance error "
             << err << " > " << sq_tol << " (= 2m * " << kMpxCorrTolerance
             << ")";
    }
  }

  // Discord positions and ordering, exactly.
  const std::vector<Discord> ref_discords =
      TopDiscords(oracle, kContractDiscords);
  const std::vector<Discord> cand_discords =
      TopDiscords(candidate, kContractDiscords);
  const auto dump = [](const std::vector<Discord>& ds) {
    std::ostringstream out;
    for (const Discord& d : ds) out << " " << d.position << "(" << d.distance
                                    << ")";
    return out.str();
  };
  bool same = ref_discords.size() == cand_discords.size();
  for (std::size_t r = 0; same && r < ref_discords.size(); ++r) {
    same = ref_discords[r].position == cand_discords[r].position;
  }
  if (!same) {
    return ::testing::AssertionFailure()
           << "discords differ: oracle" << dump(ref_discords) << " vs "
           << label << dump(cand_discords);
  }
  return ::testing::AssertionSuccess();
}

// Unwraps a candidate profile and runs the contract.
::testing::AssertionResult CheckCandidate(const MatrixProfile& oracle,
                                          const Result<MatrixProfile>& candidate,
                                          const std::vector<std::uint8_t>& flat,
                                          const char* label) {
  if (!candidate.ok()) {
    return ::testing::AssertionFailure()
           << label << " rejected an input the oracle accepted: "
           << candidate.status().message();
  }
  return CheckProfileContract(oracle, *candidate, flat, label);
}

}  // namespace

Result<MatrixProfile> ComputeMatrixProfileNaive(
    const std::vector<double>& series, std::size_t m, std::size_t exclusion) {
  std::size_t count = 0;
  TSAD_RETURN_IF_ERROR(
      profile_internal::ValidateSelfJoin(series.size(), m, &exclusion, &count));
  const NaiveSide side = MakeSide(series, m);
  return NaiveJoin(side, side, [exclusion](std::size_t i, std::size_t j) {
    return (i > j ? i - j : j - i) > exclusion;
  });
}

Result<MatrixProfile> ComputeLeftMatrixProfileNaive(
    const std::vector<double>& series, std::size_t m) {
  std::size_t exclusion = std::numeric_limits<std::size_t>::max();  // default
  std::size_t count = 0;
  TSAD_RETURN_IF_ERROR(profile_internal::ValidateLeftProfile(
      series.size(), m, &exclusion, &count));
  const NaiveSide side = MakeSide(series, m);
  return NaiveJoin(side, side, [exclusion](std::size_t i, std::size_t j) {
    return j < i && i - j > exclusion;
  });
}

Result<MatrixProfile> ComputeAbJoinNaive(
    const std::vector<double>& query_series,
    const std::vector<double>& reference_series, std::size_t m) {
  std::size_t nq = 0, nr = 0;
  TSAD_RETURN_IF_ERROR(profile_internal::ValidateAbJoin(
      query_series.size(), reference_series.size(), m, &nq, &nr));
  return NaiveJoin(MakeSide(query_series, m), MakeSide(reference_series, m),
                   [](std::size_t, std::size_t) { return true; });
}

::testing::AssertionResult ExpectDistanceProfileEquivalence(
    const std::vector<double>& series, std::size_t pos, std::size_t m) {
  const Result<std::vector<double>> candidate = DistanceProfile(series, pos, m);
  if (!candidate.ok()) {
    return ::testing::AssertionFailure()
           << "DistanceProfile rejected the input: "
           << candidate.status().message();
  }
  const NaiveSide side = MakeSide(series, m);
  if (candidate->size() != side.count) {
    return ::testing::AssertionFailure()
           << "profile has " << candidate->size() << " entries, want "
           << side.count;
  }
  const double sq_tol = 2.0 * static_cast<double>(m) * kMpxCorrTolerance;
  for (std::size_t j = 0; j < side.count; ++j) {
    const double got = (*candidate)[j];
    if (side.flat[pos] || side.flat[j]) {
      const double want = side.flat[pos] && side.flat[j]
                              ? 0.0
                              : std::sqrt(2.0 * static_cast<double>(m));
      if (got != want) {
        return ::testing::AssertionFailure()
               << "flat entry " << j << " must be exactly " << want
               << ", got " << got;
      }
      continue;
    }
    const double want = RowDistance(&side.z[pos * m], &side.z[j * m], m);
    const double err = std::fabs(want * want - got * got);
    if (!(err <= sq_tol)) {  // negated: catches NaN too
      return ::testing::AssertionFailure()
             << "entry " << j << " out of tolerance: oracle d=" << want
             << " DistanceProfile d=" << got << " squared-distance error "
             << err << " > " << sq_tol;
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<ProfileTestFamily> SimulatorFamilies() {
  std::vector<ProfileTestFamily> families;
  {
    YahooConfig config;
    config.a1_count = 1;
    config.a2_count = 1;
    config.a3_count = 1;
    config.a4_count = 1;
    const YahooArchive yahoo = GenerateYahooArchive(config);
    families.push_back({"yahoo_a1", yahoo.a1.series.at(0).values(), 24});
    families.push_back({"yahoo_a4", yahoo.a4.series.at(0).values(), 24});
  }
  families.push_back(
      {"numenta_taxi", TruncatedTo(GenerateTaxiData().series.values(), 4000),
       48});
  families.push_back(
      {"nasa",
       TruncatedTo(GenerateNasaArchive().channels.series.at(0).values(), 4000),
       64});
  {
    OmniConfig config;
    config.num_machines = 1;
    const OmniArchive omni = GenerateOmniArchive(config);
    const Result<LabeledSeries> dim = omni.machines.at(0).Dimension(0);
    if (dim.ok()) {
      families.push_back({"omni", TruncatedTo(dim->values(), 3000), 64});
    }
  }
  families.push_back(
      {"physio_ecg", TruncatedTo(GenerateEcgWithPvc().values(), 4000), 64});
  families.push_back(
      {"gait", TruncatedTo(GenerateGaitData().series.values(), 4000), 128});
  return families;
}

::testing::AssertionResult ExpectProfileEquivalence(
    const std::vector<double>& series, std::size_t m,
    const MatrixProfile& oracle) {
  return CheckCandidate(oracle, ComputeMatrixProfile(series, m),
                        FlatFlags(series, m), "mpx");
}

::testing::AssertionResult ExpectAbJoinEquivalence(
    const std::vector<double>& query_series,
    const std::vector<double>& reference_series, std::size_t m,
    const MatrixProfile& oracle) {
  return CheckCandidate(oracle,
                        ComputeAbJoin(query_series, reference_series, m),
                        FlatFlags(query_series, m), "mpx/ab");
}

::testing::AssertionResult ExpectLeftProfileEquivalence(
    const std::vector<double>& series, std::size_t m,
    const MatrixProfile& oracle) {
  return CheckCandidate(oracle, ComputeLeftMatrixProfile(series, m),
                        FlatFlags(series, m), "mpx/left");
}

::testing::AssertionResult ExpectStreamingMpxEquivalence(
    const std::vector<double>& series, std::size_t m,
    std::size_t buffer_cap) {
  StreamingMpxConfig config;
  config.m = m;
  config.buffer_cap = buffer_cap;
  const Status valid = StreamingMpx::Validate(config);
  if (!valid.ok()) {
    return ::testing::AssertionFailure()
           << "invalid streaming config: " << valid.message();
  }
  StreamingMpx kernel(config);
  for (const double v : series) kernel.Push(v);

  const std::size_t exclusion = kernel.config().exclusion;
  const std::size_t subs = kernel.num_subsequences();
  const std::size_t first = kernel.first_subsequence();
  std::vector<std::uint8_t> flat(subs);
  for (std::size_t i = 0; i < subs; ++i) flat[i] = kernel.IsFlatAt(i);
  // The kernel's entries as a profile with LOCAL neighbor indices.
  const auto collect = [&](auto entry_of) {
    MatrixProfile profile;
    profile.subsequence_length = m;
    for (std::size_t i = 0; i < subs; ++i) {
      const StreamingMpx::Entry entry = (kernel.*entry_of)(i);
      profile.distances.push_back(entry.distance);
      profile.indices.push_back(entry.neighbor == kNoNeighbor
                                    ? kNoNeighbor
                                    : entry.neighbor - first);
    }
    return profile;
  };

  if (kernel.evictions() == 0) {
    // Whole-series ground truth: the batch joins.
    const Result<MatrixProfile> self = ComputeMatrixProfile(series, m);
    const Result<MatrixProfile> left = ComputeLeftMatrixProfile(series, m);
    if (!self.ok() || !left.ok()) {
      return ::testing::AssertionFailure()
             << "batch kernels rejected the series: "
             << (self.ok() ? left : self).status().message();
    }
    const ::testing::AssertionResult merged = CheckProfileContract(
        *self, collect(&StreamingMpx::Merged), flat, "streaming/merged");
    if (!merged) return merged;
    return CheckProfileContract(*left, collect(&StreamingMpx::Left), flat,
                                "streaming/left");
  }

  // Evicted: certify the right profile over the retained suffix against
  // the oracle's right self-join, normalized with the kernel's own
  // moments so flat classification is shared by construction.
  const std::vector<double> suffix(
      series.begin() + static_cast<std::ptrdiff_t>(kernel.first_point()),
      series.end());
  if (suffix.size() != kernel.retained_points()) {
    return ::testing::AssertionFailure()
           << "retained " << kernel.retained_points() << " points, expected "
           << suffix.size();
  }
  std::vector<double> means(subs), stds(subs);
  for (std::size_t i = 0; i < subs; ++i) {
    means[i] = kernel.MeanAt(i);
    stds[i] = kernel.StdAt(i);
  }
  const NaiveSide side =
      MakeSide(suffix.data(), subs, m, means.data(), stds.data());
  const MatrixProfile oracle =
      NaiveJoin(side, side, [exclusion](std::size_t i, std::size_t j) {
        return j > i + exclusion;
      });
  const MatrixProfile right = collect(&StreamingMpx::Right);
  for (std::size_t i = 0; i < subs; ++i) {
    const std::size_t j = right.indices[i];
    if (j != kNoNeighbor && (j <= i + exclusion || j >= subs)) {
      return ::testing::AssertionFailure()
             << "right entry " << i << " neighbor " << first + j
             << " outside the eligible retained range";
    }
  }
  return CheckProfileContract(oracle, right, flat, "streaming/right");
}

}  // namespace testing
}  // namespace tsad
