#include "detectors/semisup_discord.h"

#include <algorithm>

#include "detectors/discord.h"
#include "substrates/matrix_profile.h"

namespace tsad {

SemiSupervisedDiscordDetector::SemiSupervisedDiscordDetector(std::size_t m)
    : m_(m), name_("SemiSupDiscord[m=" + std::to_string(m) + "]") {}

Result<std::vector<double>> SemiSupervisedDiscordDetector::Score(
    const Series& series, std::size_t train_length) const {
  // train_length / 2 < m is train_length < 2 * m without the wrap of
  // 2 * m at m >= 2^63.
  if (train_length / 2 < m_) {
    return Status::FailedPrecondition(
        "SemiSupervisedDiscord requires train_length >= 2*m with m = " +
        std::to_string(m_) + "; got " + std::to_string(train_length));
  }
  if (train_length >= series.size()) {
    return Status::InvalidArgument("no test span after the training prefix");
  }
  const Series train(series.begin(),
                     series.begin() + static_cast<std::ptrdiff_t>(train_length));
  // Join the WHOLE series against the training prefix so the score
  // track covers every point; training-span subsequences trivially
  // match themselves and score ~0, which is correct (they are normal
  // by contract).
  TSAD_ASSIGN_OR_RETURN(const MatrixProfile join,
                        ComputeAbJoin(series, train, m_));
  return ProfileToPointScores(join.distances, m_, series.size());
}

}  // namespace tsad
