#include "serving/online_adapters.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/vector_ops.h"
#include "detectors/control_chart.h"
#include "detectors/cusum.h"
#include "detectors/merlin.h"
#include "detectors/reference_stats.h"
#include "detectors/registry.h"
#include "detectors/streaming_discord.h"
#include "robustness/sanitize.h"

namespace tsad {

namespace {

// Every snapshot leads with the adapter name so a blob restored into
// the wrong detector fails loudly instead of deserializing garbage.
Status CheckBlobName(ByteReader* reader, std::string_view expected) {
  std::string tag;
  TSAD_RETURN_IF_ERROR(reader->GetString(&tag));
  if (tag != expected) {
    return Status::InvalidArgument("snapshot is for detector '" + tag +
                                   "', not '" + std::string(expected) + "'");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// OnlineMovingZScore

OnlineMovingZScore::OnlineMovingZScore(std::string name, std::size_t window)
    : name_(std::move(name)), core_(window) {}

Status OnlineMovingZScore::Observe(double value,
                                   std::vector<ScoredPoint>* out) {
  out->push_back({observed_, core_.Step(value)});
  ++observed_;
  return Status::OK();
}

Status OnlineMovingZScore::Flush(std::vector<ScoredPoint>* /*out*/) {
  return Status::OK();  // every point was scored on arrival
}

Result<std::string> OnlineMovingZScore::Snapshot() const {
  ByteWriter writer;
  writer.PutString(name_);
  writer.PutU64(observed_);
  core_.Serialize(&writer);
  return writer.Take();
}

Status OnlineMovingZScore::Restore(std::string_view blob) {
  ByteReader reader(blob);
  TSAD_RETURN_IF_ERROR(CheckBlobName(&reader, name_));
  std::uint64_t observed;
  TSAD_RETURN_IF_ERROR(reader.GetU64(&observed));
  // Deserialize into a scratch core so a corrupt blob cannot leave the
  // live one half-overwritten.
  MovingZScoreCore core = core_;
  TSAD_RETURN_IF_ERROR(core.Deserialize(&reader, observed));
  TSAD_RETURN_IF_ERROR(reader.ExpectDone());
  core_ = std::move(core);
  observed_ = observed;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ReferenceStatsOnline

template <typename Core>
Status ReferenceStatsOnline<Core>::Observe(double value,
                                           std::vector<ScoredPoint>* out) {
  if (trained_) {
    out->push_back({observed_, core_.Step(value)});
    ++observed_;
    return Status::OK();
  }
  buffer_.push_back(value);
  ++observed_;
  if (buffer_.size() == train_length_) Drain(out);
  return Status::OK();
}

template <typename Core>
Status ReferenceStatsOnline<Core>::Flush(std::vector<ScoredPoint>* out) {
  if (!trained_ && !buffer_.empty()) Drain(out);
  return Status::OK();
}

template <typename Core>
void ReferenceStatsOnline<Core>::Drain(std::vector<ScoredPoint>* out) {
  core_ = core_.WithReference(FitReferenceStats(buffer_, train_length_));
  trained_ = true;
  const std::size_t base = observed_ - buffer_.size();
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    out->push_back({base + i, core_.Step(buffer_[i])});
  }
  buffer_.clear();
  buffer_.shrink_to_fit();
}

template <typename Core>
Result<std::string> ReferenceStatsOnline<Core>::Snapshot() const {
  ByteWriter writer;
  writer.PutString(name_);
  writer.PutU64(observed_);
  writer.PutU64(train_length_);
  writer.PutU64(trained_ ? 1 : 0);
  writer.PutDouble(core_.reference().mu);
  writer.PutDouble(core_.reference().sigma);
  writer.PutDoubles(buffer_);
  core_.PutState(&writer);
  return writer.Take();
}

template <typename Core>
Status ReferenceStatsOnline<Core>::Restore(std::string_view blob) {
  ByteReader reader(blob);
  TSAD_RETURN_IF_ERROR(CheckBlobName(&reader, name_));
  std::uint64_t observed, train_length, trained;
  TSAD_RETURN_IF_ERROR(reader.GetU64(&observed));
  TSAD_RETURN_IF_ERROR(reader.GetU64(&train_length));
  if (train_length != train_length_) {
    return Status::InvalidArgument(
        "snapshot train_length " + std::to_string(train_length) +
        " does not match detector train_length " +
        std::to_string(train_length_));
  }
  TSAD_RETURN_IF_ERROR(reader.GetU64(&trained));
  ReferenceStats ref;
  TSAD_RETURN_IF_ERROR(reader.GetDouble(&ref.mu));
  TSAD_RETURN_IF_ERROR(reader.GetDouble(&ref.sigma));
  std::vector<double> buffer;
  TSAD_RETURN_IF_ERROR(reader.GetDoubles(&buffer));
  Core core = core_.WithReference(ref);
  TSAD_RETURN_IF_ERROR(core.GetState(&reader));
  TSAD_RETURN_IF_ERROR(reader.ExpectDone());
  core_ = core;
  buffer_ = std::move(buffer);
  observed_ = observed;
  trained_ = trained != 0;
  return Status::OK();
}

template class ReferenceStatsOnline<CusumCore>;
template class ReferenceStatsOnline<EwmaChartCore>;
template class ReferenceStatsOnline<PageHinkleyCore>;

// ---------------------------------------------------------------------------
// OnlineOneLiner

OnlineOneLiner::OnlineOneLiner(std::string name, const OneLinerParams& params)
    : name_(std::move(name)),
      params_(params),
      after_((std::max<std::size_t>(1, params.k) - 1) / 2),
      sums_(1, 0.0L),
      sq_(1, 0.0L),
      run_min_(std::numeric_limits<double>::infinity()) {}

void OnlineOneLiner::Emit(bool ended, std::vector<ScoredPoint>* out) {
  // The centered window for diff index j extends `after_` points into
  // the future, so its margin is final once d_ reaches j + after_ + 1
  // entries (at once, for the pure-threshold forms); at the end of the
  // stream the tail windows truncate, as the batch windows do.
  while (emitted_ < d_.size() &&
         (ended || !params_.uses_window() ||
          d_.size() >= emitted_ + after_ + 1)) {
    const double margin = OneLinerMarginAt(d_, sums_, sq_, emitted_, params_);
    run_min_ = std::min(run_min_, margin);
    out->push_back({emitted_ + 1, margin});
    ++emitted_;
  }
}

Status OnlineOneLiner::Observe(double value, std::vector<ScoredPoint>* out) {
  if (observed_ >= 1) {
    double d = value - prev_;
    if (params_.use_abs) d = std::fabs(d);
    d_.push_back(d);
    AppendPrefixSums(&d, 1, &sums_, &sq_);
  }
  prev_ = value;
  ++observed_;
  Emit(/*ended=*/false, out);
  return Status::OK();
}

Status OnlineOneLiner::Flush(std::vector<ScoredPoint>* out) {
  if (observed_ == 0) return Status::OK();
  if (observed_ == 1) {
    out->push_back({0, 0.0});  // batch: series shorter than 2 scores all-0
    return Status::OK();
  }
  Emit(/*ended=*/true, out);
  // Index 0 is PadLeft's floor: the global minimum margin.
  out->push_back({0, run_min_});
  return Status::OK();
}

Result<std::string> OnlineOneLiner::Snapshot() const {
  ByteWriter writer;
  writer.PutString(name_);
  writer.PutU64(observed_);
  writer.PutU64(emitted_);
  writer.PutDouble(prev_);
  writer.PutDouble(run_min_);
  writer.PutDoubles(d_);
  return writer.Take();
}

Status OnlineOneLiner::Restore(std::string_view blob) {
  ByteReader reader(blob);
  TSAD_RETURN_IF_ERROR(CheckBlobName(&reader, name_));
  std::uint64_t observed, emitted;
  TSAD_RETURN_IF_ERROR(reader.GetU64(&observed));
  TSAD_RETURN_IF_ERROR(reader.GetU64(&emitted));
  TSAD_RETURN_IF_ERROR(reader.GetDouble(&prev_));
  TSAD_RETURN_IF_ERROR(reader.GetDouble(&run_min_));
  TSAD_RETURN_IF_ERROR(reader.GetDoubles(&d_));
  TSAD_RETURN_IF_ERROR(reader.ExpectDone());
  observed_ = observed;
  emitted_ = emitted;
  // Rebuild the prefix sums by re-appending d_ in order — the
  // identical operation sequence, hence identical rounding.
  sums_.assign(1, 0.0L);
  sq_.assign(1, 0.0L);
  AppendPrefixSums(d_.data(), d_.size(), &sums_, &sq_);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// OnlineStreamingDiscord

OnlineStreamingDiscord::OnlineStreamingDiscord(std::string name, std::size_t m,
                                               std::size_t burn_in)
    : name_(std::move(name)),
      m_(m),
      burn_in_(burn_in),
      kernel_(StreamingDiscordKernelConfig(m)) {}

Status OnlineStreamingDiscord::Observe(double value,
                                       std::vector<ScoredPoint>* out) {
  kernel_.Push(value);
  out->push_back(
      {observed_, StreamingDiscordScore(kernel_, observed_, burn_in_)});
  ++observed_;
  return Status::OK();
}

Status OnlineStreamingDiscord::Flush(std::vector<ScoredPoint>* /*out*/) {
  if (observed_ < m_ + 1) {
    return Status::InvalidArgument(
        "series too short: need at least 2 subsequences of length " +
        std::to_string(m_));
  }
  return Status::OK();
}

Result<std::string> OnlineStreamingDiscord::Snapshot() const {
  ByteWriter writer;
  writer.PutString(name_);
  writer.PutU64(observed_);
  writer.PutU64(burn_in_);
  kernel_.Serialize(&writer);
  return writer.Take();
}

Status OnlineStreamingDiscord::Restore(std::string_view blob) {
  ByteReader reader(blob);
  TSAD_RETURN_IF_ERROR(CheckBlobName(&reader, name_));
  std::uint64_t observed, burn_in;
  TSAD_RETURN_IF_ERROR(reader.GetU64(&observed));
  TSAD_RETURN_IF_ERROR(reader.GetU64(&burn_in));
  if (burn_in != burn_in_) {
    return Status::InvalidArgument("snapshot burn_in mismatch for " + name_);
  }
  TSAD_RETURN_IF_ERROR(kernel_.Deserialize(&reader));
  TSAD_RETURN_IF_ERROR(reader.ExpectDone());
  observed_ = observed;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// OnlineFloss

OnlineFloss::OnlineFloss(std::string name, const FlossParams& params)
    : name_(std::move(name)), params_(params), core_(params) {}

Status OnlineFloss::Observe(double value, std::vector<ScoredPoint>* out) {
  out->push_back({observed_, core_.Step(value)});
  ++observed_;
  return Status::OK();
}

Status OnlineFloss::Flush(std::vector<ScoredPoint>* /*out*/) {
  if (observed_ < params_.m + 1) {
    return Status::InvalidArgument(
        "series too short: need at least 2 subsequences of length " +
        std::to_string(params_.m));
  }
  return Status::OK();
}

Result<std::string> OnlineFloss::Snapshot() const {
  ByteWriter writer;
  writer.PutString(name_);
  writer.PutU64(observed_);
  core_.Serialize(&writer);
  return writer.Take();
}

Status OnlineFloss::Restore(std::string_view blob) {
  ByteReader reader(blob);
  TSAD_RETURN_IF_ERROR(CheckBlobName(&reader, name_));
  std::uint64_t observed;
  TSAD_RETURN_IF_ERROR(reader.GetU64(&observed));
  // Deserialize into a scratch core so a corrupt blob cannot leave the
  // live one half-overwritten.
  FlossCore core(params_);
  TSAD_RETURN_IF_ERROR(core.Deserialize(&reader));
  TSAD_RETURN_IF_ERROR(reader.ExpectDone());
  core_ = std::move(core);
  observed_ = observed;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// OnlineMerlin

OnlineMerlin::OnlineMerlin(std::string name, std::size_t min_length,
                           std::size_t max_length)
    : name_(std::move(name)),
      min_length_(min_length),
      max_length_(max_length) {}

Status OnlineMerlin::Observe(double value, std::vector<ScoredPoint>* /*out*/) {
  buffer_.push_back(value);
  ++observed_;
  return Status::OK();
}

Status OnlineMerlin::Flush(std::vector<ScoredPoint>* out) {
  // The acausal step: run the batch detector over the buffered stream.
  // Reusing MerlinDetector::Score (not a copy of its loop) makes the
  // byte-identity contract structural — there is exactly one scoring
  // path. A stream too short for max_length surfaces the batch error.
  const MerlinDetector batch(min_length_, max_length_);
  TSAD_ASSIGN_OR_RETURN(const std::vector<double> scores,
                        batch.Score(buffer_, /*train_length=*/0));
  for (std::size_t i = 0; i < scores.size(); ++i) {
    out->push_back({i, scores[i]});
  }
  return Status::OK();
}

Result<std::string> OnlineMerlin::Snapshot() const {
  ByteWriter writer;
  writer.PutString(name_);
  writer.PutU64(observed_);
  writer.PutDoubles(buffer_);
  return writer.Take();
}

Status OnlineMerlin::Restore(std::string_view blob) {
  ByteReader reader(blob);
  TSAD_RETURN_IF_ERROR(CheckBlobName(&reader, name_));
  std::uint64_t observed;
  TSAD_RETURN_IF_ERROR(reader.GetU64(&observed));
  std::vector<double> buffer;
  TSAD_RETURN_IF_ERROR(reader.GetDoubles(&buffer));
  TSAD_RETURN_IF_ERROR(reader.ExpectDone());
  if (observed != buffer.size()) {
    return Status::InvalidArgument("snapshot buffer mismatch for " + name_);
  }
  buffer_ = std::move(buffer);
  observed_ = observed;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// OnlineSanitizer

OnlineSanitizer::OnlineSanitizer(std::unique_ptr<OnlineDetector> inner)
    : inner_(std::move(inner)),
      name_("online-resilient(" + std::string(inner_->name()) + ")") {}

Status OnlineSanitizer::Observe(double value, std::vector<ScoredPoint>* out) {
  if (!std::isfinite(value) || value == kDefaultSentinel) {
    value = have_good_ ? last_good_ : 0.0;
    ++points_patched_;
  } else {
    last_good_ = value;
    have_good_ = true;
  }
  TSAD_RETURN_IF_ERROR(inner_->Observe(value, out));
  ++observed_;
  return Status::OK();
}

Status OnlineSanitizer::Flush(std::vector<ScoredPoint>* out) {
  return inner_->Flush(out);
}

Result<std::string> OnlineSanitizer::Snapshot() const {
  ByteWriter writer;
  writer.PutString(name_);
  writer.PutU64(observed_);
  writer.PutU64(points_patched_);
  writer.PutU64(have_good_ ? 1 : 0);
  writer.PutDouble(last_good_);
  TSAD_ASSIGN_OR_RETURN(std::string inner_blob, inner_->Snapshot());
  writer.PutString(inner_blob);
  return writer.Take();
}

Status OnlineSanitizer::Restore(std::string_view blob) {
  ByteReader reader(blob);
  TSAD_RETURN_IF_ERROR(CheckBlobName(&reader, name_));
  std::uint64_t observed, patched, have_good;
  TSAD_RETURN_IF_ERROR(reader.GetU64(&observed));
  TSAD_RETURN_IF_ERROR(reader.GetU64(&patched));
  TSAD_RETURN_IF_ERROR(reader.GetU64(&have_good));
  TSAD_RETURN_IF_ERROR(reader.GetDouble(&last_good_));
  std::string inner_blob;
  TSAD_RETURN_IF_ERROR(reader.GetString(&inner_blob));
  TSAD_RETURN_IF_ERROR(reader.ExpectDone());
  TSAD_RETURN_IF_ERROR(inner_->Restore(inner_blob));
  observed_ = observed;
  points_patched_ = patched;
  have_good_ = have_good != 0;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Factory

std::vector<std::string> OnlineCapableDetectorNames() {
  return {"zscore",   "cusum",     "ewma",      "pagehinkley",
          "oneliner", "streaming", "resilient", "floss",
          "merlin"};
}

namespace {

Status TrainPrefixRequired(std::string_view name, std::size_t train_length) {
  if (train_length >= 8) return Status::OK();
  return Status::FailedPrecondition(
      "detector '" + std::string(name) +
      "' requires a training prefix of at least 8 points to run online "
      "(got " +
      std::to_string(train_length) +
      "): its batch reference statistics would otherwise come from the "
      "whole series, which is not causal");
}

}  // namespace

Result<std::unique_ptr<OnlineDetector>> MakeOnlineDetector(
    const std::string& spec, std::size_t train_length) {
  // The batch `resilient:` decorator sanitizes with the whole series in
  // hand, so it has no bit-exact online form; serve the causal
  // equivalent instead — the inner adapter behind a per-point
  // sanitizer. (Before this branch existed the prefix fell through to a
  // misleading "no online adapter for 'resilient'" error.)
  constexpr std::string_view kResilientPrefix = "resilient:";
  if (spec.rfind(kResilientPrefix, 0) == 0) {
    const std::string inner_spec = spec.substr(kResilientPrefix.size());
    if (inner_spec.empty()) {
      return Status::InvalidArgument(
          "spec 'resilient:' needs an inner detector, e.g. "
          "'resilient:zscore:w=64'");
    }
    TSAD_ASSIGN_OR_RETURN(std::unique_ptr<OnlineDetector> inner,
                          MakeOnlineDetector(inner_spec, train_length));
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<OnlineSanitizer>(std::move(inner)));
  }

  TSAD_ASSIGN_OR_RETURN(std::unique_ptr<AnomalyDetector> batch,
                        MakeDetector(spec));
  std::string online_name = "online:" + std::string(batch->name());

  if (auto* z = dynamic_cast<const MovingZScoreDetector*>(batch.get())) {
    return std::unique_ptr<OnlineDetector>(std::make_unique<OnlineMovingZScore>(
        std::move(online_name), z->window()));
  }
  if (auto* c = dynamic_cast<const CusumDetector*>(batch.get())) {
    TSAD_RETURN_IF_ERROR(TrainPrefixRequired("cusum", train_length));
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<ReferenceStatsOnline<CusumCore>>(
            std::move(online_name),
            CusumCore(c->drift(), c->reset_threshold()), train_length));
  }
  if (auto* e = dynamic_cast<const EwmaChartDetector*>(batch.get())) {
    TSAD_RETURN_IF_ERROR(TrainPrefixRequired("ewma", train_length));
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<ReferenceStatsOnline<EwmaChartCore>>(
            std::move(online_name), EwmaChartCore(e->lambda()),
            train_length));
  }
  if (auto* p = dynamic_cast<const PageHinkleyDetector*>(batch.get())) {
    TSAD_RETURN_IF_ERROR(TrainPrefixRequired("pagehinkley", train_length));
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<ReferenceStatsOnline<PageHinkleyCore>>(
            std::move(online_name), PageHinkleyCore(p->delta()),
            train_length));
  }
  if (auto* o = dynamic_cast<const OneLinerDetector*>(batch.get())) {
    return std::unique_ptr<OnlineDetector>(std::make_unique<OnlineOneLiner>(
        std::move(online_name), o->params()));
  }
  if (auto* s = dynamic_cast<const StreamingDiscordDetector*>(batch.get())) {
    if (s->subsequence_length() < 3) {
      return Status::InvalidArgument(
          "streaming discord requires subsequence length m >= 3, got m=" +
          std::to_string(s->subsequence_length()) +
          " (the m/2 exclusion zone degenerates for shorter windows)");
    }
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<OnlineStreamingDiscord>(std::move(online_name),
                                                 s->subsequence_length(),
                                                 s->burn_in()));
  }
  if (auto* f = dynamic_cast<const FlossDetector*>(batch.get())) {
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<OnlineFloss>(std::move(online_name), f->params()));
  }
  if (auto* m = dynamic_cast<const MerlinDetector*>(batch.get())) {
    return std::unique_ptr<OnlineDetector>(std::make_unique<OnlineMerlin>(
        std::move(online_name), m->min_length(), m->max_length()));
  }

  std::string known;
  for (const std::string& n : OnlineCapableDetectorNames()) {
    if (!known.empty()) known += ' ';
    known += n;
  }
  return Status::Unimplemented("detector '" +
                               spec.substr(0, spec.find(':')) +
                               "' has no online adapter; online-capable: " +
                               known);
}

}  // namespace tsad
