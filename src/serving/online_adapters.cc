#include "serving/online_adapters.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stats.h"
#include "detectors/control_chart.h"
#include "robustness/sanitize.h"
#include "detectors/cusum.h"
#include "detectors/moving_zscore.h"
#include "detectors/merlin.h"
#include "detectors/registry.h"
#include "detectors/streaming_discord.h"

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

OnlineMovingZScore::OnlineMovingZScore(std::string name, std::size_t window,
                                       double min_std)
    : window_(window), min_std_(min_std), name_(std::move(name)),
      ring_(window, 0.0) {}

Status OnlineMovingZScore::Observe(double value,
                                   std::vector<ScoredPoint>* out) {
  const std::size_t t = observed_;
  if (t < window_) {
    // Inside the first window the batch path scores 0 and accumulates
    // with plain `sum += x` — no slide yet.
    out->push_back({t, 0.0});
    sum_ += value;
    sq_ += static_cast<long double>(value) * value;
    ring_[t] = value;
  } else {
    const long double w = static_cast<long double>(window_);
    const long double mean = sum_ / w;
    long double var = sq_ / w - mean * mean;
    if (var < 0.0L) var = 0.0L;
    const double sd =
        std::max(min_std_, std::sqrt(static_cast<double>(var)));
    out->push_back({t, std::fabs(value - static_cast<double>(mean)) / sd});
    // Slide exactly as the batch loop does: the delta `x_new - x_old`
    // is formed in double before widening to the long double sum.
    const double old = ring_[t % window_];
    sum_ += value - old;
    sq_ += static_cast<long double>(value) * value -
           static_cast<long double>(old) * old;
    ring_[t % window_] = value;
  }
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
  writer.PutLongDouble(sum_);
  writer.PutLongDouble(sq_);
  writer.PutDoubles(ring_);
  return writer.Take();
}

Status OnlineMovingZScore::Restore(std::string_view blob) {
  ByteReader reader(blob);
  TSAD_RETURN_IF_ERROR(CheckBlobName(&reader, name_));
  std::uint64_t observed;
  TSAD_RETURN_IF_ERROR(reader.GetU64(&observed));
  TSAD_RETURN_IF_ERROR(reader.GetLongDouble(&sum_));
  TSAD_RETURN_IF_ERROR(reader.GetLongDouble(&sq_));
  TSAD_RETURN_IF_ERROR(reader.GetDoubles(&ring_));
  TSAD_RETURN_IF_ERROR(reader.ExpectDone());
  if (ring_.size() != window_) {
    return Status::InvalidArgument("snapshot window mismatch for " + name_);
  }
  observed_ = observed;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ReferenceStatsOnline

ReferenceStatsOnline::ReferenceStatsOnline(std::string name,
                                           std::size_t train_length)
    : name_(std::move(name)), train_length_(train_length) {}

Status ReferenceStatsOnline::Observe(double value,
                                     std::vector<ScoredPoint>* out) {
  if (trained_) {
    out->push_back({observed_, Step(value)});
    ++observed_;
    return Status::OK();
  }
  buffer_.push_back(value);
  ++observed_;
  if (buffer_.size() == train_length_) Drain(/*causal=*/true, out);
  return Status::OK();
}

Status ReferenceStatsOnline::Flush(std::vector<ScoredPoint>* out) {
  // Stream ended before the training prefix completed: the batch path
  // (train_length > n) falls back to whole-series robust statistics,
  // and "whole series" is exactly our buffer now.
  if (!trained_ && !buffer_.empty()) Drain(/*causal=*/false, out);
  return Status::OK();
}

void ReferenceStatsOnline::Drain(bool causal, std::vector<ScoredPoint>* out) {
  if (causal) {
    mu_ = Mean(buffer_);
    sigma_ = StdDev(buffer_);
  } else {
    mu_ = Median(Series(buffer_));
    sigma_ = 1.4826 * Mad(buffer_);
  }
  if (sigma_ < 1e-9) sigma_ = 1e-9;
  trained_ = true;
  const std::size_t base = observed_ - buffer_.size();
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    out->push_back({base + i, Step(buffer_[i])});
  }
  buffer_.clear();
  buffer_.shrink_to_fit();
}

Result<std::string> ReferenceStatsOnline::Snapshot() const {
  ByteWriter writer;
  writer.PutString(name_);
  writer.PutU64(observed_);
  writer.PutU64(train_length_);
  writer.PutU64(trained_ ? 1 : 0);
  writer.PutDouble(mu_);
  writer.PutDouble(sigma_);
  writer.PutDoubles(buffer_);
  PutState(&writer);
  return writer.Take();
}

Status ReferenceStatsOnline::Restore(std::string_view blob) {
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
  TSAD_RETURN_IF_ERROR(reader.GetDouble(&mu_));
  TSAD_RETURN_IF_ERROR(reader.GetDouble(&sigma_));
  TSAD_RETURN_IF_ERROR(reader.GetDoubles(&buffer_));
  TSAD_RETURN_IF_ERROR(GetState(&reader));
  TSAD_RETURN_IF_ERROR(reader.ExpectDone());
  observed_ = observed;
  trained_ = trained != 0;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// OnlineCusum

OnlineCusum::OnlineCusum(std::string name, double drift,
                         double reset_threshold, std::size_t train_length)
    : ReferenceStatsOnline(std::move(name), train_length),
      drift_(drift),
      reset_threshold_(reset_threshold) {}

double OnlineCusum::Step(double value) {
  const double z = (value - mu_) / sigma_;
  s_pos_ = std::max(0.0, s_pos_ + z - drift_);
  s_neg_ = std::max(0.0, s_neg_ - z - drift_);
  const double score = std::max(s_pos_, s_neg_);
  if (reset_threshold_ > 0.0 && score > reset_threshold_) {
    s_pos_ = 0.0;
    s_neg_ = 0.0;
  }
  return score;
}

void OnlineCusum::PutState(ByteWriter* writer) const {
  writer->PutDouble(s_pos_);
  writer->PutDouble(s_neg_);
}

Status OnlineCusum::GetState(ByteReader* reader) {
  TSAD_RETURN_IF_ERROR(reader->GetDouble(&s_pos_));
  return reader->GetDouble(&s_neg_);
}

// ---------------------------------------------------------------------------
// OnlineEwmaChart

OnlineEwmaChart::OnlineEwmaChart(std::string name, double lambda,
                                 std::size_t train_length)
    : ReferenceStatsOnline(std::move(name), train_length), lambda_(lambda) {}

double OnlineEwmaChart::Step(double value) {
  if (!started_) {
    ewma_ = mu_;  // the batch loop initializes ewma = mu
    started_ = true;
  }
  ewma_ = lambda_ * value + (1.0 - lambda_) * ewma_;
  decay_ *= (1.0 - lambda_) * (1.0 - lambda_);
  const double var_factor = lambda_ / (2.0 - lambda_);
  const double se = sigma_ * std::sqrt(var_factor * (1.0 - decay_));
  return std::fabs(ewma_ - mu_) / std::max(1e-12, se);
}

void OnlineEwmaChart::PutState(ByteWriter* writer) const {
  writer->PutDouble(ewma_);
  writer->PutDouble(decay_);
  writer->PutU64(started_ ? 1 : 0);
}

Status OnlineEwmaChart::GetState(ByteReader* reader) {
  TSAD_RETURN_IF_ERROR(reader->GetDouble(&ewma_));
  TSAD_RETURN_IF_ERROR(reader->GetDouble(&decay_));
  std::uint64_t started;
  TSAD_RETURN_IF_ERROR(reader->GetU64(&started));
  started_ = started != 0;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// OnlinePageHinkley

OnlinePageHinkley::OnlinePageHinkley(std::string name, double delta,
                                     std::size_t train_length)
    : ReferenceStatsOnline(std::move(name), train_length), delta_(delta) {}

double OnlinePageHinkley::Step(double value) {
  const double z = (value - mu_) / sigma_;
  cum_ += z - delta_;
  cum_min_ = std::min(cum_min_, cum_);
  cum_max_ = std::max(cum_max_, cum_);
  return std::max(cum_ - cum_min_, cum_max_ - cum_);
}

void OnlinePageHinkley::PutState(ByteWriter* writer) const {
  writer->PutDouble(cum_);
  writer->PutDouble(cum_min_);
  writer->PutDouble(cum_max_);
}

Status OnlinePageHinkley::GetState(ByteReader* reader) {
  TSAD_RETURN_IF_ERROR(reader->GetDouble(&cum_));
  TSAD_RETURN_IF_ERROR(reader->GetDouble(&cum_min_));
  return reader->GetDouble(&cum_max_);
}

// ---------------------------------------------------------------------------
// OnlineOneLiner

OnlineOneLiner::OnlineOneLiner(std::string name, const OneLinerParams& params)
    : name_(std::move(name)),
      params_(params),
      after_((std::max<std::size_t>(1, params.k) - 1) / 2),
      need_window_(params.use_movmean || params.c != 0.0),
      run_min_(std::numeric_limits<double>::infinity()) {
  sums_.push_back(0.0L);
  sq_.push_back(0.0L);
}

double OnlineOneLiner::MarginAt(std::size_t j, std::size_t nd) const {
  // Accumulate the right-hand side in the batch order: b, then the
  // moving mean, then c * moving std — each a double addition.
  double rhs = params_.b;
  if (need_window_) {
    const std::size_t keff = std::max<std::size_t>(1, params_.k);
    const std::size_t before = keff / 2;
    const std::size_t lo = j >= before ? j - before : 0;
    const std::size_t hi = std::min(nd, j + after_ + 1);
    if (params_.use_movmean) {
      rhs += static_cast<double>((sums_[hi] - sums_[lo]) /
                                 static_cast<long double>(hi - lo));
    }
    if (params_.c != 0.0) {
      const std::size_t mwin = hi - lo;
      double ms = 0.0;
      if (mwin >= 2) {
        const long double s = sums_[hi] - sums_[lo];
        const long double ss = sq_[hi] - sq_[lo];
        long double var = (ss - s * s / static_cast<long double>(mwin)) /
                          static_cast<long double>(mwin - 1);
        if (var < 0.0L) var = 0.0L;
        ms = static_cast<double>(std::sqrt(static_cast<double>(var)));
      }
      rhs += params_.c * ms;
    }
  }
  return d_[j] - rhs;
}

void OnlineOneLiner::EmitReady(std::vector<ScoredPoint>* out) {
  // The centered window for diff index j extends `after_` points into
  // the future, so the margin is final once d_ reaches j + after_ + 1
  // entries (immediately, for the pure-threshold forms).
  while (emitted_ < d_.size() &&
         (!need_window_ || d_.size() >= emitted_ + after_ + 1)) {
    const double margin = MarginAt(emitted_, d_.size());
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
    sums_.push_back(sums_.back() + d);
    sq_.push_back(sq_.back() + static_cast<long double>(d) * d);
  }
  prev_ = value;
  ++observed_;
  EmitReady(out);
  return Status::OK();
}

Status OnlineOneLiner::Flush(std::vector<ScoredPoint>* out) {
  if (observed_ == 0) return Status::OK();
  if (observed_ == 1) {
    out->push_back({0, 0.0});  // batch: series shorter than 2 scores all-0
    return Status::OK();
  }
  // Tail margins: their centered windows truncate at the series end,
  // exactly like the batch MovMean/MovStd boundary handling.
  const std::size_t nd = d_.size();
  while (emitted_ < nd) {
    const double margin = MarginAt(emitted_, nd);
    run_min_ = std::min(run_min_, margin);
    out->push_back({emitted_ + 1, margin});
    ++emitted_;
  }
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
  // Rebuild the prefix sums by re-accumulating d_ in append order —
  // the identical operation sequence, hence identical rounding.
  sums_.assign(1, 0.0L);
  sq_.assign(1, 0.0L);
  for (double d : d_) {
    sums_.push_back(sums_.back() + d);
    sq_.push_back(sq_.back() + static_cast<long double>(d) * d);
  }
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

OnlineSanitizer::OnlineSanitizer(std::unique_ptr<OnlineDetector> inner,
                                 double sentinel)
    : inner_(std::move(inner)),
      name_("online-resilient(" + std::string(inner_->name()) + ")"),
      sentinel_(sentinel) {}

Status OnlineSanitizer::Observe(double value, std::vector<ScoredPoint>* out) {
  if (!std::isfinite(value) || value == sentinel_) {
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
        std::make_unique<OnlineSanitizer>(std::move(inner),
                                          kDefaultSentinel));
  }

  TSAD_ASSIGN_OR_RETURN(std::unique_ptr<AnomalyDetector> batch,
                        MakeDetector(spec));
  std::string online_name = "online:" + std::string(batch->name());

  if (auto* z = dynamic_cast<const MovingZScoreDetector*>(batch.get())) {
    return std::unique_ptr<OnlineDetector>(std::make_unique<OnlineMovingZScore>(
        std::move(online_name), z->window(), z->min_std()));
  }
  if (auto* c = dynamic_cast<const CusumDetector*>(batch.get())) {
    TSAD_RETURN_IF_ERROR(TrainPrefixRequired("cusum", train_length));
    return std::unique_ptr<OnlineDetector>(std::make_unique<OnlineCusum>(
        std::move(online_name), c->drift(), c->reset_threshold(),
        train_length));
  }
  if (auto* e = dynamic_cast<const EwmaChartDetector*>(batch.get())) {
    TSAD_RETURN_IF_ERROR(TrainPrefixRequired("ewma", train_length));
    return std::unique_ptr<OnlineDetector>(std::make_unique<OnlineEwmaChart>(
        std::move(online_name), e->lambda(), train_length));
  }
  if (auto* p = dynamic_cast<const PageHinkleyDetector*>(batch.get())) {
    TSAD_RETURN_IF_ERROR(TrainPrefixRequired("pagehinkley", train_length));
    return std::unique_ptr<OnlineDetector>(std::make_unique<OnlinePageHinkley>(
        std::move(online_name), p->delta(), train_length));
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
