#include "serving/online_adapters.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/vector_ops.h"
#include "detectors/control_chart.h"
#include "detectors/cusum.h"
#include "detectors/floss.h"
#include "detectors/merlin.h"
#include "detectors/moving_zscore.h"
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

// ---------------------------------------------------------------------------
// StepCoreOnline

// The online form of a per-point detector, for Core = MovingZScoreCore,
// StreamingDiscordCore or FlossCore: each Observe steps the core once
// and emits its score, Flush applies the core's end-of-stream length
// rule, and a snapshot is the name, `observed`, then the core's bytes.
// A Core provides
//   double Step(double x);
//   std::size_t MemoryBytes() const;
//   Status CheckLength(std::size_t n) const;  // may n points be scored?
//   Core Fresh() const;  // these parameters at the start of a stream
//   void Serialize(ByteWriter*) const;
//   Status Deserialize(ByteReader*, std::uint64_t seen);
template <typename Core>
class StepCoreOnline final : public OnlineDetector {
 public:
  StepCoreOnline(std::string name, Core core)
      : name_(std::move(name)), core_(std::move(core)) {}

  std::string_view name() const override { return name_; }

  Status Observe(double value, std::vector<ScoredPoint>* out) override {
    out->push_back({observed_, core_.Step(value)});
    ++observed_;
    return Status::OK();
  }

  // Every point was scored on arrival; only the length rule is left.
  Status Flush(std::vector<ScoredPoint>* /*out*/) override {
    return core_.CheckLength(observed_);
  }

  Result<std::string> Snapshot() const override {
    ByteWriter writer;
    writer.PutString(name_);
    writer.PutU64(observed_);
    core_.Serialize(&writer);
    return writer.Take();
  }

  Status Restore(std::string_view blob) override {
    ByteReader reader(blob);
    TSAD_RETURN_IF_ERROR(CheckBlobName(&reader, name_));
    std::uint64_t observed;
    TSAD_RETURN_IF_ERROR(reader.GetU64(&observed));
    // Decode into a fresh core, not a copy of the live one (a
    // streaming discord kernel holds the whole stream), and commit
    // only once the blob is read to its end: a refused blob leaves
    // this adapter as it was.
    Core core = core_.Fresh();
    TSAD_RETURN_IF_ERROR(core.Deserialize(&reader, observed));
    TSAD_RETURN_IF_ERROR(reader.ExpectDone());
    core_ = std::move(core);
    observed_ = observed;
    return Status::OK();
  }

  std::size_t MemoryFootprint() const override {
    return sizeof(*this) + name_.capacity() + core_.MemoryBytes();
  }

 private:
  std::string name_;
  Core core_;
};

}  // namespace

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
  // Until the prefix is fitted every point waits in the buffer; after,
  // none does.
  if (trained != 0 ? !buffer.empty()
                   : buffer.size() != observed || observed >= train_length_) {
    return Status::InvalidArgument(
        "snapshot of " + name_ + " observed " + std::to_string(observed) +
        " points but buffers " + std::to_string(buffer.size()) +
        (trained != 0 ? " after training" : " before training"));
  }
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
  double prev, run_min;
  std::vector<double> d;
  TSAD_RETURN_IF_ERROR(reader.GetU64(&observed));
  TSAD_RETURN_IF_ERROR(reader.GetU64(&emitted));
  TSAD_RETURN_IF_ERROR(reader.GetDouble(&prev));
  TSAD_RETURN_IF_ERROR(reader.GetDouble(&run_min));
  TSAD_RETURN_IF_ERROR(reader.GetDoubles(&d));
  TSAD_RETURN_IF_ERROR(reader.ExpectDone());
  // One diff per point after the first, and a margin emitted per diff
  // at most.
  if (d.size() != (observed == 0 ? 0 : observed - 1) || emitted > d.size()) {
    return Status::InvalidArgument(
        "snapshot of " + name_ + " observed " + std::to_string(observed) +
        " points but holds " + std::to_string(d.size()) + " diffs and " +
        std::to_string(emitted) + " emitted margins");
  }
  observed_ = observed;
  emitted_ = emitted;
  prev_ = prev;
  run_min_ = run_min;
  d_ = std::move(d);
  // Rebuild the prefix sums by re-appending d_ in order — the
  // identical operation sequence, hence identical rounding.
  sums_.assign(1, 0.0L);
  sq_.assign(1, 0.0L);
  AppendPrefixSums(d_.data(), d_.size(), &sums_, &sq_);
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
  double last_good;
  std::string inner_blob;
  TSAD_RETURN_IF_ERROR(reader.GetU64(&observed));
  TSAD_RETURN_IF_ERROR(reader.GetU64(&patched));
  TSAD_RETURN_IF_ERROR(reader.GetU64(&have_good));
  TSAD_RETURN_IF_ERROR(reader.GetDouble(&last_good));
  TSAD_RETURN_IF_ERROR(reader.GetString(&inner_blob));
  TSAD_RETURN_IF_ERROR(reader.ExpectDone());
  // The inner adapter's refusal leaves it as it was, so nothing here
  // changes before it accepts.
  TSAD_RETURN_IF_ERROR(inner_->Restore(inner_blob));
  observed_ = observed;
  points_patched_ = patched;
  have_good_ = have_good != 0;
  last_good_ = last_good;
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
  // sanitizer.
  if (const std::optional<std::string> inner_spec = ResilientInnerSpec(spec)) {
    if (inner_spec->empty()) {
      return Status::InvalidArgument(
          "spec 'resilient:' needs an inner detector, e.g. "
          "'resilient:zscore:w=64'");
    }
    TSAD_ASSIGN_OR_RETURN(std::unique_ptr<OnlineDetector> inner,
                          MakeOnlineDetector(*inner_spec, train_length));
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<OnlineSanitizer>(std::move(inner)));
  }

  TSAD_ASSIGN_OR_RETURN(std::unique_ptr<AnomalyDetector> batch,
                        MakeDetector(spec));
  std::string online_name = "online:" + std::string(batch->name());

  if (auto* z = dynamic_cast<const MovingZScoreDetector*>(batch.get())) {
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<StepCoreOnline<MovingZScoreCore>>(
            std::move(online_name), MovingZScoreCore(z->window())));
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
    TSAD_ASSIGN_OR_RETURN(StreamingDiscordCore core, s->MakeCore());
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<StepCoreOnline<StreamingDiscordCore>>(
            std::move(online_name), std::move(core)));
  }
  if (auto* f = dynamic_cast<const FlossDetector*>(batch.get())) {
    return std::unique_ptr<OnlineDetector>(
        std::make_unique<StepCoreOnline<FlossCore>>(std::move(online_name),
                                                    FlossCore(f->params())));
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
