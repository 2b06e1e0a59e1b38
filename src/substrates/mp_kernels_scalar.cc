// Scalar kernel variant: thin wrappers over the shared baseline
// helpers in mp_kernels.cc. This tier is portable C++ with no hand
// vectorization and is the one CI always exercises (forced via
// --mp-isa scalar / TSAD_MP_ISA=scalar), so the dispatch seam has
// coverage even on hosts without AVX.

#include "substrates/mp_kernels.h"

namespace tsad {
namespace {

void MpxBlock(const MpxBlockArgs& args) {
  MpxBlockScalarRange(args, args.d_begin, args.d_end);
}

void MpxAdvanceLags(MpxAdvanceLagsArgs& args) {
  MpxAdvanceLagsScalarRange(args, 0, args.nlags);
}

void PanCovRow(const PanCovRowArgs& args) {
  PanCovRowScalarRange(args, 0, args.count);
}

}  // namespace

namespace mp_kernels_internal {

MpKernelVariant ScalarVariant() {
  MpKernelVariant v;
  v.tier = SimdTier::kScalar;
  v.mpx_block = MpxBlock;
  v.mpx_advance_lags = MpxAdvanceLags;
  v.pan_cov_row = PanCovRow;
  return v;
}

}  // namespace mp_kernels_internal
}  // namespace tsad
