// SSE2 kernel variant (2 double lanes). Compiled with
// -msse2 -ffp-contract=off; see mp_kernels_impl.inc.

#define TSAD_SIMD_WIDTH 2
#define TSAD_SIMD_NAMESPACE mp_simd_sse2
#define TSAD_SIMD_TIER SimdTier::kSse2
#define TSAD_SIMD_VARIANT_FACTORY Sse2Variant

#include "substrates/mp_kernels_impl.inc"
