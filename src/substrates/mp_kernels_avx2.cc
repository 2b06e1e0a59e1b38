// AVX2 kernel variant (4 double lanes). Compiled with
// -mavx2 -ffp-contract=off; see mp_kernels_impl.inc.

#define TSAD_SIMD_WIDTH 4
#define TSAD_SIMD_NAMESPACE mp_simd_avx2
#define TSAD_SIMD_TIER SimdTier::kAvx2
#define TSAD_SIMD_VARIANT_FACTORY Avx2Variant

#include "substrates/mp_kernels_impl.inc"
