// AVX-512F kernel variant (8 double lanes). Compiled with
// -mavx512f -ffp-contract=off — AVX-512F brings FMA with it, which is
// exactly why the contract-off flag is load-bearing here; see
// mp_kernels_impl.inc.

#define TSAD_SIMD_WIDTH 8
#define TSAD_SIMD_NAMESPACE mp_simd_avx512
#define TSAD_SIMD_TIER SimdTier::kAvx512
#define TSAD_SIMD_VARIANT_FACTORY Avx512Variant

#include "substrates/mp_kernels_impl.inc"
