#include "rules/cmp_span.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PNR_X86_SIMD 1
#endif

namespace pnr {
namespace {

uint64_t CmpBitsScalar(const double* v, size_t n, double lo, double hi,
                       CmpKind kind) {
  uint64_t bits = 0;
  switch (kind) {
    case CmpKind::kLe:
      for (size_t b = 0; b < n; ++b) {
        bits |= static_cast<uint64_t>(v[b] <= hi) << b;
      }
      break;
    case CmpKind::kGt:
      for (size_t b = 0; b < n; ++b) {
        bits |= static_cast<uint64_t>(v[b] > lo) << b;
      }
      break;
    case CmpKind::kRange:
      for (size_t b = 0; b < n; ++b) {
        bits |= static_cast<uint64_t>(v[b] >= lo && v[b] <= hi) << b;
      }
      break;
  }
  return bits;
}

void CmpSpanScalar(const double* v, size_t n, double lo, double hi,
                   CmpKind kind, uint64_t* out) {
  for (size_t w = 0; w * 64 < n; ++w) {
    out[w] = CmpBitsScalar(v + w * 64, std::min<size_t>(64, n - w * 64), lo,
                           hi, kind);
  }
}

#ifdef PNR_X86_SIMD

void CmpSpanSse2(const double* v, size_t n, double lo, double hi, CmpKind kind,
                 uint64_t* out) {
  const size_t full = n / 64;
  switch (kind) {
    case CmpKind::kLe: {
      const __m128d t = _mm_set1_pd(hi);
      for (size_t w = 0; w < full; ++w) {
        const double* p = v + w * 64;
        uint64_t bits = 0;
        for (int k = 0; k < 32; ++k) {
          bits |= static_cast<uint64_t>(_mm_movemask_pd(
                      _mm_cmple_pd(_mm_loadu_pd(p + k * 2), t)))
                  << (k * 2);
        }
        out[w] = bits;
      }
      break;
    }
    case CmpKind::kGt: {
      const __m128d t = _mm_set1_pd(lo);
      for (size_t w = 0; w < full; ++w) {
        const double* p = v + w * 64;
        uint64_t bits = 0;
        for (int k = 0; k < 32; ++k) {
          bits |= static_cast<uint64_t>(_mm_movemask_pd(
                      _mm_cmpgt_pd(_mm_loadu_pd(p + k * 2), t)))
                  << (k * 2);
        }
        out[w] = bits;
      }
      break;
    }
    case CmpKind::kRange: {
      const __m128d l = _mm_set1_pd(lo);
      const __m128d h = _mm_set1_pd(hi);
      for (size_t w = 0; w < full; ++w) {
        const double* p = v + w * 64;
        uint64_t bits = 0;
        for (int k = 0; k < 32; ++k) {
          const __m128d x = _mm_loadu_pd(p + k * 2);
          bits |= static_cast<uint64_t>(_mm_movemask_pd(
                      _mm_and_pd(_mm_cmpge_pd(x, l), _mm_cmple_pd(x, h))))
                  << (k * 2);
        }
        out[w] = bits;
      }
      break;
    }
  }
  if (full * 64 < n) {
    out[full] = CmpBitsScalar(v + full * 64, n - full * 64, lo, hi, kind);
  }
}

__attribute__((target("avx"))) void CmpSpanAvx(const double* v, size_t n,
                                               double lo, double hi,
                                               CmpKind kind, uint64_t* out) {
  const size_t full = n / 64;
  switch (kind) {
    case CmpKind::kLe: {
      const __m256d t = _mm256_set1_pd(hi);
      for (size_t w = 0; w < full; ++w) {
        const double* p = v + w * 64;
        uint64_t bits = 0;
        for (int k = 0; k < 16; ++k) {
          bits |= static_cast<uint64_t>(_mm256_movemask_pd(_mm256_cmp_pd(
                      _mm256_loadu_pd(p + k * 4), t, _CMP_LE_OQ)))
                  << (k * 4);
        }
        out[w] = bits;
      }
      break;
    }
    case CmpKind::kGt: {
      const __m256d t = _mm256_set1_pd(lo);
      for (size_t w = 0; w < full; ++w) {
        const double* p = v + w * 64;
        uint64_t bits = 0;
        for (int k = 0; k < 16; ++k) {
          bits |= static_cast<uint64_t>(_mm256_movemask_pd(_mm256_cmp_pd(
                      _mm256_loadu_pd(p + k * 4), t, _CMP_GT_OQ)))
                  << (k * 4);
        }
        out[w] = bits;
      }
      break;
    }
    case CmpKind::kRange: {
      const __m256d l = _mm256_set1_pd(lo);
      const __m256d h = _mm256_set1_pd(hi);
      for (size_t w = 0; w < full; ++w) {
        const double* p = v + w * 64;
        uint64_t bits = 0;
        for (int k = 0; k < 16; ++k) {
          const __m256d x = _mm256_loadu_pd(p + k * 4);
          bits |= static_cast<uint64_t>(_mm256_movemask_pd(
                      _mm256_and_pd(_mm256_cmp_pd(x, l, _CMP_GE_OQ),
                                    _mm256_cmp_pd(x, h, _CMP_LE_OQ))))
                  << (k * 4);
        }
        out[w] = bits;
      }
      break;
    }
  }
  // Clear the upper register state before the (SSE) scalar tail. GCC does
  // not insert this before that call, and a dirty upper state slows every
  // later SSE instruction in the process on Intel cores: on an Intel Xeon,
  // a C4.5 tree build ran 2.7x slower after one sweep that ended in a
  // partial word.
  _mm256_zeroupper();
  if (full * 64 < n) {
    out[full] = CmpBitsScalar(v + full * 64, n - full * 64, lo, hi, kind);
  }
}

__attribute__((target("avx512f"))) void CmpSpanAvx512(const double* v,
                                                      size_t n, double lo,
                                                      double hi, CmpKind kind,
                                                      uint64_t* out) {
  const size_t full = n / 64;
  switch (kind) {
    case CmpKind::kLe: {
      const __m512d t = _mm512_set1_pd(hi);
      for (size_t w = 0; w < full; ++w) {
        const double* p = v + w * 64;
        uint64_t bits = 0;
        for (int k = 0; k < 8; ++k) {
          bits |= static_cast<uint64_t>(_mm512_cmp_pd_mask(
                      _mm512_loadu_pd(p + k * 8), t, _CMP_LE_OQ))
                  << (k * 8);
        }
        out[w] = bits;
      }
      break;
    }
    case CmpKind::kGt: {
      const __m512d t = _mm512_set1_pd(lo);
      for (size_t w = 0; w < full; ++w) {
        const double* p = v + w * 64;
        uint64_t bits = 0;
        for (int k = 0; k < 8; ++k) {
          bits |= static_cast<uint64_t>(_mm512_cmp_pd_mask(
                      _mm512_loadu_pd(p + k * 8), t, _CMP_GT_OQ))
                  << (k * 8);
        }
        out[w] = bits;
      }
      break;
    }
    case CmpKind::kRange: {
      const __m512d l = _mm512_set1_pd(lo);
      const __m512d h = _mm512_set1_pd(hi);
      for (size_t w = 0; w < full; ++w) {
        const double* p = v + w * 64;
        uint64_t bits = 0;
        for (int k = 0; k < 8; ++k) {
          const __m512d x = _mm512_loadu_pd(p + k * 8);
          bits |= static_cast<uint64_t>(
                      _mm512_cmp_pd_mask(x, l, _CMP_GE_OQ) &
                      _mm512_cmp_pd_mask(x, h, _CMP_LE_OQ))
                  << (k * 8);
        }
        out[w] = bits;
      }
      break;
    }
  }
  _mm256_zeroupper();  // before the SSE tail; see CmpSpanAvx
  if (full * 64 < n) {
    out[full] = CmpBitsScalar(v + full * 64, n - full * 64, lo, hi, kind);
  }
}

#endif  // PNR_X86_SIMD

std::vector<CmpSpanKernel> DetectKernels() {
  std::vector<CmpSpanKernel> kernels = {{"portable", &CmpSpanScalar}};
#ifdef PNR_X86_SIMD
  kernels.push_back({"sse2", &CmpSpanSse2});
  if (__builtin_cpu_supports("avx")) kernels.push_back({"avx", &CmpSpanAvx});
  if (__builtin_cpu_supports("avx512f")) {
    kernels.push_back({"avx512f", &CmpSpanAvx512});
  }
#endif
  return kernels;
}

}  // namespace

const std::vector<CmpSpanKernel>& SupportedCmpSpanKernels() {
  static const std::vector<CmpSpanKernel> kernels = DetectKernels();
  return kernels;
}

const CmpSpanKernel& ActiveCmpSpanKernel() {
  static const CmpSpanKernel active = SupportedCmpSpanKernels().back();
  return active;
}

}  // namespace pnr
