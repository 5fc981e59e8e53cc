// Threshold comparison kernels over contiguous column spans: the numeric
// condition sweep of CompiledRuleSet.
//
// Each kernel sweeps a whole contiguous column span, packing the comparison
// results of every 64 values into one mask word of `out` (out[w] covers
// values [64w, 64w + 64)); the span-level shape keeps the broadcast
// threshold in registers across the sweep and costs one indirect call per
// condition instead of one per word. The baseline build targets generic
// x86-64, so wider instruction sets are selected at runtime per process
// instead of at compile time; all tiers use ordered comparisons, matching
// the scalar semantics for NaN (any comparison with NaN is false). kRange
// words are the AND of the two bound comparisons, identical to
// `v >= lo && v <= hi`.

#ifndef PNR_RULES_CMP_SPAN_H_
#define PNR_RULES_CMP_SPAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pnr {

/// The comparison a numeric condition makes: `v <= hi`, `v > lo`, or
/// `v >= lo && v <= hi`.
enum class CmpKind { kLe, kGt, kRange };

/// Packs the comparisons of `v[0..n)` into `out[0..ceil(n/64))`; the bits
/// of a partial last word past `n` are zero.
using CmpSpanFn = void (*)(const double* v, size_t n, double lo, double hi,
                           CmpKind kind, uint64_t* out);

/// One instruction-set tier of the span kernel.
struct CmpSpanKernel {
  const char* name;
  CmpSpanFn span;
};

/// Every tier this CPU can run, portable first and widest last. All tiers
/// compute identical bits.
const std::vector<CmpSpanKernel>& SupportedCmpSpanKernels();

/// The widest supported tier, resolved on first use.
const CmpSpanKernel& ActiveCmpSpanKernel();

}  // namespace pnr

#endif  // PNR_RULES_CMP_SPAN_H_
