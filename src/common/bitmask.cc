#include "common/bitmask.h"

namespace pnr {
namespace {

size_t CountPortable(const uint64_t* a, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += std::popcount(a[i]);
  return count;
}

size_t CountAndPortable(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += std::popcount(a[i] & b[i]);
  return count;
}

size_t CountAndNotPortable(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += std::popcount(a[i] & ~b[i]);
  return count;
}

#if defined(__x86_64__) || defined(__i386__)
#define PNR_X86_POPCNT 1

__attribute__((target("popcnt"))) size_t CountPopcnt(const uint64_t* a,
                                                     size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += __builtin_popcountll(a[i]);
  return count;
}

__attribute__((target("popcnt"))) size_t CountAndPopcnt(const uint64_t* a,
                                                        const uint64_t* b,
                                                        size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += __builtin_popcountll(a[i] & b[i]);
  return count;
}

__attribute__((target("popcnt"))) size_t CountAndNotPopcnt(const uint64_t* a,
                                                           const uint64_t* b,
                                                           size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += __builtin_popcountll(a[i] & ~b[i]);
  return count;
}

#endif  // x86

std::vector<PopcountKernels> DetectKernels() {
  std::vector<PopcountKernels> kernels = {
      {"portable", &CountPortable, &CountAndPortable, &CountAndNotPortable}};
#ifdef PNR_X86_POPCNT
  if (__builtin_cpu_supports("popcnt")) {
    kernels.push_back(
        {"popcnt", &CountPopcnt, &CountAndPopcnt, &CountAndNotPopcnt});
  }
#endif
  return kernels;
}

}  // namespace

const std::vector<PopcountKernels>& SupportedPopcountKernels() {
  static const std::vector<PopcountKernels> kernels = DetectKernels();
  return kernels;
}

const PopcountKernels& ActivePopcountKernels() {
  static const PopcountKernels active = SupportedPopcountKernels().back();
  return active;
}

}  // namespace pnr
