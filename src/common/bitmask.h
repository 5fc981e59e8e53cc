// Dense bitmask over row indices, used by C4.5rules' generalization and
// rule-subset selection to make repeated coverage queries cheap.
//
// The set-bit counts (Count, CountAnd, CountAndNot) run through word-span
// kernels chosen once per process: the CPU's popcnt instruction when it
// has one, else a portable count. The build targets baseline x86-64, where
// a plain std::popcount compiles to a libgcc call per word.

#ifndef PNR_COMMON_BITMASK_H_
#define PNR_COMMON_BITMASK_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pnr {

/// Set-bit count kernels over spans of 64-bit mask words.
struct PopcountKernels {
  const char* name;
  size_t (*count)(const uint64_t* a, size_t n);
  size_t (*count_and)(const uint64_t* a, const uint64_t* b, size_t n);
  size_t (*count_and_not)(const uint64_t* a, const uint64_t* b, size_t n);
};

/// Every tier this CPU can run, portable first and widest last. All tiers
/// return identical counts.
const std::vector<PopcountKernels>& SupportedPopcountKernels();

/// The widest supported tier, resolved on first use.
const PopcountKernels& ActivePopcountKernels();

/// Fixed-size bit vector with block-wise boolean algebra.
class BitMask {
 public:
  BitMask() = default;
  /// Creates `size` bits, all equal to `value`.
  explicit BitMask(size_t size, bool value = false)
      : size_(size),
        blocks_((size + 63) / 64, value ? ~uint64_t{0} : uint64_t{0}) {
    TrimTail();
  }

  size_t size() const { return size_; }

  bool Get(size_t index) const {
    assert(index < size_);
    return (blocks_[index / 64] >> (index % 64)) & 1u;
  }

  void Set(size_t index, bool value = true) {
    assert(index < size_);
    const uint64_t bit = uint64_t{1} << (index % 64);
    if (value) {
      blocks_[index / 64] |= bit;
    } else {
      blocks_[index / 64] &= ~bit;
    }
  }

  /// Number of set bits.
  size_t Count() const {
    return ActivePopcountKernels().count(blocks_.data(), blocks_.size());
  }

  /// True iff any bit is set.
  bool AnySet() const {
    for (uint64_t block : blocks_) {
      if (block != 0) return true;
    }
    return false;
  }

  /// Number of set bits in (*this & other).
  size_t CountAnd(const BitMask& other) const {
    assert(size_ == other.size_);
    return ActivePopcountKernels().count_and(blocks_.data(),
                                             other.blocks_.data(),
                                             blocks_.size());
  }

  /// Number of set bits in (*this & ~other).
  size_t CountAndNot(const BitMask& other) const {
    assert(size_ == other.size_);
    return ActivePopcountKernels().count_and_not(blocks_.data(),
                                                 other.blocks_.data(),
                                                 blocks_.size());
  }

  BitMask& operator&=(const BitMask& other) {
    assert(size_ == other.size_);
    for (size_t i = 0; i < blocks_.size(); ++i) {
      blocks_[i] &= other.blocks_[i];
    }
    return *this;
  }

  BitMask& operator|=(const BitMask& other) {
    assert(size_ == other.size_);
    for (size_t i = 0; i < blocks_.size(); ++i) {
      blocks_[i] |= other.blocks_[i];
    }
    return *this;
  }

  /// In-place *this &= ~other.
  BitMask& AndNot(const BitMask& other) {
    assert(size_ == other.size_);
    for (size_t i = 0; i < blocks_.size(); ++i) {
      blocks_[i] &= ~other.blocks_[i];
    }
    return *this;
  }

  friend BitMask operator&(BitMask lhs, const BitMask& rhs) {
    lhs &= rhs;
    return lhs;
  }

  friend BitMask operator|(BitMask lhs, const BitMask& rhs) {
    lhs |= rhs;
    return lhs;
  }

  bool operator==(const BitMask& other) const {
    return size_ == other.size_ && blocks_ == other.blocks_;
  }

  // -- Raw 64-bit block access (bulk mask construction) ---------------------

  /// Number of 64-bit storage blocks.
  size_t num_blocks() const { return blocks_.size(); }

  /// Block `index` (bit i of the mask is bit i%64 of block i/64).
  uint64_t block(size_t index) const { return blocks_[index]; }

  /// Overwrites block `index`; bits past size() are cleared.
  void set_block(size_t index, uint64_t value) {
    assert(index < blocks_.size());
    blocks_[index] = value;
    if (index + 1 == blocks_.size()) TrimTail();
  }

  /// Calls `fn(index)` for every set bit, ascending.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t b = 0; b < blocks_.size(); ++b) {
      uint64_t block = blocks_[b];
      while (block != 0) {
        const int bit = std::countr_zero(block);
        fn(b * 64 + static_cast<size_t>(bit));
        block &= block - 1;
      }
    }
  }

 private:
  void TrimTail() {
    const size_t tail = size_ % 64;
    if (tail != 0 && !blocks_.empty()) {
      blocks_.back() &= (uint64_t{1} << tail) - 1;
    }
  }

  size_t size_ = 0;
  std::vector<uint64_t> blocks_;
};

}  // namespace pnr

#endif  // PNR_COMMON_BITMASK_H_
