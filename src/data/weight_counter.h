// Weighted sizes of row sets held as BitMasks over a row list, shared by
// the learners that work on coverage masks (C4.5rules, RIPPER).

#ifndef PNR_DATA_WEIGHT_COUNTER_H_
#define PNR_DATA_WEIGHT_COUNTER_H_

#include "common/bitmask.h"
#include "data/dataset.h"

namespace pnr {

/// Sums the weights of the rows a mask selects, where mask bit i stands for
/// (*rows)[i]. With unit weights a sum is a popcount; otherwise it adds the
/// set rows' weights in ascending bit order, which is the row list's own
/// order, so every sum equals a walk of the list bit for bit.
struct WeightCounter {
  /// `dataset` and `rows` must outlive the counter.
  WeightCounter(const Dataset& dataset, const RowSubset& rows)
      : dataset(&dataset), rows(&rows) {
    for (RowId row : rows) {
      if (dataset.weight(row) != 1.0) {
        unit_weights = false;
        break;
      }
    }
  }

  const Dataset* dataset;
  const RowSubset* rows;
  bool unit_weights = true;

  double Weight(const BitMask& mask) const {
    if (unit_weights) return static_cast<double>(mask.Count());
    double total = 0.0;
    mask.ForEachSet([&](size_t i) { total += dataset->weight((*rows)[i]); });
    return total;
  }

  double WeightAnd(const BitMask& mask, const BitMask& other) const {
    if (unit_weights) return static_cast<double>(mask.CountAnd(other));
    double total = 0.0;
    mask.ForEachSet([&](size_t i) {
      if (other.Get(i)) total += dataset->weight((*rows)[i]);
    });
    return total;
  }

  double WeightAndNot(const BitMask& mask, const BitMask& other) const {
    if (unit_weights) return static_cast<double>(mask.CountAndNot(other));
    double total = 0.0;
    mask.ForEachSet([&](size_t i) {
      if (!other.Get(i)) total += dataset->weight((*rows)[i]);
    });
    return total;
  }
};

/// Bit i set iff (rows)[i] is labelled `cls`.
inline BitMask ClassMask(const Dataset& dataset, const RowSubset& rows,
                         CategoryId cls) {
  BitMask mask(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (dataset.label(rows[i]) == cls) mask.Set(i);
  }
  return mask;
}

}  // namespace pnr

#endif  // PNR_DATA_WEIGHT_COUNTER_H_
