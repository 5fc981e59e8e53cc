#include "induction/mdl.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "common/math_util.h"

namespace pnr {

double PossibleConditionCount(
    const Schema& schema,
    const std::function<size_t(AttrIndex)>& distinct_values) {
  double count = 0.0;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const AttrIndex attr = static_cast<AttrIndex>(a);
    if (schema.attribute(attr).is_categorical()) {
      count += static_cast<double>(schema.attribute(attr).num_categories());
    } else {
      const size_t distinct = distinct_values(attr);
      if (distinct > 1) count += 2.0 * static_cast<double>(distinct - 1);
    }
  }
  return std::max(count, 1.0);
}

double CountPossibleConditions(const Dataset& dataset) {
  return PossibleConditionCount(dataset.schema(), [&](AttrIndex attr) {
    // Equal keys hash equally, so -0.0 and 0.0 count once; NaN, which
    // equals nothing, is left out.
    std::unordered_set<double> distinct;
    for (double v : dataset.numeric_column(attr)) {
      if (!std::isnan(v)) distinct.insert(v);
    }
    return distinct.size();
  });
}

double RuleTheoryBits(size_t num_conditions, double possible_conditions) {
  if (num_conditions == 0) return 0.0;
  const double k = static_cast<double>(num_conditions);
  const double n = std::max(possible_conditions, k);
  const double bits = IntegerCodingBits(k) + SubsetDescriptionBits(n, k, k / n);
  return 0.5 * bits;  // Cohen's redundancy discount.
}

double ExceptionBits(double expected_fp_ratio, double cover, double uncover,
                     double fp, double fn) {
  assert(fp <= cover + 1e-9 && fn <= uncover + 1e-9);
  const double total_bits = SafeLog2(cover + uncover + 1.0);
  double cover_bits = 0.0;
  double uncover_bits = 0.0;
  if (cover > uncover) {
    // Code false positives against their expected rate, false negatives
    // against their empirical rate.
    const double expected_errors = expected_fp_ratio * (fp + fn);
    cover_bits = cover > 0.0
                     ? SubsetDescriptionBits(
                           cover, fp,
                           std::clamp(expected_errors / cover, 1e-12, 1.0))
                     : 0.0;
    uncover_bits =
        uncover > 0.0 ? SubsetDescriptionBits(uncover, fn, fn / uncover) : 0.0;
  } else {
    const double expected_errors = (1.0 - expected_fp_ratio) * (fp + fn);
    cover_bits =
        cover > 0.0 ? SubsetDescriptionBits(cover, fp, fp / cover) : 0.0;
    uncover_bits = uncover > 0.0
                       ? SubsetDescriptionBits(
                             uncover, fn,
                             std::clamp(expected_errors / uncover, 1e-12, 1.0))
                       : 0.0;
  }
  return total_bits + cover_bits + uncover_bits;
}

double ExceptionBitsEmpirical(double cover, double uncover, double fp,
                              double fn) {
  assert(fp <= cover + 1e-9 && fn <= uncover + 1e-9);
  const double total_bits = SafeLog2(cover + uncover + 1.0);
  const double cover_bits =
      cover > 0.0 ? SubsetDescriptionBits(cover, fp, fp / cover) : 0.0;
  const double uncover_bits =
      uncover > 0.0 ? SubsetDescriptionBits(uncover, fn, fn / uncover) : 0.0;
  return total_bits + cover_bits + uncover_bits;
}

double CoverageDescriptionLength(const Dataset& dataset, const RowSubset& rows,
                                 const RowSubset& uncovered, CategoryId target,
                                 const RuleSet& rules,
                                 double possible_conditions,
                                 double expected_fp_ratio,
                                 bool invert_target) {
  double theory = 0.0;
  for (const Rule& rule : rules.rules()) {
    theory += RuleTheoryBits(rule.size(), possible_conditions);
  }
  double cover = 0.0;
  double uncover = 0.0;
  double fp = 0.0;
  double fn = 0.0;
  // `uncovered` is a subsequence of `rows`: one merge walk classifies every
  // row, accumulating in row order.
  size_t u = 0;
  for (RowId row : rows) {
    const double w = dataset.weight(row);
    const bool positive = (dataset.label(row) == target) != invert_target;
    if (u < uncovered.size() && uncovered[u] == row) {
      ++u;
      uncover += w;
      if (positive) fn += w;
    } else {
      cover += w;
      if (!positive) fp += w;
    }
  }
  assert(u == uncovered.size());
  if (expected_fp_ratio < 0.0) {
    return theory + ExceptionBitsEmpirical(cover, uncover, fp, fn);
  }
  return theory + ExceptionBits(expected_fp_ratio, cover, uncover, fp, fn);
}

double MaskDescriptionLength(const WeightCounter& counter,
                             const BitMask& positive, const BitMask& uncovered,
                             const std::vector<size_t>& rule_sizes,
                             double possible_conditions) {
  double theory = 0.0;
  for (size_t size : rule_sizes) {
    theory += RuleTheoryBits(size, possible_conditions);
  }
  BitMask covered(uncovered.size(), true);
  covered.AndNot(uncovered);
  return theory + ExceptionBits(0.5, counter.Weight(covered),
                                counter.Weight(uncovered),
                                counter.WeightAndNot(covered, positive),
                                counter.WeightAnd(uncovered, positive));
}

}  // namespace pnr
