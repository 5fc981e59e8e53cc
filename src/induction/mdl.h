// Minimum-description-length coding of rule sets (Cohen's RIPPER scheme,
// following Quinlan's exception-coding formulation).
//
// A rule set's description length = sum of per-rule theory bits (with the
// standard 50% redundancy discount) + the bits needed to transmit the
// classification exceptions (false positives among covered records, false
// negatives among uncovered ones). RIPPER stops adding rules when the total
// DL exceeds the best seen so far by more than 64 bits; PNrule reuses the
// same criterion to stop adding N-rules.

#ifndef PNR_INDUCTION_MDL_H_
#define PNR_INDUCTION_MDL_H_

#include <functional>
#include <vector>

#include "common/bitmask.h"
#include "data/dataset.h"
#include "data/weight_counter.h"
#include "rules/rule_set.h"

namespace pnr {

/// Number of "possible conditions" in the dataset: categorical attributes
/// contribute one candidate per category, numeric attributes contribute two
/// one-sided tests per distinct-value boundary (over the full dataset).
/// This is the `n` in the theory cost of choosing a rule's conditions.
/// Distinct values are the non-NaN ones, -0.0 and 0.0 being one value.
double CountPossibleConditions(const Dataset& dataset);

/// The count above from each numeric attribute's number of distinct non-NaN
/// values, `distinct_values(attr)`; the one definition behind
/// CountPossibleConditions and ConditionSearchEngine::PossibleConditions.
double PossibleConditionCount(
    const Schema& schema,
    const std::function<size_t(AttrIndex)>& distinct_values);

/// Theory cost in bits of one rule with `num_conditions` conditions drawn
/// from `possible_conditions` candidates:
///   0.5 * (||k|| + S(n, k, k/n))
/// where ||k|| is the universal integer code and S is the subset cost.
/// The 0.5 factor is Cohen's redundancy discount. Returns 0 for empty rules.
double RuleTheoryBits(size_t num_conditions, double possible_conditions);

/// Exception (data) cost in bits of a classifier that covers `cover` weight
/// of records with `fp` of them wrong, and leaves `uncover` weight
/// uncovered with `fn` of them wrong. `expected_fp_ratio` is the expected
/// fraction of errors that are false positives (0.5 before optimization).
/// This mirrors the dataDL computation of Cohen's implementation.
double ExceptionBits(double expected_fp_ratio, double cover, double uncover,
                     double fp, double fn);

/// Symmetric variant coding both sides at their empirical error rates.
/// Cohen's asymmetric form charges a phantom cost when coverage exceeds
/// half the data with zero false positives — harmless for RIPPER's target
/// modeling, but it would cut PNrule's N-phase short, so the N-phase uses
/// this form.
double ExceptionBitsEmpirical(double cover, double uncover, double fp,
                              double fn);

/// Total description length in bits of `rules` as a model of `target` over
/// `rows`: theory bits of every rule + exception bits of the rule set's
/// aggregate coverage, given as `uncovered`, exactly the rows of `rows` that
/// no rule covers, in `rows` order. With `invert_target` the positive class
/// is "not target" (PNrule's N-phase models the *absence* of the target
/// class). A negative `expected_fp_ratio` selects the symmetric
/// (empirical-rate) exception coding. Reads only weights and labels, never a
/// feature column: the N-phase keeps that list anyway (the rows left for the
/// next N-rule), so its MDL stop costs no column pass.
double CoverageDescriptionLength(const Dataset& dataset, const RowSubset& rows,
                                 const RowSubset& uncovered, CategoryId target,
                                 const RuleSet& rules,
                                 double possible_conditions,
                                 double expected_fp_ratio = 0.5,
                                 bool invert_target = false);

/// RIPPER's description length (Cohen's coding, expected_fp_ratio 0.5) from
/// masks over the rows `counter` reads: bit i of `uncovered` is set iff no
/// rule covers (*counter.rows)[i], of `positive` iff that row is of the
/// modelled class; `rule_sizes` are the rules' condition counts in list
/// order. Each weight sum runs in the row list's order, so the bits equal
/// CoverageDescriptionLength's for the same rules and coverage.
double MaskDescriptionLength(const WeightCounter& counter,
                             const BitMask& positive, const BitMask& uncovered,
                             const std::vector<size_t>& rule_sizes,
                             double possible_conditions);

}  // namespace pnr

#endif  // PNR_INDUCTION_MDL_H_
