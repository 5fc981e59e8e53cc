#include "pnrule/score_matrix.h"

#include <cassert>
#include <vector>

#include "common/string_util.h"
#include "rules/compiled_rule_set.h"

namespace pnr {

size_t ScoreMatrix::Index(size_t p_index, size_t n_index) const {
  assert(p_index < num_p_ && n_index <= num_n_);
  return p_index * (num_n_ + 1) + n_index;
}

double ScoreMatrix::Score(size_t p_index, size_t n_index) const {
  return scores_[Index(p_index, n_index)];
}

double ScoreMatrix::CellWeight(size_t p_index, size_t n_index) const {
  return weights_[Index(p_index, n_index)];
}

ScoreMatrix ScoreMatrix::FromValues(size_t num_p, size_t num_n,
                                    std::vector<double> scores,
                                    std::vector<double> weights) {
  ScoreMatrix matrix;
  matrix.num_p_ = num_p;
  matrix.num_n_ = num_n;
  assert(scores.size() == num_p * (num_n + 1));
  assert(weights.size() == scores.size());
  matrix.scores_ = std::move(scores);
  matrix.weights_ = std::move(weights);
  return matrix;
}

ScoreMatrix ScoreMatrix::Build(const Dataset& dataset, const RowSubset& rows,
                               CategoryId target, const RuleSet& p_rules,
                               const RuleSet& n_rules,
                               const PnruleConfig& config) {
  ScoreMatrix matrix;
  matrix.num_p_ = p_rules.size();
  matrix.num_n_ = n_rules.size();
  const size_t cells = matrix.num_p_ * (matrix.num_n_ + 1);
  matrix.weights_.assign(cells, 0.0);
  matrix.scores_.assign(cells, 0.0);
  if (matrix.num_p_ == 0) return matrix;

  // Replay the model over the training rows through one compiled program
  // holding both lists (rules/compiled_rule_set.h) instead of two
  // interpreted FirstMatch scans per row. One block spans every row, so
  // each referenced column is swept once — on a demand-paged dataset, at
  // most one fault per column for both lists. Cells accumulate in row
  // order, so the matrix is identical to the row-at-a-time replay.
  std::vector<double> positives(cells, 0.0);
  const CompiledRuleSet program =
      CompiledRuleSet::Compile({&p_rules, &n_rules});  // lists 0: P, 1: N
  CompiledRuleSet::Scratch scratch;
  const size_t count = rows.size();
  std::vector<int32_t> p_first(count);
  std::vector<int32_t> n_first(count);
  program.BeginBlock(dataset, rows.data(), count, &scratch);
  program.FirstMatchBlock(0, p_first.data(), &scratch);
  // Only P-covered rows land in a cell, so the N replay can restrict itself
  // to them (sparse for a rare class).
  BitMask p_matched(count);
  for (size_t i = 0; i < count; ++i) {
    if (p_first[i] != kNoRule) p_matched.Set(i);
  }
  program.FirstMatchBlock(1, n_first.data(), &scratch, &p_matched);
  p_matched.ForEachSet([&](size_t i) {
    const size_t n_index = n_first[i] == kNoRule
                               ? matrix.num_n_
                               : static_cast<size_t>(n_first[i]);
    const size_t cell =
        matrix.Index(static_cast<size_t>(p_first[i]), n_index);
    const RowId row = rows[i];
    const double w = dataset.weight(row);
    matrix.weights_[cell] += w;
    if (dataset.label(row) == target) positives[cell] += w;
  });

  const double s = config.score_smoothing;
  for (size_t p = 0; p < matrix.num_p_; ++p) {
    for (size_t n = 0; n <= matrix.num_n_; ++n) {
      const size_t cell = matrix.Index(p, n);
      const double w = matrix.weights_[cell];
      if (w >= config.score_min_cell_weight && w > 0.0) {
        // Enough evidence: trust the empirical (smoothed) probability.
        matrix.scores_[cell] = (positives[cell] + s) / (w + 2.0 * s);
      } else if (n < matrix.num_n_) {
        // Insignificant cell where an N-rule fired: honor the N-rule
        // (default P ∧ ¬N semantics).
        matrix.scores_[cell] = 0.0;
      } else {
        // Insignificant "no N-rule" cell: fall back to the P-rule's own
        // training accuracy.
        matrix.scores_[cell] = p_rules.rule(p).train_stats.accuracy();
      }
    }
  }
  return matrix;
}

std::string ScoreMatrix::ToString() const {
  std::string out;
  for (size_t p = 0; p < num_p_; ++p) {
    out += "P" + std::to_string(p) + ":";
    for (size_t n = 0; n <= num_n_; ++n) {
      out += (n == num_n_ ? "  none=" : "  N" + std::to_string(n) + "=");
      out += FormatDouble(Score(p, n), 3);
      out += "(w=" + FormatDouble(CellWeight(p, n), 1) + ")";
    }
    out += "\n";
  }
  return out;
}

}  // namespace pnr
