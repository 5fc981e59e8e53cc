#include "ripper/ripper.h"

#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "ripper/optimize.h"

namespace pnr {

Status RipperConfig::Validate() const {
  if (grow_fraction <= 0.0 || grow_fraction >= 1.0) {
    return Status::InvalidArgument("grow_fraction must be in (0, 1)");
  }
  if (mdl_window_bits < 0.0) {
    return Status::InvalidArgument("mdl_window_bits must be >= 0");
  }
  if (max_prune_error_rate <= 0.0 || max_prune_error_rate > 1.0) {
    return Status::InvalidArgument("max_prune_error_rate must be in (0, 1]");
  }
  if (max_rules == 0) {
    return Status::InvalidArgument("max_rules must be positive");
  }
  return Status::OK();
}

RipperClassifier::RipperClassifier(RuleSet rules)
    : rules_(std::move(rules)), compiled_(CompiledRuleSet::Compile(rules_)) {
  rule_scores_.reserve(rules_.size());
  for (const Rule& rule : rules_.rules()) {
    rule_scores_.push_back((rule.train_stats.positive + 1.0) /
                           (rule.train_stats.covered + 2.0));
  }
}

double RipperClassifier::Score(const Dataset& dataset, RowId row) const {
  const int match = rules_.FirstMatch(dataset, row);
  if (match == kNoRule) return 0.0;
  return rule_scores_[static_cast<size_t>(match)];
}

void RipperClassifier::ScoreBatch(const Dataset& dataset, const RowId* rows,
                                  size_t count, double* out,
                                  const BatchScoreOptions& options) const {
  ForEachRowBlock(count, ClampOptionsForDataset(dataset, options),
                  [&](size_t begin, size_t end) {
    const size_t n = end - begin;
    // thread_local so consecutive blocks on a worker reuse the scratch
    // masks instead of reallocating them; scratch contents never affect
    // results, so reuse cannot perturb scores.
    thread_local CompiledRuleSet::Scratch scratch;
    thread_local std::vector<int32_t> first;
    first.resize(n);
    compiled_.BeginBlock(dataset, rows + begin, n, &scratch);
    compiled_.FirstMatchBlock(0, first.data(), &scratch);
    for (size_t i = 0; i < n; ++i) {
      out[begin + i] = first[i] == kNoRule
                           ? 0.0
                           : rule_scores_[static_cast<size_t>(first[i])];
    }
  });
}

std::string RipperClassifier::Describe(const Schema& schema) const {
  std::string out = "RIPPER model (default = not-target)\n";
  out += rules_.empty() ? "(no rules: always predicts not-target)\n"
                        : rules_.ToString(schema);
  return out;
}

RipperLearner::RipperLearner(RipperConfig config)
    : config_(std::move(config)) {}

StatusOr<RipperClassifier> RipperLearner::Train(const Dataset& dataset,
                                                CategoryId target) const {
  return TrainOnRows(dataset, dataset.AllRows(), target);
}

StatusOr<RipperClassifier> RipperLearner::TrainOnRows(
    const Dataset& dataset, const RowSubset& rows, CategoryId target) const {
  Status status = config_.Validate();
  if (!status.ok()) return status;
  if (rows.empty()) {
    return Status::InvalidArgument("training set is empty");
  }

  Rng rng(config_.seed);
  // One engine for the whole run: column sorts are cached across every
  // grow/prune split and optimization pass.
  ConditionSearchEngine engine(dataset, config_.num_threads);
  CoveredRuleSet rules(dataset, rows, target, engine.PossibleConditions());
  CoverPositives(engine, BitMask(rows.size(), true), config_, &rng, &rules);
  for (size_t pass = 0; pass < config_.optimization_passes; ++pass) {
    OptimizeRuleSet(engine, config_, &rng, &rules);
  }
  DeleteHarmfulRules(&rules);
  return RipperClassifier(rules.DecisionList());
}

}  // namespace pnr
