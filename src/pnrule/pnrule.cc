#include "pnrule/pnrule.h"

#include <algorithm>
#include <vector>

#include "pnrule/n_phase.h"
#include "pnrule/p_phase.h"

namespace pnr {

PnruleClassifier::PnruleClassifier(RuleSet p_rules, RuleSet n_rules,
                                   ScoreMatrix scores, bool use_score_matrix)
    : p_rules_(std::move(p_rules)),
      n_rules_(std::move(n_rules)),
      scores_(std::move(scores)),
      use_score_matrix_(use_score_matrix),
      program_(CompiledRuleSet::Compile({&p_rules_, &n_rules_})) {}

double PnruleClassifier::Score(const Dataset& dataset, RowId row) const {
  const int p = p_rules_.FirstMatch(dataset, row);
  if (p == kNoRule) return 0.0;
  return ScoreOf(p, n_rules_.FirstMatch(dataset, row));
}

void PnruleClassifier::ScoreBatch(const Dataset& dataset, const RowId* rows,
                                  size_t count, double* out,
                                  const BatchScoreOptions& options) const {
  ForEachRowBlock(count, ClampOptionsForDataset(dataset, options),
                  [&](size_t begin, size_t end) {
    const size_t n = end - begin;
    // thread_local so consecutive blocks on a worker reuse the scratch
    // masks instead of reallocating them; scratch contents never affect
    // results, so reuse cannot perturb scores.
    thread_local CompiledRuleSet::Scratch scratch;
    thread_local std::vector<int32_t> p_first;
    thread_local std::vector<int32_t> n_first;
    p_first.resize(n);
    program_.BeginBlock(dataset, rows + begin, n, &scratch);
    program_.FirstMatchBlock(kPList, p_first.data(), &scratch);
    // N-rules only arbitrate rows some P-rule claimed — pass the P-coverage
    // mask as the candidate set, so a rare-class block resolves N-rules
    // only for its few P-matched rows (or skips the sweep entirely).
    std::fill(out + begin, out + end, 0.0);
    BitMask p_matched(n);
    for (size_t i = 0; i < n; ++i) {
      if (p_first[i] != kNoRule) p_matched.Set(i);
    }
    if (!p_matched.AnySet()) return;
    n_first.resize(n);
    program_.FirstMatchBlock(kNList, n_first.data(), &scratch, &p_matched);
    p_matched.ForEachSet([&](size_t i) {
      out[begin + i] = ScoreOf(p_first[i], n_first[i]);
    });
  });
}

std::string PnruleClassifier::Describe(const Schema& schema) const {
  std::string out = "PNrule model\nP-rules (presence of target):\n";
  out += p_rules_.ToString(schema);
  out += "N-rules (absence of target):\n";
  out += n_rules_.empty() ? "(none)\n" : n_rules_.ToString(schema);
  if (use_score_matrix_) {
    out += "ScoreMatrix:\n" + scores_.ToString();
  } else {
    out += "ScoreMatrix: disabled (strict P AND NOT N semantics)\n";
  }
  return out;
}

PnruleLearner::PnruleLearner(PnruleConfig config)
    : config_(std::move(config)) {}

StatusOr<PnruleClassifier> PnruleLearner::Train(const Dataset& dataset,
                                                CategoryId target) const {
  return TrainOnRows(dataset, dataset.AllRows(), target);
}

StatusOr<PnruleClassifier> PnruleLearner::TrainOnRows(
    const Dataset& dataset, const RowSubset& rows, CategoryId target,
    PnruleTrainInfo* info) const {
  // One engine for the whole run: the sorted-column cache survives across
  // every refinement of both phases, and the thread pool is spun up once.
  ConditionSearchEngine engine(dataset, config_.num_threads,
                               config_.search_cache_budget_bytes);
  return TrainOnRows(engine, rows, target, info);
}

StatusOr<PnruleClassifier> PnruleLearner::TrainOnRows(
    ConditionSearchEngine& engine, const RowSubset& rows, CategoryId target,
    PnruleTrainInfo* info) const {
  const Dataset& dataset = engine.dataset();
  Status status = config_.Validate();
  if (!status.ok()) return status;
  if (rows.empty()) {
    return Status::InvalidArgument("training set is empty");
  }
  if (dataset.ClassWeight(rows, target) <= 0.0) {
    return Status::InvalidArgument(
        "training set has no examples of the target class");
  }

  PPhaseResult p_phase = RunPPhase(engine, rows, target, config_);
  NPhaseResult n_phase =
      RunNPhase(engine, p_phase.covered_rows, target,
                p_phase.total_positive_weight,
                p_phase.covered_positive_weight, config_);
  ScoreMatrix scores = ScoreMatrix::Build(dataset, rows, target,
                                          p_phase.rules, n_phase.rules,
                                          config_);
  if (info != nullptr) {
    info->num_p_rules = p_phase.rules.size();
    info->num_n_rules = n_phase.rules.size();
    info->p_coverage_fraction = p_phase.coverage_fraction();
    info->erased_positive_weight = n_phase.erased_positive_weight;
  }
  return PnruleClassifier(std::move(p_phase.rules), std::move(n_phase.rules),
                          std::move(scores), config_.use_score_matrix);
}

}  // namespace pnr
