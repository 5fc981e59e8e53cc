#include "c45/rules.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>

#include "common/bitmask.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "data/weight_counter.h"
#include "induction/mdl.h"

namespace pnr {

Status C45RulesConfig::Validate() const {
  Status tree_status = tree.Validate();
  if (!tree_status.ok()) return tree_status;
  if (cf <= 0.0 || cf >= 1.0) {
    return Status::InvalidArgument("cf must be in (0, 1)");
  }
  if (max_initial_rules == 0) {
    return Status::InvalidArgument("max_initial_rules must be positive");
  }
  return Status::OK();
}

C45RulesClassifier::C45RulesClassifier(std::vector<ClassRule> rules,
                                       CategoryId default_class,
                                       CategoryId target,
                                       double default_target_score)
    : rules_(std::move(rules)),
      default_class_(default_class),
      target_(target),
      default_target_score_(default_target_score) {
  RuleSet flat;
  rule_scores_.reserve(rules_.size());
  rule_positive_.reserve(rules_.size());
  for (const ClassRule& entry : rules_) {
    flat.AddRule(entry.rule);
    const RuleStats& stats = entry.rule.train_stats;
    const double laplace = (stats.positive + 1.0) / (stats.covered + 2.0);
    rule_scores_.push_back(entry.cls == target_ ? laplace : 1.0 - laplace);
    rule_positive_.push_back(entry.cls == target_ ? 1 : 0);
  }
  compiled_ = CompiledRuleSet::Compile(flat);
}

double C45RulesClassifier::Score(const Dataset& dataset, RowId row) const {
  for (const ClassRule& entry : rules_) {
    if (!entry.rule.Matches(dataset, row)) continue;
    const RuleStats& stats = entry.rule.train_stats;
    const double laplace = (stats.positive + 1.0) / (stats.covered + 2.0);
    return entry.cls == target_ ? laplace : 1.0 - laplace;
  }
  return default_target_score_;
}

bool C45RulesClassifier::Predict(const Dataset& dataset, RowId row) const {
  for (const ClassRule& entry : rules_) {
    if (entry.rule.Matches(dataset, row)) return entry.cls == target_;
  }
  return default_class_ == target_;
}

void C45RulesClassifier::ScoreBatch(const Dataset& dataset, const RowId* rows,
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
                           ? default_target_score_
                           : rule_scores_[static_cast<size_t>(first[i])];
    }
  });
}

void C45RulesClassifier::PredictBatch(const Dataset& dataset,
                                      const RowId* rows, size_t count,
                                      uint8_t* out,
                                      const BatchScoreOptions& options) const {
  const uint8_t default_positive = default_class_ == target_ ? 1 : 0;
  ForEachRowBlock(count, ClampOptionsForDataset(dataset, options),
                  [&](size_t begin, size_t end) {
    const size_t n = end - begin;
    thread_local CompiledRuleSet::Scratch scratch;
    thread_local std::vector<int32_t> first;
    first.resize(n);
    compiled_.BeginBlock(dataset, rows + begin, n, &scratch);
    compiled_.FirstMatchBlock(0, first.data(), &scratch);
    for (size_t i = 0; i < n; ++i) {
      out[begin + i] = first[i] == kNoRule
                           ? default_positive
                           : rule_positive_[static_cast<size_t>(first[i])];
    }
  });
}

std::string C45RulesClassifier::Describe(const Schema& schema) const {
  std::string out = "C4.5rules model\n";
  for (size_t i = 0; i < rules_.size(); ++i) {
    const ClassRule& entry = rules_[i];
    out += "[" + std::to_string(i) + "] IF " +
           entry.rule.ToString(schema) + " THEN class " +
           schema.class_attr().CategoryName(entry.cls) + "   (cov=" +
           FormatDouble(entry.rule.train_stats.covered, 1) + ", acc=" +
           FormatDouble(entry.rule.train_stats.accuracy(), 4) + ")\n";
  }
  out += "default: class " +
         schema.class_attr().CategoryName(default_class_) + "\n";
  return out;
}

std::vector<C45RulesClassifier::ClassRule> ExtractTreeRules(
    const DecisionTree& tree, const Schema& schema, size_t max_rules) {
  using ClassRule = C45RulesClassifier::ClassRule;
  std::vector<ClassRule> rules;
  if (tree.root() < 0) return rules;

  struct Frame {
    int32_t node;
    std::vector<Condition> path;
  };
  std::vector<Frame> stack = {{tree.root(), {}}};
  while (!stack.empty() && rules.size() < max_rules) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    const TreeNode& node = tree.nodes()[static_cast<size_t>(frame.node)];
    if (node.is_leaf) {
      if (node.total_weight <= 0.0) continue;
      ClassRule entry;
      entry.rule = Rule(frame.path);
      entry.cls = node.predicted_class;
      rules.push_back(std::move(entry));
      continue;
    }
    const Attribute& attr = schema.attribute(node.attr);
    if (attr.is_numeric()) {
      auto descend = [&](int32_t child, Condition condition) {
        if (child < 0) return;
        std::vector<Condition> path = frame.path;
        // Merge with an existing same-direction bound on this attribute:
        // keep the tighter one (paths revisit numeric attributes often).
        bool merged = false;
        for (Condition& existing : path) {
          if (existing.attr != condition.attr ||
              existing.op != condition.op) {
            continue;
          }
          if (condition.op == ConditionOp::kLessEqual) {
            existing.hi = std::min(existing.hi, condition.hi);
          } else {
            existing.lo = std::max(existing.lo, condition.lo);
          }
          merged = true;
          break;
        }
        if (!merged) path.push_back(condition);
        stack.push_back({child, std::move(path)});
      };
      descend(node.children[0],
              Condition::LessEqual(node.attr, node.threshold));
      descend(node.children[1],
              Condition::Greater(node.attr, node.threshold));
    } else {
      for (size_t c = 0; c < node.children.size(); ++c) {
        if (node.children[c] < 0) continue;
        std::vector<Condition> path = frame.path;
        path.push_back(
            Condition::CatEqual(node.attr, static_cast<CategoryId>(c)));
        stack.push_back({node.children[c], std::move(path)});
      }
    }
  }
  return rules;
}

namespace {

using ClassRule = C45RulesClassifier::ClassRule;

// Pessimistic error rate of a rule covering `cov` weight with `err` of it
// wrong. Empty coverage is maximally pessimistic.
double PessimisticErrorRate(double cov, double err, double cf) {
  if (cov <= 0.0) return 1.0;
  return BinomialUpperLimit(cov, std::min(err, cov), cf);
}

// PessimisticErrorRate memoized over one training run. The rate is a root
// search over the incomplete beta function, and generalization asks for
// the same (coverage, errors) pair again and again: a deletion that
// changes no coverage, the chosen deletion as the next round's baseline,
// sibling leaves' shared paths. Keys are the exact bit patterns, so every
// rate is the one the direct call returns.
class PessimisticRates {
 public:
  explicit PessimisticRates(double cf) : cf_(cf) {}

  double operator()(double cov, double err) {
    const auto [it, inserted] = memo_.try_emplace(
        {std::bit_cast<uint64_t>(cov), std::bit_cast<uint64_t>(err)}, 0.0);
    if (inserted) it->second = PessimisticErrorRate(cov, err, cf_);
    return it->second;
  }

 private:
  double cf_;
  std::map<std::pair<uint64_t, uint64_t>, double> memo_;
};

// Greedy generalization (Quinlan ch. 5): repeatedly delete the condition
// whose removal minimizes the rule's pessimistic error rate, while that
// does not exceed the current rule's rate. `masks[i]` is the coverage of
// the rule's i-th condition.
void GeneralizeRule(std::vector<const BitMask*> masks,
                    const WeightCounter& counter, const BitMask& class_mask,
                    PessimisticRates* rates, Rule* rule) {
  const size_t num_rows = counter.rows->size();
  while (!masks.empty()) {
    const size_t k = masks.size();
    // Prefix/suffix ANDs let each single-deletion coverage be computed in
    // one block-wise AND.
    std::vector<BitMask> prefix(k + 1);
    std::vector<BitMask> suffix(k + 1);
    prefix[0] = BitMask(num_rows, true);
    suffix[k] = BitMask(num_rows, true);
    for (size_t i = 0; i < k; ++i) prefix[i + 1] = prefix[i] & *masks[i];
    for (size_t i = k; i-- > 0;) suffix[i] = suffix[i + 1] & *masks[i];

    const BitMask& current = prefix[k];
    const double current_cov = counter.Weight(current);
    const double current_err = counter.WeightAndNot(current, class_mask);
    const double current_rate =
        (*rates)(current_cov, current_err);

    double best_rate = std::numeric_limits<double>::infinity();
    size_t best_index = k;
    for (size_t j = 0; j < k; ++j) {
      const BitMask without = prefix[j] & suffix[j + 1];
      const double cov = counter.Weight(without);
      const double err = counter.WeightAndNot(without, class_mask);
      const double rate = (*rates)(cov, err);
      if (rate < best_rate) {
        best_rate = rate;
        best_index = j;
      }
    }
    if (best_index == k || best_rate > current_rate) break;
    rule->RemoveCondition(best_index);
    masks.erase(masks.begin() + static_cast<std::ptrdiff_t>(best_index));
  }
}

// Greedy backward MDL subset selection for one class's rules. Returns the
// indices (into `rules`) of the kept subset and the subset's aggregate
// false-positive weight (for class ranking).
struct SubsetResult {
  std::vector<size_t> kept;
  double false_positive_weight = 0.0;
};

SubsetResult SelectRuleSubset(const WeightCounter& counter,
                              const BitMask& class_mask,
                              const std::vector<const Rule*>& rules,
                              const std::vector<BitMask>& coverage,
                              double possible_conditions) {
  const Dataset& dataset = *counter.dataset;
  const RowSubset& rows = *counter.rows;
  const size_t n = rules.size();
  std::vector<bool> included(n, true);

  // Per-row cover counts and aggregate exception statistics.
  std::vector<uint32_t> cover_count(rows.size(), 0);
  for (size_t r = 0; r < n; ++r) {
    coverage[r].ForEachSet([&](size_t i) { ++cover_count[i]; });
  }
  // Unit weights: a removal's deltas are popcounts against `multi` (rows
  // covered by two or more included rules) and `multi_or_class`. Integer
  // sums are exact, so they equal the row walk's sums bit for bit.
  BitMask multi(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (cover_count[i] >= 2) multi.Set(i);
  }
  BitMask multi_or_class = multi | class_mask;
  double cover_w = 0.0;
  double fp_w = 0.0;
  double total_w = 0.0;
  double class_w = 0.0;
  double covered_class_w = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const double w = counter.unit_weights ? 1.0 : dataset.weight(rows[i]);
    total_w += w;
    const bool in_class = class_mask.Get(i);
    if (in_class) class_w += w;
    if (cover_count[i] > 0) {
      cover_w += w;
      if (in_class) {
        covered_class_w += w;
      } else {
        fp_w += w;
      }
    }
  }
  double fn_w = class_w - covered_class_w;
  double theory = 0.0;
  for (size_t r = 0; r < n; ++r) {
    theory += RuleTheoryBits(rules[r]->size(), possible_conditions);
  }

  auto total_dl = [&](double th, double cov, double fp, double fn) {
    return th + ExceptionBits(0.5, cov, total_w - cov, fp, fn);
  };
  double current_dl = total_dl(theory, cover_w, fp_w, fn_w);

  for (;;) {
    double best_dl = current_dl;
    size_t best_rule = n;
    double best_cov = 0.0, best_fp = 0.0, best_fn = 0.0, best_theory = 0.0;
    for (size_t r = 0; r < n; ++r) {
      if (!included[r]) continue;
      // Rows covered only by rule r become uncovered if r is removed.
      double cov = cover_w;
      double fp = fp_w;
      double fn = fn_w;
      if (counter.unit_weights) {
        const double lost = static_cast<double>(coverage[r].CountAndNot(multi));
        const double lost_fp =
            static_cast<double>(coverage[r].CountAndNot(multi_or_class));
        cov -= lost;
        fp -= lost_fp;
        fn += lost - lost_fp;
      } else {
        coverage[r].ForEachSet([&](size_t i) {
          if (cover_count[i] != 1) return;
          const double w = dataset.weight(rows[i]);
          cov -= w;
          if (class_mask.Get(i)) {
            fn += w;
          } else {
            fp -= w;
          }
        });
      }
      const double th =
          theory - RuleTheoryBits(rules[r]->size(), possible_conditions);
      const double dl = total_dl(th, cov, fp, fn);
      if (dl < best_dl) {
        best_dl = dl;
        best_rule = r;
        best_cov = cov;
        best_fp = fp;
        best_fn = fn;
        best_theory = th;
      }
    }
    if (best_rule == n) break;
    included[best_rule] = false;
    coverage[best_rule].ForEachSet([&](size_t i) {
      if (--cover_count[i] == 1) multi.Set(i, false);
    });
    multi_or_class = multi | class_mask;
    cover_w = best_cov;
    fp_w = best_fp;
    fn_w = best_fn;
    theory = best_theory;
    current_dl = best_dl;
  }

  SubsetResult result;
  for (size_t r = 0; r < n; ++r) {
    if (included[r]) result.kept.push_back(r);
  }
  result.false_positive_weight = fp_w;
  return result;
}

}  // namespace

C45RulesLearner::C45RulesLearner(C45RulesConfig config)
    : config_(std::move(config)) {}

StatusOr<C45RulesClassifier> C45RulesLearner::Train(const Dataset& dataset,
                                                    CategoryId target) const {
  return TrainOnRows(dataset, dataset.AllRows(), target);
}

StatusOr<C45RulesClassifier> C45RulesLearner::TrainOnRows(
    const Dataset& dataset, const RowSubset& rows, CategoryId target) const {
  Status status = config_.Validate();
  if (!status.ok()) return status;

  // The MDL theory cost's condition count is a whole-dataset statistic (one
  // pass per numeric column); taking it first keeps the rule steps below
  // on their own columns.
  const double possible_conditions = CountPossibleConditions(dataset);

  // Step 1: overfitted tree.
  C45Config tree_config = config_.tree;
  tree_config.prune = false;
  auto tree = BuildC45Tree(dataset, rows, tree_config);
  if (!tree.ok()) return tree.status();

  // Step 2: one rule per leaf. Generalization only deletes conditions, so
  // every later step works on the coverage masks of these rules' distinct
  // conditions, each built once by one column sweep.
  std::vector<ClassRule> initial = ExtractTreeRules(
      *tree, dataset.schema(), config_.max_initial_rules);
  RuleSet leaf_rules;
  for (const ClassRule& entry : initial) leaf_rules.AddRule(entry.rule);
  const CompiledRuleSet program = CompiledRuleSet::Compile(leaf_rules);
  const std::vector<BitMask> condition_masks =
      program.ConditionMasks(dataset, rows.data(), rows.size());
  auto mask_of = [&](const Condition& condition) -> const BitMask& {
    return condition_masks[static_cast<size_t>(
        program.ConditionIndex(condition))];
  };
  auto coverage_of = [&](const Rule& rule) {
    BitMask mask(rows.size(), true);
    for (const Condition& condition : rule.conditions()) {
      mask &= mask_of(condition);
    }
    return mask;
  };

  const WeightCounter counter(dataset, rows);

  const size_t num_classes = dataset.schema().num_classes();
  std::vector<BitMask> class_masks(num_classes, BitMask(rows.size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    class_masks[static_cast<size_t>(dataset.label(rows[i]))].Set(i);
  }

  // Step 3: generalize each rule against the full training rows.
  PessimisticRates rates(config_.cf);
  for (ClassRule& entry : initial) {
    std::vector<const BitMask*> masks;
    masks.reserve(entry.rule.size());
    for (const Condition& condition : entry.rule.conditions()) {
      masks.push_back(&mask_of(condition));
    }
    GeneralizeRule(std::move(masks), counter,
                   class_masks[static_cast<size_t>(entry.cls)], &rates,
                   &entry.rule);
  }

  // Step 4: drop empties and duplicates.
  std::vector<ClassRule> unique;
  for (ClassRule& entry : initial) {
    if (entry.rule.empty()) continue;
    bool duplicate = false;
    for (const ClassRule& seen : unique) {
      if (seen.cls == entry.cls && seen.rule == entry.rule) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) unique.push_back(std::move(entry));
  }

  // Step 5: per-class MDL subset selection. Each kept rule's statistics
  // (for step 6's ranking) and the union of kept coverage (for step 7's
  // default class) come from the same masks.
  struct ClassGroup {
    CategoryId cls;
    std::vector<ClassRule> rules;
    double false_positive_weight = 0.0;
  };
  std::vector<ClassGroup> groups;
  BitMask uncovered(rows.size(), true);
  for (size_t cls = 0; cls < num_classes; ++cls) {
    std::vector<const Rule*> class_rules;
    std::vector<size_t> source;
    std::vector<BitMask> coverage;
    for (size_t i = 0; i < unique.size(); ++i) {
      if (unique[i].cls == static_cast<CategoryId>(cls)) {
        class_rules.push_back(&unique[i].rule);
        source.push_back(i);
        coverage.push_back(coverage_of(unique[i].rule));
      }
    }
    if (class_rules.empty()) continue;
    SubsetResult subset = SelectRuleSubset(
        counter, class_masks[cls], class_rules, coverage, possible_conditions);
    ClassGroup group;
    group.cls = static_cast<CategoryId>(cls);
    group.false_positive_weight = subset.false_positive_weight;
    for (size_t kept : subset.kept) {
      ClassRule entry = unique[source[kept]];
      entry.rule.train_stats.covered = counter.Weight(coverage[kept]);
      entry.rule.train_stats.positive =
          counter.WeightAnd(coverage[kept], class_masks[cls]);
      uncovered.AndNot(coverage[kept]);
      group.rules.push_back(std::move(entry));
    }
    if (!group.rules.empty()) groups.push_back(std::move(group));
  }

  // Step 6: rank class groups by ascending false positives; within a group,
  // rules by ascending pessimistic error.
  std::stable_sort(groups.begin(), groups.end(),
                   [](const ClassGroup& a, const ClassGroup& b) {
                     return a.false_positive_weight <
                            b.false_positive_weight;
                   });
  std::vector<ClassRule> ordered;
  for (ClassGroup& group : groups) {
    std::stable_sort(
        group.rules.begin(), group.rules.end(),
        [&](const ClassRule& a, const ClassRule& b) {
          const RuleStats& sa = a.rule.train_stats;
          const RuleStats& sb = b.rule.train_stats;
          return rates(sa.covered, sa.negative()) <
                 rates(sb.covered, sb.negative());
        });
    for (ClassRule& entry : group.rules) {
      ordered.push_back(std::move(entry));
    }
  }

  // Step 7: default class = majority among records no rule covers (weights
  // summed in row order).
  std::vector<double> uncovered_weight(num_classes, 0.0);
  double uncovered_target = 0.0;
  double uncovered_total = 0.0;
  uncovered.ForEachSet([&](size_t i) {
    const RowId row = rows[i];
    const double w = dataset.weight(row);
    uncovered_weight[static_cast<size_t>(dataset.label(row))] += w;
    uncovered_total += w;
    if (dataset.label(row) == target) uncovered_target += w;
  });
  CategoryId default_class = target == 0 ? 1 : 0;  // fallback: not-target
  double best_weight = -1.0;
  for (size_t cls = 0; cls < num_classes; ++cls) {
    if (uncovered_weight[cls] > best_weight) {
      best_weight = uncovered_weight[cls];
      default_class = static_cast<CategoryId>(cls);
    }
  }
  const double default_target_score =
      (uncovered_target + 1.0) / (uncovered_total + 2.0);

  return C45RulesClassifier(std::move(ordered), default_class, target,
                            default_target_score);
}

}  // namespace pnr
