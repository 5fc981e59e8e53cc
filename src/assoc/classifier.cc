#include "assoc/classifier.h"

#include <cassert>
#include <sstream>

namespace pnr {

AssocClassifier::AssocClassifier(RuleSet rules, std::vector<RuleInfo> info,
                                 CategoryId target, CategoryId default_class,
                                 double default_score)
    : rules_(std::move(rules)),
      compiled_(CompiledRuleSet::Compile(rules_)),
      info_(std::move(info)),
      target_(target),
      default_class_(default_class),
      default_score_(default_score) {
  assert(info_.size() == rules_.size());
}

double AssocClassifier::Score(const Dataset& dataset, RowId row) const {
  const int match = rules_.FirstMatch(dataset, row);
  if (match == kNoRule) return default_score_;
  return info_[static_cast<size_t>(match)].target_score;
}

void AssocClassifier::ScoreBatch(const Dataset& dataset, const RowId* rows,
                                 size_t count, double* out,
                                 const BatchScoreOptions& options) const {
  ForEachRowBlock(count, ClampOptionsForDataset(dataset, options),
                  [&](size_t begin, size_t end) {
                    const size_t n = end - begin;
                    // thread_local so consecutive blocks on a worker reuse
                    // the scratch masks; scratch contents never affect
                    // results, so reuse cannot perturb scores.
                    thread_local CompiledRuleSet::Scratch scratch;
                    thread_local std::vector<int32_t> first;
                    first.resize(n);
                    compiled_.BeginBlock(dataset, rows + begin, n,
                                         &scratch);
                    compiled_.FirstMatchBlock(0, first.data(), &scratch);
                    for (size_t i = 0; i < n; ++i) {
                      out[begin + i] =
                          first[i] == kNoRule
                              ? default_score_
                              : info_[static_cast<size_t>(first[i])]
                                    .target_score;
                    }
                  });
}

CategoryId AssocClassifier::PredictLabel(const Dataset& dataset,
                                         RowId row) const {
  const int match = rules_.FirstMatch(dataset, row);
  if (match == kNoRule) return default_class_;
  return info_[static_cast<size_t>(match)].cls;
}

std::string AssocClassifier::Describe(const Schema& schema) const {
  std::ostringstream out;
  out.precision(6);
  out << "Associative classifier (CBA): " << rules_.size()
      << " rules, target=" << schema.class_attr().CategoryName(target_)
      << ", default=" << schema.class_attr().CategoryName(default_class_)
      << " (score " << default_score_ << ")\n";
  for (size_t r = 0; r < rules_.size(); ++r) {
    const RuleInfo& info = info_[r];
    out << "  [" << r << "] " << rules_.rule(r).ToString(schema) << " => "
        << schema.class_attr().CategoryName(info.cls)
        << "  (sup=" << info.class_support << '/' << info.support
        << ", conf=" << info.confidence << ", lift=" << info.lift
        << ", target_score=" << info.target_score << ")\n";
  }
  return out.str();
}

}  // namespace pnr
