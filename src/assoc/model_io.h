// Serialization of associative-classifier models.
//
// Versioned line-oriented text, sibling of the PNrule format
// (pnrule/model_io.h) and read through the same codec (common/line_format.h):
// located errors naming the 1-based line, truncation distinguished from
// malformation, version skew named explicitly, trailing garbage rejected,
// escaped names, and parse(serialize(m)) a fixpoint (fuzzed by the `mine`
// target).
//
//   pnr-assoc-model v1
//   target <class name>
//   default <class name> <default score>
//   threshold <t>
//   rules <count>
//   rule <num conds> <class name> <support> <class_support> <confidence>
//        <lift> <target_score>          [one line]
//   cond ...                            [rules/condition.h]
//   end
//
// Doubles are written with precision 17, so round-tripping is exact.

#ifndef PNR_ASSOC_MODEL_IO_H_
#define PNR_ASSOC_MODEL_IO_H_

#include <memory>
#include <string>

#include "assoc/classifier.h"
#include "common/status.h"
#include "data/schema.h"

namespace pnr {

/// Serializes `model` against `schema` (attribute/category/class names are
/// resolved by name on load).
std::string SerializeAssocModel(const AssocClassifier& model,
                                const Schema& schema);

/// Parses a serialized model; every failure names the offending line.
StatusOr<AssocClassifier> ParseAssocModel(const std::string& text,
                                          const Schema& schema);

/// Serialize + write via file_io (fault-injection friendly).
Status SaveAssocModel(const AssocClassifier& model, const Schema& schema,
                      const std::string& path);

/// Read + parse.
StatusOr<AssocClassifier> LoadAssocModel(const std::string& path,
                                         const Schema& schema);

/// A model of either family, as ParseAnyModel returns it.
struct AnyModel {
  std::unique_ptr<BinaryClassifier> classifier;
  std::string kind;            ///< "pnrule" or "assoc"
  size_t primary_rules = 0;    ///< P-rules, or the assoc model's rules
  size_t secondary_rules = 0;  ///< N-rules; 0 for assoc
};

/// Parses a PNrule or an assoc model, choosing the parser from the header
/// line, so one --model flag (eval, predict, serve) takes both families.
/// Anything without the assoc header goes to the PNrule parser and fails
/// there with its located error.
StatusOr<AnyModel> ParseAnyModel(const std::string& text,
                                 const Schema& schema);

}  // namespace pnr

#endif  // PNR_ASSOC_MODEL_IO_H_
