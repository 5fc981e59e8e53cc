// Text serialization of trained PNrule models.
//
// Models are written in a line-oriented, human-diffable format that
// references attributes and classes *by name*, so a model can be loaded
// against any dataset whose schema contains the same attributes (a
// production deployment rarely classifies against the exact Dataset object
// it was trained on). Names are escaped so each is one field, and the
// grammar and errors are those of common/line_format.h.
//
// Format (v1):
//   pnrule-model v1
//   threshold <t>
//   use_score_matrix <0|1>
//   p-rules <n>
//   rule <k> <covered> <positive>
//   cond cat <attr> <value>            | cond le <attr> <hi>
//   cond gt <attr> <lo>                | cond range <attr> <lo> <hi>
//   ...
//   n-rules <n>
//   ...
//   scores <num_p> <num_n>
//   <num_p lines of num_n+1 "score:weight" cells>
//   end

// Multi-class committees use a wrapper format (v1) that embeds one binary
// model block per trained class. Each block is prefixed with its exact line
// count, so the parser never has to guess where an embedded model's "end"
// stops and the wrapper resumes:
//   pnrule-multiclass v1
//   classes <n>
//   default <class name>
//   class <i> <weight> absent              | class <i> <weight> model <k>
//   <k verbatim lines of a pnrule-model v1 block>
//   ...
//   end

#ifndef PNR_PNRULE_MODEL_IO_H_
#define PNR_PNRULE_MODEL_IO_H_

#include <string>

#include "pnrule/multiclass.h"
#include "pnrule/pnrule.h"

namespace pnr {

/// Renders `model` in the v1 text format. `schema` must be the schema the
/// model was trained on (attribute/category ids are resolved to names).
std::string SerializePnruleModel(const PnruleClassifier& model,
                                 const Schema& schema);

/// Parses a v1 model against `schema`, re-resolving attribute and category
/// names to the schema's ids. Fails with InvalidArgument on malformed
/// input and NotFound when the schema lacks a referenced attribute/value.
StatusOr<PnruleClassifier> ParsePnruleModel(const std::string& text,
                                            const Schema& schema);

/// Convenience wrappers writing to / reading from a file.
Status SavePnruleModel(const PnruleClassifier& model, const Schema& schema,
                       const std::string& path);
StatusOr<PnruleClassifier> LoadPnruleModel(const std::string& path,
                                           const Schema& schema);

/// Renders a one-vs-rest committee in the multiclass v1 wrapper format.
/// The serialization is a pure function of the committee, so bitwise
/// comparison of two serializations is the byte-identity check the
/// determinism tests and benches rely on.
std::string SerializeMultiClassModel(const MultiClassPnruleClassifier& model,
                                     const Schema& schema);

/// Parses a multiclass v1 committee against `schema`. The file's class
/// count must match the schema's, and the default class and every embedded
/// model must resolve against it.
StatusOr<MultiClassPnruleClassifier> ParseMultiClassModel(
    const std::string& text, const Schema& schema);

/// Convenience wrappers writing to / reading from a file.
Status SaveMultiClassModel(const MultiClassPnruleClassifier& model,
                           const Schema& schema, const std::string& path);
StatusOr<MultiClassPnruleClassifier> LoadMultiClassModel(
    const std::string& path, const Schema& schema);

}  // namespace pnr

#endif  // PNR_PNRULE_MODEL_IO_H_
