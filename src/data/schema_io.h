// Text serialization of Schemas ("schema sidecars").
//
// Model files (pnrule/model_io.h) reference attributes and categories by
// name, so loading one requires a Schema — which, offline, comes from the
// dataset being scored. A serving process has no dataset at startup: it
// needs the training schema as a standalone artifact. `pnr train` writes
// one next to every saved model (`<model>.schema`), and the serving
// registry loads the pair.
//
// Format (v1), in the shared line grammar of common/line_format.h (names
// escaped, so each is one field):
//   pnrule-schema v1
//   attributes <n>
//   numeric <name>               | categorical <k> <name>
//                                |   value <v>     (k lines, in id order)
//   class <k> <name>
//   label <v>                    (k lines, in id order)
//   end
//
// Category and label ids are assigned in file order, so a parsed schema
// dictionary-encodes values identically to the one it was written from.

#ifndef PNR_DATA_SCHEMA_IO_H_
#define PNR_DATA_SCHEMA_IO_H_

#include <string>

#include "common/status.h"
#include "data/schema.h"

namespace pnr {

/// Renders `schema` in the v1 sidecar format.
std::string SerializeSchema(const Schema& schema);

/// Parses a v1 schema sidecar. Tolerates CRLF endings and trailing
/// whitespace; rejects unknown format versions with an InvalidArgument
/// naming the version.
StatusOr<Schema> ParseSchema(const std::string& text);

/// Convenience wrappers writing to / reading from a file.
Status SaveSchema(const Schema& schema, const std::string& path);
StatusOr<Schema> LoadSchema(const std::string& path);

}  // namespace pnr

#endif  // PNR_DATA_SCHEMA_IO_H_
