#include "fuzz_targets.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "assoc/cba.h"
#include "assoc/model_io.h"
#include "common/line_format.h"
#include "data/arff.h"
#include "data/csv.h"
#include "data/ingest.h"
#include "data/schema_io.h"
#include "data/shard_store.h"
#include "pnrule/model_io.h"
#include "serve/binary.h"
#include "serve/http.h"
#include "serve/json.h"
#include "stream/engine.h"
#include "tune/config_space.h"

namespace pnr {
namespace fuzz {
namespace {

// Aborting check: both libFuzzer and the replay runner treat abort() as a
// finding, and the message names the violated invariant.
#define FUZZ_CHECK(cond, msg)                                              \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "fuzz invariant violated at %s:%d: %s\n",       \
                   __FILE__, __LINE__, msg);                               \
      std::abort();                                                        \
    }                                                                      \
  } while (0)

// Inputs past this size only slow exploration down without reaching new
// grammar states; both modes skip them (libFuzzer additionally uses
// -max_len, but replay must bound itself).
constexpr size_t kMaxInput = 1 << 18;

std::string_view AsText(const uint8_t* data, size_t size) {
  return std::string_view(reinterpret_cast<const char*>(data), size);
}

// Bitwise dataset equality — the fuzz-side mirror of the ingest test's
// ExpectBitwiseEqual, collapsed to a bool.
bool DatasetsBitwiseEqual(const Dataset& a, const Dataset& b) {
  const Schema& sa = a.schema();
  const Schema& sb = b.schema();
  if (sa.num_attributes() != sb.num_attributes()) return false;
  for (size_t i = 0; i < sa.num_attributes(); ++i) {
    const Attribute& attr_a = sa.attribute(static_cast<AttrIndex>(i));
    const Attribute& attr_b = sb.attribute(static_cast<AttrIndex>(i));
    if (attr_a.name() != attr_b.name()) return false;
    if (attr_a.type() != attr_b.type()) return false;
    if (attr_a.num_categories() != attr_b.num_categories()) return false;
    for (size_t c = 0; c < attr_a.num_categories(); ++c) {
      if (attr_a.CategoryName(static_cast<CategoryId>(c)) !=
          attr_b.CategoryName(static_cast<CategoryId>(c))) {
        return false;
      }
    }
  }
  if (sa.num_classes() != sb.num_classes()) return false;
  for (size_t c = 0; c < sa.num_classes(); ++c) {
    if (sa.class_attr().CategoryName(static_cast<CategoryId>(c)) !=
        sb.class_attr().CategoryName(static_cast<CategoryId>(c))) {
      return false;
    }
  }
  if (a.num_rows() != b.num_rows()) return false;
  for (RowId r = 0; r < a.num_rows(); ++r) {
    for (size_t i = 0; i < sa.num_attributes(); ++i) {
      const AttrIndex attr = static_cast<AttrIndex>(i);
      if (sa.attribute(attr).is_numeric()) {
        if (std::bit_cast<uint64_t>(a.numeric(r, attr)) !=
            std::bit_cast<uint64_t>(b.numeric(r, attr))) {
          return false;
        }
      } else if (a.categorical(r, attr) != b.categorical(r, attr)) {
        return false;
      }
    }
    if (a.label(r) != b.label(r)) return false;
  }
  return a.weights() == b.weights();
}

// The fixed schema the model and mine targets parse against: models
// reference attributes by name, so a hostile model file exercises
// unknown-attribute, unknown-category and wrong-type paths against these.
// One attribute, one category and one class hold a space and a '%', so
// the serialize/reparse fixpoints run through the name escape.
Schema ModelHarnessSchema() {
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("a"));
  schema.AddAttribute(Attribute::Numeric("b"));
  schema.AddAttribute(
      Attribute::Categorical("color", {"red", "green", "blue", "sky %blue"}));
  schema.AddAttribute(Attribute::Numeric("rate %max"));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  schema.GetOrAddClass("pos %2");
  return schema;
}

// A rejected parse must say *where*: a line, a truncation point, or the
// skewed version (common/line_format.h).
bool ErrorIsLocated(const Status& status) {
  return IsLocatedParseError(status.message());
}

// Renders a parsed JSON tree back to text, reusing each number's original
// token so render→reparse→render is a byte fixpoint.
void RenderJson(const JsonValue& value, std::string* out) {
  switch (value.type) {
    case JsonValue::Type::kNull:
      *out += "null";
      break;
    case JsonValue::Type::kBool:
      *out += value.bool_value ? "true" : "false";
      break;
    case JsonValue::Type::kNumber:
      *out += value.text;
      break;
    case JsonValue::Type::kString:
      AppendJsonString(out, value.text);
      break;
    case JsonValue::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : value.array) {
        if (!first) out->push_back(',');
        first = false;
        RenderJson(item, out);
      }
      out->push_back(']');
      break;
    }
    case JsonValue::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, item] : value.object) {
        if (!first) out->push_back(',');
        first = false;
        AppendJsonString(out, key);
        out->push_back(':');
        RenderJson(item, out);
      }
      out->push_back('}');
      break;
    }
  }
}

bool JsonTreesEqual(const JsonValue& a, const JsonValue& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.bool_value == b.bool_value;
    case JsonValue::Type::kNumber:
      return std::bit_cast<uint64_t>(a.number_value) ==
                 std::bit_cast<uint64_t>(b.number_value) &&
             a.text == b.text;
    case JsonValue::Type::kString:
      return a.text == b.text;
    case JsonValue::Type::kArray: {
      if (a.array.size() != b.array.size()) return false;
      for (size_t i = 0; i < a.array.size(); ++i) {
        if (!JsonTreesEqual(a.array[i], b.array[i])) return false;
      }
      return true;
    }
    case JsonValue::Type::kObject: {
      if (a.object.size() != b.object.size()) return false;
      for (size_t i = 0; i < a.object.size(); ++i) {
        if (a.object[i].first != b.object[i].first) return false;
        if (!JsonTreesEqual(a.object[i].second, b.object[i].second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

}  // namespace

void FuzzCsv(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return;
  const std::string text(AsText(data, size));
  CsvReadOptions options;
  auto serial = IngestCsvSerial(text, options);
  // Aggressively small chunks push records across chunk seams — the place
  // where the parallel scanner's quote/newline handling can diverge.
  IngestOptions ingest;
  ingest.num_threads = 3;
  ingest.chunk_bytes = 7;
  auto parallel = IngestCsvParallel(text, options, ingest);
  FUZZ_CHECK(serial.ok() == parallel.ok(),
             "serial and parallel CSV parses disagree on acceptance");
  if (serial.ok()) {
    FUZZ_CHECK(DatasetsBitwiseEqual(*serial, *parallel),
               "serial and parallel CSV datasets differ");
  } else {
    FUZZ_CHECK(!serial.status().ToString().empty(),
               "CSV rejection with empty error");
    FUZZ_CHECK(serial.status().ToString() == parallel.status().ToString(),
               "serial and parallel CSV error text differ");
  }
}

void FuzzArff(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return;
  const std::string text(AsText(data, size));
  auto serial = ReadArffFromString(text);
  IngestOptions ingest;
  ingest.num_threads = 3;
  ingest.chunk_bytes = 7;
  auto parallel = IngestEngine(ingest).ParseArff(text, ArffReadOptions{});
  FUZZ_CHECK(serial.ok() == parallel.ok(),
             "serial and parallel ARFF parses disagree on acceptance");
  if (serial.ok()) {
    FUZZ_CHECK(DatasetsBitwiseEqual(*serial, *parallel),
               "serial and parallel ARFF datasets differ");
  } else {
    FUZZ_CHECK(!serial.status().ToString().empty(),
               "ARFF rejection with empty error");
    FUZZ_CHECK(serial.status().ToString() == parallel.status().ToString(),
               "serial and parallel ARFF error text differ");
  }
}

void FuzzModel(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return;
  const Schema schema = ModelHarnessSchema();
  const std::string text(AsText(data, size));
  auto model = ParsePnruleModel(text, schema);
  if (!model.ok()) {
    FUZZ_CHECK(ErrorIsLocated(model.status()),
               "model rejection without a location");
    return;
  }
  // Accepted input must reach a serialization fixpoint: what the writer
  // emits for the parsed model reparses to a byte-identical second write.
  const std::string first = SerializePnruleModel(*model, schema);
  auto reparsed = ParsePnruleModel(first, schema);
  FUZZ_CHECK(reparsed.ok(), "serialized model does not reparse");
  FUZZ_CHECK(SerializePnruleModel(*reparsed, schema) == first,
             "model serialize/reparse is not a fixpoint");
}

void FuzzSchema(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return;
  const std::string text(AsText(data, size));
  auto schema = ParseSchema(text);
  if (!schema.ok()) {
    FUZZ_CHECK(ErrorIsLocated(schema.status()),
               "schema rejection without a location");
    return;
  }
  const std::string first = SerializeSchema(*schema);
  auto reparsed = ParseSchema(first);
  FUZZ_CHECK(reparsed.ok(), "serialized schema does not reparse");
  FUZZ_CHECK(SerializeSchema(*reparsed) == first,
             "schema serialize/reparse is not a fixpoint");
}

namespace {

bool RequestsEqual(const HttpRequest& a, const HttpRequest& b) {
  return a.method == b.method && a.target == b.target &&
         a.version == b.version && a.headers == b.headers && a.body == b.body;
}

// Feeds `text` to a parser in `step`-byte slices, draining every completed
// request with Take the way the server's connection loop does. Returns the
// completed requests; the parser is left in its final state.
std::vector<HttpRequest> RunHttpParser(HttpRequestParser* parser,
                                       std::string_view text, size_t step) {
  std::vector<HttpRequest> requests;
  for (size_t offset = 0;
       offset < text.size() &&
       parser->state() != HttpRequestParser::State::kError;
       offset += step) {
    parser->Consume(text.substr(offset, step));
    while (parser->state() == HttpRequestParser::State::kDone) {
      requests.push_back(parser->Take());
    }
  }
  return requests;
}

}  // namespace

void FuzzHttp(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return;
  const std::string_view text = AsText(data, size);
  // Small limits make head/body overflow reachable with fuzz-sized inputs.
  HttpRequestParser::Limits limits;
  limits.max_head_bytes = 1024;
  limits.max_body_bytes = 4096;

  // The server feeds the parser from arbitrarily fragmented socket reads;
  // one whole-buffer write and the byte-at-a-time worst case must complete
  // the same requests and land in the same final state.
  HttpRequestParser batch(limits);
  const std::vector<HttpRequest> batch_requests =
      RunHttpParser(&batch, text, text.size());
  HttpRequestParser incremental(limits);
  const std::vector<HttpRequest> incremental_requests =
      RunHttpParser(&incremental, text, 1);

  FUZZ_CHECK(batch.state() == incremental.state(),
             "batch and incremental HTTP parses reach different states");
  FUZZ_CHECK(batch_requests.size() == incremental_requests.size(),
             "batch and incremental HTTP request counts differ");
  for (size_t i = 0; i < batch_requests.size(); ++i) {
    FUZZ_CHECK(RequestsEqual(batch_requests[i], incremental_requests[i]),
               "batch and incremental HTTP requests differ");
    // A parsed request must never smuggle two body framings.
    size_t content_lengths = 0;
    bool transfer_encoding = false;
    for (const auto& [key, value] : batch_requests[i].headers) {
      std::string lower;
      for (const char c : key) {
        lower.push_back(
            static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c));
      }
      if (lower == "content-length") ++content_lengths;
      if (lower == "transfer-encoding") transfer_encoding = true;
    }
    FUZZ_CHECK(content_lengths <= 1,
               "accepted request carries duplicate Content-Length");
    FUZZ_CHECK(!(content_lengths == 1 && transfer_encoding),
               "accepted request mixes Content-Length and Transfer-Encoding");
  }
  if (batch.state() == HttpRequestParser::State::kError) {
    FUZZ_CHECK(batch.error_status() == incremental.error_status(),
               "batch and incremental HTTP error codes differ");
    FUZZ_CHECK(batch.error_message() == incremental.error_message(),
               "batch and incremental HTTP error messages differ");
    FUZZ_CHECK(
        batch.error_status() == 400 || batch.error_status() == 413,
        "HTTP parser error status outside the documented {400, 413}");
    FUZZ_CHECK(!batch.error_message().empty(), "HTTP error without message");
  }
}

namespace {

// Drives a BinaryRequestParser over `text` in `step`-sized chunks, Taking
// completed frames; the parser is left in its final state.
std::vector<BinaryRequest> RunBinaryParser(BinaryRequestParser* parser,
                                           std::string_view text,
                                           size_t step) {
  std::vector<BinaryRequest> requests;
  for (size_t offset = 0;
       offset < text.size() &&
       parser->state() != BinaryRequestParser::State::kError;
       offset += step) {
    parser->Consume(text.substr(offset, step));
    while (parser->state() == BinaryRequestParser::State::kDone) {
      requests.push_back(parser->Take());
    }
  }
  return requests;
}

// A fixed mixed-type schema so accepted frames exercise both the raw-f64
// and the length-prefixed-string column decoders.
const Schema& FuzzBinarySchema() {
  static const Schema* schema = [] {
    auto* s = new Schema;
    s->AddAttribute(Attribute::Numeric("x"));
    s->AddAttribute(Attribute::Categorical("color", {"red", "green"}));
    s->GetOrAddClass("neg");
    s->GetOrAddClass("pos");
    return s;
  }();
  return *schema;
}

}  // namespace

void FuzzServeBinary(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return;
  const std::string_view text = AsText(data, size);
  // Small limits make the oversize-length rejections reachable with
  // fuzz-sized inputs.
  BinaryRequestParser::Limits limits;
  limits.max_name_bytes = 64;
  limits.max_payload_bytes = 4096;

  // The shard feeds the parser from arbitrarily fragmented socket reads;
  // one whole-buffer write and the byte-at-a-time worst case must complete
  // the same frames and land in the same final state.
  BinaryRequestParser batch(limits);
  const std::vector<BinaryRequest> batch_requests =
      RunBinaryParser(&batch, text, text.size());
  BinaryRequestParser incremental(limits);
  const std::vector<BinaryRequest> incremental_requests =
      RunBinaryParser(&incremental, text, 1);

  FUZZ_CHECK(batch.state() == incremental.state(),
             "batch and incremental binary parses reach different states");
  FUZZ_CHECK(batch_requests.size() == incremental_requests.size(),
             "batch and incremental binary frame counts differ");
  for (size_t i = 0; i < batch_requests.size(); ++i) {
    FUZZ_CHECK(batch_requests[i].model == incremental_requests[i].model,
               "batch and incremental frame model names differ");
    FUZZ_CHECK(batch_requests[i].payload == incremental_requests[i].payload,
               "batch and incremental frame payloads differ");
    // Every accepted frame's payload goes through the row decoder: hostile
    // row counts and truncated columns must reject with a located error,
    // never crash, over-read, or silently succeed.
    RowBlock rows;
    const Status decoded =
        DecodeBinaryRows(batch_requests[i].payload, FuzzBinarySchema(), &rows);
    if (decoded.ok()) {
      // InitFor sizes both column tables to num_attributes; only the slot
      // matching each attribute's type is populated.
      FUZZ_CHECK(rows.numeric.size() == 2 && rows.categorical.size() == 2,
                 "decoded RowBlock shape disagrees with the schema");
      FUZZ_CHECK(rows.numeric[0].size() == rows.num_rows &&
                     rows.categorical[1].size() == rows.num_rows,
                 "decoded column length disagrees with num_rows");
    } else {
      FUZZ_CHECK(!decoded.ToString().empty(),
                 "binary payload rejection without a message");
    }
  }
  if (batch.state() == BinaryRequestParser::State::kError) {
    FUZZ_CHECK(batch.error_code() == incremental.error_code(),
               "batch and incremental binary error codes differ");
    FUZZ_CHECK(batch.error_message() == incremental.error_message(),
               "batch and incremental binary error messages differ");
    FUZZ_CHECK(!batch.error_message().empty(),
               "binary framing error without message");
    // A framing error renders a response frame the client parser accepts.
    BinaryResponse echoed;
    size_t echoed_consumed = 0;
    const std::string rendered =
        RenderBinaryError(batch.error_code(), batch.error_message());
    const Status reparse =
        ParseBinaryResponse(rendered, &echoed, &echoed_consumed);
    FUZZ_CHECK(reparse.ok() && echoed_consumed == rendered.size(),
               "rendered binary error frame does not reparse");
    FUZZ_CHECK(echoed.status == batch.error_code(),
               "rendered binary error frame changed the status code");
  }

  // The client-side response parser sees whatever a (possibly hostile)
  // server sends; arbitrary bytes must never crash it, and an accepted ok
  // frame is internally consistent.
  BinaryResponse response;
  size_t consumed = 0;
  const Status parsed = ParseBinaryResponse(text, &response, &consumed);
  if (parsed.ok() && consumed > 0 && response.status == BinaryStatus::kOk) {
    FUZZ_CHECK(response.scores.size() == response.predicted.size(),
               "ok response frame with mismatched score/predicted counts");
  }
}

void FuzzJson(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return;
  const std::string text(AsText(data, size));
  auto value = ParseJson(text);
  if (!value.ok()) {
    const std::string error = value.status().ToString();
    FUZZ_CHECK(error.find("offset") != std::string::npos,
               "JSON rejection without an offset location");
    return;
  }
  std::string first;
  RenderJson(*value, &first);
  auto reparsed = ParseJson(first);
  FUZZ_CHECK(reparsed.ok(), "rendered JSON does not reparse");
  FUZZ_CHECK(JsonTreesEqual(*value, *reparsed),
             "JSON parse/render/reparse changed the tree");
}

void FuzzTune(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return;
  const std::string text(AsText(data, size));
  auto space = ConfigSpace::Parse(text);
  if (!space.ok()) {
    // Every rejection locates itself in the tune config.
    const std::string error = space.status().ToString();
    FUZZ_CHECK(ErrorIsLocated(space.status()) &&
                   error.find("tune config") != std::string::npos,
               "tune config rejection without a located message");
    // Parsing is deterministic: the same bytes reject identically.
    auto again = ConfigSpace::Parse(text);
    FUZZ_CHECK(!again.ok() && again.status().ToString() == error,
               "tune config rejection is not deterministic");
    return;
  }
  // An accepted grid respects the enumeration cap and its advertised size.
  FUZZ_CHECK(space->size() <= ConfigSpace::kMaxConfigs,
             "accepted tune grid exceeds kMaxConfigs");
  const std::vector<TrialConfig> configs = space->Enumerate(PnruleConfig{});
  FUZZ_CHECK(configs.size() == space->size(),
             "enumerated grid size disagrees with size()");
  for (const TrialConfig& trial : configs) {
    FUZZ_CHECK(!trial.Describe().empty(), "config with empty description");
  }
}

void FuzzShard(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return;
  std::string bytes(AsText(data, size));
  auto reader = ShardStoreReader::OpenBuffer(bytes, "fuzz.pns");
  // Open is deterministic: the same bytes reject with the same message.
  auto again = ShardStoreReader::OpenBuffer(std::move(bytes), "fuzz.pns");
  FUZZ_CHECK(reader.ok() == again.ok(),
             "shard store Open verdict is not deterministic");
  if (!reader.ok()) {
    const std::string error = reader.status().ToString();
    FUZZ_CHECK(error.find("shard_store") != std::string::npos,
               "shard store rejection without a located message");
    FUZZ_CHECK(error == again.status().ToString(),
               "shard store rejection text is not deterministic");
    return;
  }
  // Open only validates the directory; payload corruption (checksums,
  // zonemaps, bit-packed codes) must surface as a located error here.
  auto loaded = (*reader)->LoadDataset();
  if (!loaded.ok()) {
    FUZZ_CHECK(
        loaded.status().ToString().find("shard_store") != std::string::npos,
        "shard store decode rejection without a located message");
    return;
  }
  // Accepted input must reach a serialization fixpoint at the same shard
  // count: serialize(load(x)) reopens, reloads bitwise-equal, and
  // reserializes byte-identical.
  ShardStoreWriteOptions options;
  options.num_shards = (*reader)->num_shards();
  auto first = SerializeShardStore(*loaded, options);
  FUZZ_CHECK(first.ok(), "loaded shard store does not reserialize");
  auto reopened = ShardStoreReader::OpenBuffer(*first, "fixpoint.pns");
  FUZZ_CHECK(reopened.ok(), "reserialized shard store does not reopen");
  auto reloaded = (*reopened)->LoadDataset();
  FUZZ_CHECK(reloaded.ok(), "reserialized shard store does not reload");
  FUZZ_CHECK(DatasetsBitwiseEqual(*loaded, *reloaded),
             "shard store reload changed the dataset");
  auto second = SerializeShardStore(*reloaded, options);
  FUZZ_CHECK(second.ok() && *second == *first,
             "shard store serialize/load is not a fixpoint");
  // The demand-paged view must decode the same cells as the in-RAM load.
  auto paged = MakePagedDataset(*reopened, (*reopened)->column_bytes());
  FUZZ_CHECK(paged.ok(), "reserialized shard store does not page");
  FUZZ_CHECK(DatasetsBitwiseEqual(*loaded, *paged),
             "paged view differs from the in-RAM load");
}

// -- stream -----------------------------------------------------------------

namespace {

// The fixed schema the stream fuzz modes parse/restore against: one
// numeric and one categorical feature, two classes.
const Schema& StreamFuzzSchema() {
  static const Schema schema = [] {
    Schema s;
    s.AddAttribute(Attribute::Numeric("x"));
    s.AddAttribute(Attribute::Categorical("c", {"a", "b", "c"}));
    s.GetOrAddClass("neg");
    s.GetOrAddClass("pos");
    return s;
  }();
  return schema;
}

// Canonical rendering of everything a FeedParser produced, bit-exact, so
// two parses compare with one string equality.
struct FeedTrace {
  std::string rows;
  std::vector<std::string> errors;
  uint64_t error_count = 0;
  uint64_t lines_seen = 0;
  uint64_t rows_emitted = 0;

  bool operator==(const FeedTrace& other) const {
    return rows == other.rows && errors == other.errors &&
           error_count == other.error_count &&
           lines_seen == other.lines_seen &&
           rows_emitted == other.rows_emitted;
  }
};

void AppendRowTrace(const ParsedRow& row, std::string* out) {
  out->append("r ");
  out->append(std::to_string(row.line));
  for (const double value : row.numeric) {
    out->push_back(' ');
    out->append(std::to_string(std::bit_cast<uint64_t>(value)));
  }
  for (const CategoryId id : row.categorical) {
    out->push_back(' ');
    out->append(std::to_string(id));
  }
  out->push_back(' ');
  out->append(std::to_string(row.label));
  out->push_back('\n');
}

// Parses `text` whole (fragment == 0) or in `fragment`-byte pieces.
FeedTrace ParseFeed(std::string_view text, size_t fragment) {
  FeedParser parser(&StreamFuzzSchema(), "fuzz");
  FeedTrace trace;
  parser.set_row_fn(
      [&trace](const ParsedRow& row) { AppendRowTrace(row, &trace.rows); });
  if (fragment == 0) {
    parser.Append(text);
  } else {
    for (size_t at = 0; at < text.size(); at += fragment) {
      parser.Append(text.substr(at, std::min(fragment, text.size() - at)));
    }
  }
  parser.Finish();
  trace.errors = parser.errors();
  trace.error_count = parser.error_count();
  trace.lines_seen = parser.lines_seen();
  trace.rows_emitted = parser.rows_emitted();
  return trace;
}

}  // namespace

void FuzzStream(const uint8_t* data, size_t size) {
  if (size == 0 || size > kMaxInput) return;
  // First byte picks the surface; the rest is the input.
  const bool feed_mode = (data[0] & 1) == 0;
  const std::string text(AsText(data + 1, size - 1));

  if (feed_mode) {
    // Feed parser: the same bytes in any fragmentation must yield
    // bit-identical rows AND identical located error text, and every
    // rejection is located.
    const FeedTrace whole = ParseFeed(text, 0);
    const size_t fragment = 1 + size % 13;
    FUZZ_CHECK(whole == ParseFeed(text, fragment),
               "fragmented feed parse differs from whole parse");
    for (const std::string& error : whole.errors) {
      FUZZ_CHECK(error.compare(0, 10, "feed:fuzz:") == 0,
                 "feed rejection without a located message");
    }
    return;
  }

  // Checkpoint: parse is deterministic; a rejection is located; an
  // accepted checkpoint serializes back byte-identically, and its embedded
  // drift blob either restores to a serialization fixpoint or rejects with
  // a located error.
  auto parsed = ParseStreamCheckpoint(text);
  auto again = ParseStreamCheckpoint(text);
  FUZZ_CHECK(parsed.ok() == again.ok(),
             "checkpoint parse verdict is not deterministic");
  if (!parsed.ok()) {
    const std::string error = parsed.status().ToString();
    FUZZ_CHECK(ErrorIsLocated(parsed.status()) &&
                   error.find("stream-checkpoint") != std::string::npos,
               "checkpoint rejection without a located message");
    FUZZ_CHECK(error == again.status().ToString(),
               "checkpoint rejection text is not deterministic");
    return;
  }
  FUZZ_CHECK(SerializeStreamCheckpoint(*parsed) == text,
             "accepted checkpoint does not serialize back byte-identically");
  DriftDetector detector(&StreamFuzzSchema(), DriftOptions());
  const Status restored = detector.Restore(parsed->drift_blob);
  if (restored.ok()) {
    FUZZ_CHECK(detector.Serialize() == parsed->drift_blob,
               "restored drift state does not serialize back");
  } else {
    FUZZ_CHECK(ErrorIsLocated(restored) &&
                   restored.message().find("stream-drift") !=
                       std::string::npos,
               "drift blob rejection without a located message");
  }
}

// -- mine -------------------------------------------------------------------

void FuzzMine(const uint8_t* data, size_t size) {
  if (size == 0 || size > kMaxInput) return;
  // First byte picks the surface; the rest is the input.
  const bool parse_mode = (data[0] & 1) == 0;
  const Schema schema = ModelHarnessSchema();

  if (parse_mode) {
    // Assoc model parser: hostile text either rejects with a located error
    // or reaches a serialization fixpoint — the same contract as the
    // PNrule model target.
    const std::string text(AsText(data + 1, size - 1));
    auto model = ParseAssocModel(text, schema);
    if (!model.ok()) {
      FUZZ_CHECK(ErrorIsLocated(model.status()),
                 "assoc model rejection without a location");
      return;
    }
    const std::string first = SerializeAssocModel(*model, schema);
    auto reparsed = ParseAssocModel(first, schema);
    FUZZ_CHECK(reparsed.ok(), "serialized assoc model does not reparse");
    FUZZ_CHECK(SerializeAssocModel(*reparsed, schema) == first,
               "assoc model serialize/reparse is not a fixpoint");
    return;
  }

  // Miner mode: decode the bytes into a small dataset (including NaN/inf
  // cells) and mine it at 1 and 2 threads — the verdicts must agree, an
  // acceptance must be byte-identical and a model-format fixpoint, and a
  // rejection must carry a message.
  Dataset dataset(schema);
  size_t at = 1;
  auto cell = [](uint8_t b) -> double {
    if (b == 255) return std::numeric_limits<double>::quiet_NaN();
    if (b == 254) return std::numeric_limits<double>::infinity();
    if (b == 253) return -std::numeric_limits<double>::infinity();
    return static_cast<double>(b);
  };
  while (at + 4 <= size && dataset.num_rows() < 64) {
    const RowId row = dataset.AddRow();
    dataset.set_numeric(row, 0, cell(data[at]));
    dataset.set_numeric(row, 1, cell(data[at + 1]));
    if (data[at + 2] % 4 != 3) {  // else: leave the categorical cell missing
      dataset.set_categorical(row, 2, data[at + 2] % 3);
    }
    dataset.set_label(row, data[at + 3] % 2);
    at += 4;
  }
  RowSubset rows(dataset.num_rows());
  for (RowId r = 0; r < dataset.num_rows(); ++r) rows[r] = r;

  AssocMineOptions options;
  options.min_support = 0.1;
  options.per_class_min_support = (data[0] & 2) != 0 ? 0.4 : 0.0;
  options.min_confidence = 0.5;
  options.max_len = 2;
  const CategoryId target = 1;  // "pos"

  options.num_threads = 1;
  auto serial = MineCba(dataset, rows, target, options);
  options.num_threads = 2;
  auto parallel = MineCba(dataset, rows, target, options);
  FUZZ_CHECK(serial.ok() == parallel.ok(),
             "serial and parallel mining disagree on acceptance");
  if (!serial.ok()) {
    FUZZ_CHECK(!serial.status().ToString().empty(),
               "mining rejection with empty error");
    FUZZ_CHECK(serial.status().ToString() == parallel.status().ToString(),
               "serial and parallel mining error text differ");
    return;
  }
  const std::string first = SerializeAssocModel(serial->model, schema);
  FUZZ_CHECK(SerializeAssocModel(parallel->model, schema) == first,
             "mined model bytes depend on the thread count");
  auto reparsed = ParseAssocModel(first, schema);
  FUZZ_CHECK(reparsed.ok(), "mined model does not reparse");
  FUZZ_CHECK(SerializeAssocModel(*reparsed, schema) == first,
             "mined model serialize/reparse is not a fixpoint");
}

namespace {

struct Target {
  const char* name;
  TargetFn fn;
};

constexpr Target kTargets[] = {
    {"csv", FuzzCsv},       {"arff", FuzzArff}, {"model", FuzzModel},
    {"schema", FuzzSchema}, {"http", FuzzHttp}, {"json", FuzzJson},
    {"serve_binary", FuzzServeBinary},          {"tune", FuzzTune},
    {"shard", FuzzShard},     {"stream", FuzzStream},
    {"mine", FuzzMine},
};

}  // namespace

TargetFn FindTarget(std::string_view name) {
  for (const Target& target : kTargets) {
    if (name == target.name) return target.fn;
  }
  return nullptr;
}

const char* TargetNames() {
  return "csv arff model schema http json serve_binary tune shard stream "
         "mine";
}

}  // namespace fuzz
}  // namespace pnr
