// Truncation hardening for the six text formats that persist state
// (common/line_format.h): pnrule and multiclass models, assoc models,
// schemas, stream checkpoints with their drift blobs, and tune grids. A
// file lopped at any byte — a torn copy, a full disk, a killed writer —
// must produce a located error naming the line and the token the parser
// was still expecting, or (only when the cut lands exactly at the end of
// the final record) parse to the identical document. Silent
// prefix-acceptance is the failure mode these sweeps exist to rule out.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "assoc/model_io.h"
#include "common/line_format.h"
#include "data/schema_io.h"
#include "pnrule/model_io.h"
#include "stream/drift.h"
#include "stream/engine.h"
#include "tune/config_space.h"

namespace pnr {
namespace {

Schema HarnessSchema() {
  Schema schema;
  schema.AddAttribute(Attribute::Numeric("a"));
  schema.AddAttribute(Attribute::Numeric("b"));
  schema.AddAttribute(
      Attribute::Categorical("color", {"red", "green", "blue"}));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  return schema;
}

const char kModelText[] =
    "pnrule-model v1\n"
    "threshold 0.5\n"
    "use_score_matrix 1\n"
    "p-rules 2\n"
    "rule 2 10 7\n"
    "cond le a 3.5\n"
    "cond cat color red\n"
    "rule 1 4 2\n"
    "cond range b 0.25 0.75\n"
    "n-rules 1\n"
    "rule 1 5 1\n"
    "cond gt b 0.25\n"
    "scores 2 1\n"
    "0.7:10 0.3:5\n"
    "0.6:4 0.2:2\n"
    "end\n";

const char kAssocText[] =
    "pnr-assoc-model v1\n"
    "target pos\n"
    "default neg 0.25\n"
    "threshold 0.5\n"
    "rules 1\n"
    "rule 2 pos 20 10 0.5 2 0.5\n"
    "cond le a 3.5\n"
    "cond cat color red\n"
    "end\n";

const char kTuneText[] =
    "# grid\n"
    "rp = 0.95, 0.99\n"
    "rn = 0.7\n"
    "threshold = 0.5\n";

std::string MultiClassText() {
  return "pnrule-multiclass v1\nclasses 2\ndefault neg\nclass 0 1 absent\n"
         "class 1 0.5 model 16\n" +
         std::string(kModelText) + "end\n";
}

std::string CheckpointText() {
  StreamCheckpoint checkpoint;
  checkpoint.windows = 3;
  checkpoint.rows = 1500;
  checkpoint.swaps = 1;
  checkpoint.model_version = 2;
  checkpoint.model_path = "out/model_w3.txt";
  checkpoint.drift_blob = "pnr-stream-drift v1\nstate warmup\n";
  return SerializeStreamCheckpoint(checkpoint);
}

// A warmup-state blob holding one observed window's samples and counts.
std::string DriftText(const Schema& schema) {
  Dataset dataset(schema);
  std::vector<RowId> rows;
  std::vector<double> scores;
  for (int i = 0; i < 4; ++i) {
    const RowId row = dataset.AddRow();
    dataset.set_numeric(row, 0, 0.5 * i);
    dataset.set_numeric(row, 1, 1.0 - 0.25 * i);
    dataset.set_categorical(row, 2, i % 3);
    dataset.set_label(row, i % 2);
    rows.push_back(row);
    scores.push_back(0.25 * i);
  }
  DriftDetector detector(&schema, DriftOptions());
  detector.Observe(dataset, rows.data(), rows.size(), scores.data(), 1);
  return detector.Serialize();
}

using Render = std::function<StatusOr<std::string>(const std::string&)>;

// Parses with `parse` and renders what it accepted with `write`.
template <typename Parse, typename Write>
Render ParseThenWrite(Parse parse, Write write) {
  return [parse, write](const std::string& text) -> StatusOr<std::string> {
    auto parsed = parse(text);
    if (!parsed.ok()) return parsed.status();
    return write(*parsed);
  };
}

// One format under the sweep: its document, a parser that renders what it
// accepted back to canonical text, and how many proper prefixes may parse
// (1 where the final line may lack its '\n', 0 for the exact-bytes
// formats, -1 for the tune grid, which has no end marker: a cut at a line
// boundary is a shorter grid, so only its rejections are checked).
struct Format {
  std::string name;
  std::string text;
  Render render;
  int accepted_prefixes;
};

std::vector<Format> AllFormats(const Schema& schema) {
  const Schema* s = &schema;
  const Render drift = [s](const std::string& text) -> StatusOr<std::string> {
    DriftDetector detector(s, DriftOptions());
    const Status restored = detector.Restore(text);
    if (!restored.ok()) return restored;
    return detector.Serialize();
  };
  const auto grid = [](const ConfigSpace& space) {
    std::string out;
    for (const TrialConfig& trial : space.Enumerate(PnruleConfig{})) {
      out += trial.Describe() + "\n";
    }
    return out;
  };
  return {
      {"model", kModelText,
       ParseThenWrite(
           [s](const std::string& t) { return ParsePnruleModel(t, *s); },
           [s](const PnruleClassifier& m) {
             return SerializePnruleModel(m, *s);
           }),
       1},
      {"multiclass model", MultiClassText(),
       ParseThenWrite(
           [s](const std::string& t) { return ParseMultiClassModel(t, *s); },
           [s](const MultiClassPnruleClassifier& m) {
             return SerializeMultiClassModel(m, *s);
           }),
       1},
      {"assoc model", kAssocText,
       ParseThenWrite(
           [s](const std::string& t) { return ParseAssocModel(t, *s); },
           [s](const AssocClassifier& m) {
             return SerializeAssocModel(m, *s);
           }),
       1},
      {"schema", SerializeSchema(schema),
       ParseThenWrite([](const std::string& t) { return ParseSchema(t); },
                      [](const Schema& parsed) {
                        return SerializeSchema(parsed);
                      }),
       1},
      {"stream checkpoint", CheckpointText(),
       ParseThenWrite(
           [](const std::string& t) { return ParseStreamCheckpoint(t); },
           [](const StreamCheckpoint& c) {
             return SerializeStreamCheckpoint(c);
           }),
       0},
      {"drift blob", DriftText(schema), drift, 0},
      {"tune config", kTuneText,
       ParseThenWrite(
           [](const std::string& t) { return ConfigSpace::Parse(t); }, grid),
       -1},
  };
}

TEST(TruncationSweepTest, EveryBytePrefixIsLocatedErrorOrExactDocument) {
  const Schema schema = HarnessSchema();
  for (const Format& format : AllFormats(schema)) {
    SCOPED_TRACE(format.name);
    auto full = format.render(format.text);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    int accepted = 0;
    for (size_t cut = 0; cut < format.text.size(); ++cut) {
      const std::string context =
          format.name + " prefix of " + std::to_string(cut) + " bytes";
      auto parsed = format.render(format.text.substr(0, cut));
      if (!parsed.ok()) {
        EXPECT_TRUE(IsLocatedParseError(parsed.status().message()))
            << context << ": unlocated error '" << parsed.status().ToString()
            << "'";
        continue;
      }
      ++accepted;
      // Only a cut that preserves the complete final record may parse —
      // and then it must mean exactly what the full document means.
      if (format.accepted_prefixes >= 0) {
        EXPECT_EQ(*parsed, *full) << context << " parsed to a different "
                                  << "document";
      }
    }
    if (format.accepted_prefixes >= 0) {
      EXPECT_EQ(accepted, format.accepted_prefixes);
    }
  }
}

TEST(ModelTruncationTest, EofMidRecordNamesLineAndExpectedToken) {
  const Schema schema = HarnessSchema();
  // Cut after "rule 2 10 7\n": the parser is owed two conditions.
  const std::string cut_rule =
      "pnrule-model v1\nthreshold 0.5\nuse_score_matrix 1\n"
      "p-rules 2\nrule 2 10 7\n";
  auto parsed = ParsePnruleModel(cut_rule, schema);
  ASSERT_FALSE(parsed.ok());
  const std::string error = parsed.status().ToString();
  EXPECT_NE(error.find("unexpected end of input after line 5"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("expected condition 1 of 2"), std::string::npos)
      << error;

  // Cut inside the score matrix: the error names which row is missing.
  const std::string text(kModelText);
  const size_t second_row = text.find("0.6:4");
  ASSERT_NE(second_row, std::string::npos) << "fixture drifted";
  parsed = ParsePnruleModel(text.substr(0, second_row), schema);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("expected score row 2 of 2"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(ModelTruncationTest, TrailingContentAfterEndRejected) {
  const Schema schema = HarnessSchema();
  auto parsed =
      ParsePnruleModel(std::string(kModelText) + "leftover\n", schema);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("trailing content after 'end'"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(SchemaTruncationTest, EofMidRecordNamesLineAndExpectedToken) {
  // Declared 3 categories, file ends after the first value line.
  auto parsed = ParseSchema(
      "pnrule-schema v1\nattributes 1\ncategorical 3 color\nvalue red\n");
  ASSERT_FALSE(parsed.ok());
  const std::string error = parsed.status().ToString();
  EXPECT_NE(error.find("unexpected end of input after line 4"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("expected value 2 of 3 for attribute 'color'"),
            std::string::npos)
      << error;
}

TEST(SchemaTruncationTest, TrailingContentAfterEndRejected) {
  const std::string canonical = SerializeSchema(HarnessSchema());
  auto parsed = ParseSchema(canonical + "garbage\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("trailing content after 'end'"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(SchemaTruncationTest, SaveLoadRoundTripsThroughFileIo) {
  const std::string path =
      testing::TempDir() + "/pnr_schema_roundtrip.schema";
  const Schema schema = HarnessSchema();
  ASSERT_TRUE(SaveSchema(schema, path).ok());
  auto loaded = LoadSchema(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SerializeSchema(*loaded), SerializeSchema(schema));
  std::remove(path.c_str());

  auto missing = LoadSchema(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace pnr
