// Streaming scoring engine: feed parsing, windowed metrics, drift
// detection, checkpointing, and the end-to-end drift -> retrain -> hot-swap
// loop (DESIGN.md §15).
//
// The determinism contract is the backbone of every end-to-end test here:
// the journal, the retrained model file, and the swap sequence must be
// byte-identical at any score-thread count and any ingest pacing, because
// window boundaries, retrain sets, and swap points are all pure functions
// of the row stream. The drift scenario mirrors `pnr stream --generate`:
// a feed whose first half is training-distribution traffic and whose
// second half is the shifted kdd_sim test distribution (r2l surges from
// ~0.2% to ~5%), which must trigger exactly one retrain whose post-swap
// windowed recall beats the stale model's.

#include <sys/stat.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/line_format.h"
#include "data/csv.h"
#include "pnrule/model_io.h"
#include "stream/engine.h"
#include "synth/kdd_sim.h"
#include "test_util.h"

namespace pnr {
namespace {

// ---------------------------------------------------------------------------
// Feed parser

struct Collected {
  std::vector<ParsedRow> rows;
  std::vector<std::string> errors;
  uint64_t error_count = 0;
  uint64_t lines_seen = 0;
  uint64_t rows_emitted = 0;
};

Collected Collect(const Schema& schema, const std::string& text,
                  size_t fragment = 0, size_t parallel_threads = 0) {
  FeedParser parser(&schema, "test");
  Collected out;
  parser.set_row_fn([&](const ParsedRow& row) { out.rows.push_back(row); });
  if (parallel_threads > 0) {
    parser.AppendParallel(text, parallel_threads);
  } else if (fragment == 0) {
    parser.Append(text);
  } else {
    for (size_t at = 0; at < text.size(); at += fragment) {
      parser.Append(std::string_view(text).substr(
          at, std::min(fragment, text.size() - at)));
    }
  }
  parser.Finish();
  out.errors = parser.errors();
  out.error_count = parser.error_count();
  out.lines_seen = parser.lines_seen();
  out.rows_emitted = parser.rows_emitted();
  return out;
}

void ExpectSameRows(const Collected& a, const Collected& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].numeric, b.rows[i].numeric) << "row " << i;
    EXPECT_EQ(a.rows[i].categorical, b.rows[i].categorical) << "row " << i;
    EXPECT_EQ(a.rows[i].label, b.rows[i].label) << "row " << i;
    EXPECT_EQ(a.rows[i].line, b.rows[i].line) << "row " << i;
  }
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.error_count, b.error_count);
  EXPECT_EQ(a.lines_seen, b.lines_seen);
  EXPECT_EQ(a.rows_emitted, b.rows_emitted);
}

Schema TinySchema() {
  return testutil::MakeMixedDataset({}).schema();
}

TEST(FeedParserTest, ParsesRowsDelayedLabelsAndUnseenValues) {
  const Schema schema = TinySchema();
  const Collected got = Collect(schema,
                                "x,c,class\n"
                                "1.5,a,pos\n"
                                "2.0,?,?\n"
                                "3.0,novel_value,neg\n");
  ASSERT_EQ(got.rows.size(), 3u);
  EXPECT_EQ(got.error_count, 0u);
  EXPECT_EQ(got.rows[0].numeric[0], 1.5);
  EXPECT_EQ(got.rows[0].categorical[1], 0);  // "a"
  EXPECT_EQ(got.rows[0].label, testutil::kPos);
  EXPECT_EQ(got.rows[0].line, 2u);
  // `?` label = not yet arrived; `?` categorical = missing value.
  EXPECT_EQ(got.rows[1].label, kInvalidCategory);
  EXPECT_EQ(got.rows[1].categorical[1], kInvalidCategory);
  // A value outside the dictionary is data (the drift detector's unseen
  // bucket), not a defect: the row is kept.
  EXPECT_EQ(got.rows[2].categorical[1], kInvalidCategory);
  EXPECT_EQ(got.rows[2].label, 0);
}

TEST(FeedParserTest, RejectsStructuralDefectsWithLocatedErrors) {
  const Schema schema = TinySchema();
  const Collected got = Collect(schema,
                                "x,c,class\n"
                                "nan,a,pos\n"
                                "oops,a,pos\n"
                                "1.0,a\n"
                                "1.0,a,bogus_label\n"
                                "\n"
                                "2.5,b,neg\n");
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_EQ(got.rows[0].numeric[0], 2.5);
  EXPECT_EQ(got.error_count, 5u);
  ASSERT_EQ(got.errors.size(), 5u);
  EXPECT_NE(got.errors[0].find("feed:test:2: bad numeric value 'nan'"),
            std::string::npos);
  EXPECT_NE(got.errors[1].find("feed:test:3: bad numeric value 'oops'"),
            std::string::npos);
  EXPECT_NE(got.errors[2].find("feed:test:4: expected 3 fields, got 2"),
            std::string::npos);
  EXPECT_NE(got.errors[3].find("feed:test:5: unknown class label"),
            std::string::npos);
  EXPECT_NE(got.errors[4].find("feed:test:6: empty line"),
            std::string::npos);
}

TEST(FeedParserTest, HeaderMismatchIsLocated) {
  const Schema schema = TinySchema();
  const Collected got = Collect(schema,
                                "x,wrong,class\n"
                                "1.0,a,pos\n");
  EXPECT_TRUE(got.rows.empty());
  EXPECT_GE(got.error_count, 1u);
  ASSERT_FALSE(got.errors.empty());
  EXPECT_NE(got.errors[0].find(
                "feed:test:1: header does not match the schema at column 2"),
            std::string::npos);
}

TEST(FeedParserTest, UnterminatedFinalLineFlushesOnFinish) {
  const Schema schema = TinySchema();
  FeedParser parser(&schema, "test");
  std::vector<ParsedRow> rows;
  parser.set_row_fn([&](const ParsedRow& row) { rows.push_back(row); });
  parser.Append("x,c,class\n0.25,b,pos");  // no trailing newline
  EXPECT_TRUE(rows.empty());  // still buffered: the producer may append more
  parser.Finish();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].numeric[0], 0.25);
  EXPECT_EQ(rows[0].label, testutil::kPos);
}

std::string BuildBigFeed(size_t num_rows) {
  std::string text = "x,c,class\n";
  for (size_t i = 0; i < num_rows; ++i) {
    if (i % 97 == 13) {
      text += "not_a_number,a,pos\n";  // periodic structural defect
    } else {
      text += std::to_string(i % 1000) + "." + std::to_string(i % 10) + "," +
              (i % 3 == 0 ? "a" : i % 3 == 1 ? "b" : "c") + "," +
              (i % 11 == 0 ? "pos" : i % 13 == 0 ? "?" : "neg") + "\n";
    }
  }
  return text;
}

TEST(FeedParserTest, FragmentationIsInvisible) {
  const Schema schema = TinySchema();
  const std::string text = BuildBigFeed(400) + "7.5,c,pos";  // unterminated
  const Collected whole = Collect(schema, text);
  ExpectSameRows(whole, Collect(schema, text, /*fragment=*/1));
  ExpectSameRows(whole, Collect(schema, text, /*fragment=*/7));
  ExpectSameRows(whole, Collect(schema, text, /*fragment=*/4096));
}

TEST(FeedParserTest, AppendParallelMatchesSerialAppend) {
  const Schema schema = TinySchema();
  // Big enough that ClampThreadsForBytes actually grants multiple chunk
  // workers (1 MiB per thread), so the parallel merge path is exercised.
  const std::string text = BuildBigFeed(260000);
  ASSERT_GT(text.size(), 2u << 20);
  const Collected serial = Collect(schema, text);
  EXPECT_GT(serial.error_count, 0u);
  ExpectSameRows(serial, Collect(schema, text, 0, /*parallel_threads=*/2));
  ExpectSameRows(serial, Collect(schema, text, 0, /*parallel_threads=*/8));
}

// ---------------------------------------------------------------------------
// Windowed metrics

TEST(StreamWindowTest, ScoreBinEdges) {
  EXPECT_EQ(StreamScoreBin(0.0), 0u);
  EXPECT_EQ(StreamScoreBin(-0.5), 0u);
  EXPECT_EQ(StreamScoreBin(0.0624), 0u);
  EXPECT_EQ(StreamScoreBin(0.5), 8u);
  EXPECT_EQ(StreamScoreBin(0.999), 15u);
  EXPECT_EQ(StreamScoreBin(1.0), 15u);
  EXPECT_EQ(StreamScoreBin(2.0), 15u);
}

TEST(StreamWindowTest, ComputeWindowStatsExcludesDelayedLabels) {
  const double scores[] = {0.9, 0.1, 0.8, 0.2, 0.7};
  const CategoryId labels[] = {1, 0, kInvalidCategory, 1, 0};
  const WindowStats stats = ComputeWindowStats(scores, labels, 5, 1, 0.5);
  EXPECT_EQ(stats.rows, 5u);
  EXPECT_EQ(stats.labeled_rows, 4u);  // row 2's label has not arrived
  EXPECT_EQ(stats.predicted_positive, 3u);  // all rows count here
  EXPECT_EQ(stats.labeled_positive, 2u);
  EXPECT_EQ(stats.confusion.true_positives, 1.0);   // row 0
  EXPECT_EQ(stats.confusion.false_negatives, 1.0);  // row 3
  EXPECT_EQ(stats.confusion.false_positives, 1.0);  // row 4
  EXPECT_EQ(stats.confusion.true_negatives, 1.0);   // row 1
  EXPECT_EQ(stats.score_histogram[StreamScoreBin(0.9)], 1u);
}

TEST(StreamWindowTest, SlidingAggregateEvictsOldWindows) {
  SlidingAggregate sliding(2);
  const double scores[] = {0.9};
  const CategoryId pos[] = {1};
  const CategoryId neg[] = {0};
  sliding.Push(ComputeWindowStats(scores, pos, 1, 1, 0.5));
  sliding.Push(ComputeWindowStats(scores, neg, 1, 1, 0.5));
  sliding.Push(ComputeWindowStats(scores, neg, 1, 1, 0.5));
  EXPECT_EQ(sliding.size(), 2u);
  EXPECT_EQ(sliding.rows(), 2u);
  // The first (true-positive) window fell out of the aggregate.
  EXPECT_EQ(sliding.confusion().true_positives, 0.0);
  EXPECT_EQ(sliding.confusion().false_positives, 2.0);
}

TEST(StreamWindowTest, RenderWindowLineIsStableText) {
  const double scores[] = {0.9, 0.1, 0.6, 0.2};
  const CategoryId labels[] = {1, 0, 1, 0};
  WindowStats stats = ComputeWindowStats(scores, labels, 4, 1, 0.5);
  stats.index = 7;
  stats.model_version = 2;
  SlidingAggregate sliding(5);
  sliding.Push(stats);
  EXPECT_EQ(RenderWindowLine(stats, sliding),
            "window 7 rows=4 labeled=4 pos=2 pred=2 recall=1.000000 "
            "precision=1.000000 slide_recall=1.000000 "
            "slide_precision=1.000000 "
            "hist=0:1:0:1:0:0:0:0:0:1:0:0:0:0:1:0 model=v2");
  stats.partial = true;
  EXPECT_NE(RenderWindowLine(stats, sliding).find(" partial"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Drift detection

TEST(DriftTest, SmoothedPsiBasics) {
  EXPECT_EQ(SmoothedPsi({100, 100}, {100, 100}), 0.0);
  EXPECT_EQ(SmoothedPsi({}, {}), 0.0);
  // A mass swap between bins yields a large PSI; smoothing keeps an
  // empty-bin comparison finite.
  EXPECT_GT(SmoothedPsi({200, 0}, {0, 200}), 1.0);
  const double noise = SmoothedPsi({100, 100}, {103, 97});
  EXPECT_GT(noise, 0.0);
  EXPECT_LT(noise, 0.01);
}

// A dataset whose first `normal` rows are baseline traffic and whose tail
// is label-shifted: same features and scores, positives everywhere.
struct DriftRig {
  DriftRig() {
    std::vector<testutil::MixedRow> rows;
    for (int i = 0; i < 200; ++i) {
      rows.push_back({static_cast<double>(i % 10), CategoryId(i % 2),
                      /*positive=*/i >= 100});
    }
    dataset = testutil::MakeMixedDataset(rows);
    for (int i = 0; i < 200; ++i) {
      ids.push_back(static_cast<RowId>(i));
      scores.push_back(0.1 + 0.05 * (i % 4));
    }
  }

  DriftDetector::WindowReport Observe(DriftDetector* detector, size_t first,
                                      size_t count) {
    return detector->Observe(dataset, ids.data() + first, count,
                             scores.data() + first, testutil::kPos);
  }

  Dataset dataset = testutil::MakeMixedDataset({});
  std::vector<RowId> ids;
  std::vector<double> scores;
};

DriftOptions SmallDriftOptions() {
  DriftOptions options;
  options.reference_windows = 2;
  options.confirm_windows = 2;
  options.numeric_bins = 4;
  return options;
}

TEST(DriftTest, LabelShiftConfirmsOnlyAfterConsecutiveWindows) {
  DriftRig rig;
  DriftDetector detector(&rig.dataset.schema(), SmallDriftOptions());
  // Warmup: two baseline windows build the reference.
  EXPECT_TRUE(rig.Observe(&detector, 0, 50).warmup);
  EXPECT_TRUE(rig.Observe(&detector, 50, 50).warmup);
  EXPECT_TRUE(detector.baseline_ready());

  // Shifted window (positives): the label channel fires, features do not.
  DriftDetector::WindowReport report = rig.Observe(&detector, 100, 50);
  EXPECT_FALSE(report.warmup);
  EXPECT_GT(report.label_psi, detector.options().label_psi_threshold);
  EXPECT_LT(report.max_feature_psi, detector.options().psi_threshold);
  EXPECT_LT(report.score_psi, detector.options().score_psi_threshold);
  EXPECT_TRUE(report.over_threshold);
  EXPECT_EQ(report.consecutive, 1u);
  EXPECT_FALSE(report.confirmed);  // hysteresis: one window never confirms

  // A baseline window in between resets the streak...
  report = rig.Observe(&detector, 0, 50);
  EXPECT_FALSE(report.over_threshold);
  EXPECT_EQ(report.consecutive, 0u);

  // ...so confirmation needs two shifted windows in a row.
  EXPECT_FALSE(rig.Observe(&detector, 100, 50).confirmed);
  report = rig.Observe(&detector, 150, 50);
  EXPECT_TRUE(report.confirmed);
  EXPECT_EQ(report.consecutive, 2u);

  detector.ResetBaseline();
  EXPECT_FALSE(detector.baseline_ready());
  EXPECT_EQ(detector.consecutive_over(), 0u);
  EXPECT_EQ(detector.resets(), 1u);
  // The next windows are warmup again (the retrain cooldown).
  EXPECT_TRUE(rig.Observe(&detector, 100, 50).warmup);
}

TEST(DriftTest, NumericShiftFlagsTheWorstAttribute) {
  DriftRig rig;
  DriftDetector detector(&rig.dataset.schema(), SmallDriftOptions());
  rig.Observe(&detector, 0, 50);
  rig.Observe(&detector, 50, 50);
  // Push the numeric attribute far outside the reference range.
  std::vector<testutil::MixedRow> shifted;
  for (int i = 0; i < 50; ++i) {
    shifted.push_back({1000.0 + i, CategoryId(i % 2), false});
  }
  Dataset moved = testutil::MakeMixedDataset(shifted);
  std::vector<RowId> ids(50);
  std::vector<double> scores(50, 0.1);
  for (int i = 0; i < 50; ++i) ids[i] = static_cast<RowId>(i);
  const DriftDetector::WindowReport report = detector.Observe(
      moved, ids.data(), ids.size(), scores.data(), testutil::kPos);
  EXPECT_GT(report.max_feature_psi, detector.options().psi_threshold);
  EXPECT_EQ(report.worst_attr, 0);  // "x"
  EXPECT_TRUE(report.over_threshold);
}

TEST(DriftTest, UnseenCategoricalValuesCountAsDrift) {
  DriftRig rig;
  DriftDetector detector(&rig.dataset.schema(), SmallDriftOptions());
  rig.Observe(&detector, 0, 50);
  rig.Observe(&detector, 50, 50);
  // Post-drift traffic: every categorical cell is a dictionary miss
  // (kInvalidCategory), exactly what a novel attack subclass produces.
  std::vector<testutil::MixedRow> novel;
  for (int i = 0; i < 50; ++i) {
    novel.push_back({static_cast<double>(i % 10), 0, false});
  }
  Dataset moved = testutil::MakeMixedDataset(novel);
  std::vector<RowId> ids(50);
  std::vector<double> scores(50, 0.1);
  for (int i = 0; i < 50; ++i) {
    ids[i] = static_cast<RowId>(i);
    moved.set_categorical(ids[i], 1, kInvalidCategory);
  }
  const DriftDetector::WindowReport report = detector.Observe(
      moved, ids.data(), ids.size(), scores.data(), testutil::kPos);
  EXPECT_GT(report.max_feature_psi, detector.options().psi_threshold);
  EXPECT_EQ(report.worst_attr, 1);  // "c"
}

TEST(DriftTest, WindowWithoutLabelsHasZeroLabelPsi) {
  DriftRig rig;
  DriftDetector detector(&rig.dataset.schema(), SmallDriftOptions());
  rig.Observe(&detector, 0, 50);
  rig.Observe(&detector, 50, 50);
  // Same traffic, labels stripped: the label channel must contribute 0
  // rather than manufacturing PSI out of smoothing terms.
  Dataset unlabeled = rig.dataset;
  for (RowId row = 0; row < unlabeled.num_rows(); ++row) {
    unlabeled.set_label(row, kInvalidCategory);
  }
  const DriftDetector::WindowReport report =
      detector.Observe(unlabeled, rig.ids.data(), 50, rig.scores.data(),
                       testutil::kPos);
  EXPECT_EQ(report.label_psi, 0.0);
  EXPECT_FALSE(report.over_threshold);
}

TEST(DriftTest, SerializeRestoreIsAFixpoint) {
  DriftRig rig;
  const Schema& schema = rig.dataset.schema();
  DriftDetector detector(&schema, SmallDriftOptions());

  // Warmup state (reference still accumulating).
  rig.Observe(&detector, 0, 50);
  const std::string warmup_blob = detector.Serialize();
  DriftDetector warm_restored(&schema, SmallDriftOptions());
  ASSERT_TRUE(warm_restored.Restore(warmup_blob).ok());
  EXPECT_EQ(warm_restored.Serialize(), warmup_blob);
  EXPECT_FALSE(warm_restored.baseline_ready());
  EXPECT_EQ(warm_restored.warmup_windows_seen(), 1u);

  // Ready state, mid-streak.
  rig.Observe(&detector, 50, 50);
  rig.Observe(&detector, 100, 50);
  EXPECT_EQ(detector.consecutive_over(), 1u);
  const std::string ready_blob = detector.Serialize();
  DriftDetector restored(&schema, SmallDriftOptions());
  ASSERT_TRUE(restored.Restore(ready_blob).ok());
  EXPECT_EQ(restored.Serialize(), ready_blob);
  EXPECT_TRUE(restored.baseline_ready());
  EXPECT_EQ(restored.consecutive_over(), 1u);

  // Behavioral equivalence: both detectors must report the next window
  // identically (this is what makes checkpoint resume deterministic).
  const DriftDetector::WindowReport a = rig.Observe(&detector, 150, 50);
  const DriftDetector::WindowReport b = rig.Observe(&restored, 150, 50);
  EXPECT_EQ(a.max_feature_psi, b.max_feature_psi);
  EXPECT_EQ(a.score_psi, b.score_psi);
  EXPECT_EQ(a.label_psi, b.label_psi);
  EXPECT_EQ(a.confirmed, b.confirmed);
  EXPECT_EQ(detector.Serialize(), restored.Serialize());
}

TEST(DriftTest, RestoreRejectsMalformedBlobsAndStaysUnchanged) {
  DriftRig rig;
  const Schema& schema = rig.dataset.schema();
  DriftDetector detector(&schema, SmallDriftOptions());
  rig.Observe(&detector, 0, 50);
  rig.Observe(&detector, 50, 50);
  const std::string good = detector.Serialize();
  const std::string before = good;

  const auto expect_rejected = [&](std::string blob, const char* what) {
    const Status status = detector.Restore(blob);
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_TRUE(IsLocatedParseError(status.message()) &&
                status.message().find("stream-drift") != std::string::npos)
        << what << ": " << status.message();
    EXPECT_EQ(detector.Serialize(), before) << what;
  };

  expect_rejected("", "empty blob");
  expect_rejected("garbage\n", "bad header");
  {
    std::string blob = good;
    blob.replace(blob.find("v1"), 2, "v9");
    expect_rejected(blob, "unknown version");
  }
  {
    std::string blob = good;
    const size_t at = blob.find("attrs 2");
    ASSERT_NE(at, std::string::npos);
    blob.replace(at, 7, "attrs 1");
    expect_rejected(blob, "attr count mismatch");
  }
  {
    // Truncate: drop the final 'end' line.
    std::string blob = good;
    ASSERT_EQ(blob.substr(blob.size() - 4), "end\n");
    blob.resize(blob.size() - 4);
    expect_rejected(blob, "missing end");
  }
  {
    std::string blob = good;
    const size_t at = blob.find("score counts 16");
    ASSERT_NE(at, std::string::npos);
    blob.replace(at, 15, "score counts 15");
    expect_rejected(blob, "score histogram size mismatch");
  }
  // Options mismatch: a blob from a 4-bin detector cannot restore into an
  // 8-bin one.
  {
    DriftOptions other = SmallDriftOptions();
    other.numeric_bins = 8;
    DriftDetector wide(&schema, other);
    const Status status = wide.Restore(good);
    EXPECT_FALSE(status.ok());
  }
}

// ---------------------------------------------------------------------------
// Checkpoint format

TEST(StreamCheckpointTest, SerializeParseIsAFixpoint) {
  StreamCheckpoint checkpoint;
  checkpoint.windows = 13;
  checkpoint.rows = 6500;
  checkpoint.swaps = 1;
  checkpoint.model_version = 2;
  checkpoint.model_path = "out dir/model_w13.txt";  // spaces survive
  checkpoint.drift_blob = "pnr-stream-drift v1\nstate warmup\n";
  const std::string text = SerializeStreamCheckpoint(checkpoint);
  auto parsed = ParseStreamCheckpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->windows, 13u);
  EXPECT_EQ(parsed->rows, 6500u);
  EXPECT_EQ(parsed->swaps, 1u);
  EXPECT_EQ(parsed->model_version, 2u);
  EXPECT_EQ(parsed->model_path, "out dir/model_w13.txt");
  EXPECT_EQ(parsed->drift_blob, checkpoint.drift_blob);
  EXPECT_EQ(SerializeStreamCheckpoint(*parsed), text);
}

TEST(StreamCheckpointTest, ParseRejectsMalformedInput) {
  const std::string good = SerializeStreamCheckpoint([] {
    StreamCheckpoint c;
    c.windows = 2;
    c.rows = 1000;
    c.model_path = "m.txt";
    c.drift_blob = "blob line\n";
    return c;
  }());
  ASSERT_TRUE(ParseStreamCheckpoint(good).ok());

  const auto expect_rejected = [](const std::string& text, const char* what) {
    const auto parsed = ParseStreamCheckpoint(text);
    ASSERT_FALSE(parsed.ok()) << what;
    EXPECT_TRUE(IsLocatedParseError(parsed.status().message()) &&
                parsed.status().message().find("stream-checkpoint") !=
                    std::string::npos)
        << what << ": " << parsed.status().ToString();
  };

  expect_rejected("", "empty");
  expect_rejected(good.substr(0, good.size() - 1), "missing final newline");
  expect_rejected("pnr-stream-checkpoint v2\n", "wrong version");
  {
    std::string text = good;
    // Non-canonical counters must not round-trip silently.
    text.replace(text.find("windows 2"), 9, "windows 02");
    expect_rejected(text, "leading zero counter");
  }
  {
    std::string text = good;
    text.replace(text.find("windows 2"), 9, "windows +2");
    expect_rejected(text, "signed counter");
  }
  {
    std::string text = good;
    text.replace(text.find("model_version 1"), 15, "model_version 0");
    expect_rejected(text, "model_version zero");
  }
  {
    std::string text = good;
    text.replace(text.find("model m.txt"), 11, "model ");
    expect_rejected(text, "empty model path");
  }
  {
    std::string text = good;
    text.replace(text.find("drift 1"), 7, "drift 9");
    expect_rejected(text, "drift blob truncated");
  }
  {
    std::string text = good;
    text.replace(text.find("end\n"), 4, "");
    expect_rejected(text, "missing end");
  }
  expect_rejected(good + "extra\n", "trailing content");
}

// ---------------------------------------------------------------------------
// End-to-end engine scenario (mirrors `pnr stream --generate`)

constexpr uint64_t kWindowRows = 500;
constexpr size_t kBaseTrainRows = 4000;  // rows the stale model learned from
constexpr size_t kPreRows = 4000;        // training-distribution feed prefix
constexpr size_t kPostRows = 3000;       // shifted kdd_sim test traffic
constexpr uint64_t kRetrainRows = 3000;

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::string();
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void CopyRow(const Dataset& src, RowId from, Dataset* dst) {
  const RowId to = dst->AddRow();
  for (size_t a = 0; a < src.schema().num_attributes(); ++a) {
    const AttrIndex attr = static_cast<AttrIndex>(a);
    if (src.schema().attribute(attr).is_numeric()) {
      dst->set_numeric(to, attr, src.numeric(from, attr));
    } else {
      dst->set_categorical(to, attr, src.categorical(from, attr));
    }
  }
  dst->set_label(to, src.label(from));
}

struct Scenario {
  Schema schema;
  CategoryId target = kInvalidCategory;
  std::string base_model_text;  // stale model, serialized
  std::string feed_csv;         // the feed file bytes, WriteCsv dialect
  std::vector<ParsedRow> feed;  // feed_csv parsed: kPreRows + kPostRows rows
};

const Scenario& SharedScenario() {
  static const Scenario scenario = [] {
    KddSimParams params;
    params.train_records = kBaseTrainRows + kPreRows;
    params.test_records = kPostRows;
    params.seed = 427;
    auto generated = GenerateKddSim(params);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    const Dataset& train = generated->train;
    const Dataset& test = generated->test;

    Scenario out;
    out.schema = train.schema();
    out.target = out.schema.class_attr().FindCategory("r2l");
    EXPECT_NE(out.target, kInvalidCategory);

    Dataset base(train.schema());
    for (RowId row = 0; row < kBaseTrainRows; ++row) {
      CopyRow(train, row, &base);
    }
    auto model = PnruleLearner(PnruleConfig()).Train(base, out.target);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    out.base_model_text = SerializePnruleModel(*model, out.schema);

    // The feed travels through the CSV dialect, exactly as `pnr stream
    // --generate` produces it: training-distribution prefix, then the
    // shifted test traffic.
    Dataset feed_dataset(train.schema());
    for (RowId row = kBaseTrainRows; row < kBaseTrainRows + kPreRows; ++row) {
      CopyRow(train, row, &feed_dataset);
    }
    for (RowId row = 0; row < kPostRows; ++row) {
      CopyRow(test, row, &feed_dataset);
    }
    const std::string csv_path =
        ::testing::TempDir() + "/pnr_stream_scenario_feed.csv";
    EXPECT_TRUE(WriteCsv(feed_dataset, csv_path).ok());
    out.feed_csv = ReadFileOrEmpty(csv_path);
    EXPECT_FALSE(out.feed_csv.empty());
    FeedParser parser(&out.schema, "scenario");
    parser.set_row_fn(
        [&out](const ParsedRow& row) { out.feed.push_back(row); });
    parser.Append(out.feed_csv);
    parser.Finish();
    EXPECT_EQ(parser.error_count(), 0u)
        << (parser.errors().empty() ? "" : parser.errors()[0]);
    EXPECT_EQ(out.feed.size(), kPreRows + kPostRows);
    return out;
  }();
  return scenario;
}

struct RunConfig {
  std::string tag;  // names the out dir; must be unique per configuration
  size_t score_threads = 1;
  bool retrain_enabled = true;
  size_t pump_every = 1;          // Pump after every n rows; 0 = once at end
  size_t ingest_limit = SIZE_MAX;
  bool finish = true;
  const StreamCheckpoint* restore = nullptr;
  bool write_checkpoint = false;
};

struct RunResult {
  std::vector<std::string> journal;
  std::vector<WindowStats> history;
  uint64_t swaps = 0;
  uint64_t windows = 0;
  uint64_t model_version = 0;
  StreamCheckpoint checkpoint;       // MakeCheckpoint() at the end
  std::string checkpoint_file;       // on-disk checkpoint (if written)
  std::string retrained_model_text;  // bytes of the swapped-in model file
  std::string out_dir;
};

StreamEngineOptions MakeEngineOptions(const Scenario& scenario,
                                      const RunConfig& config,
                                      const std::string& out_dir) {
  StreamEngineOptions options;
  options.window_rows = kWindowRows;
  options.sliding_windows = 5;
  options.threshold = 0.5;
  options.score_threads = config.score_threads;
  options.target = scenario.target;
  options.retrain_enabled = config.retrain_enabled;
  options.retrain_rows = kRetrainRows;
  options.model_path = out_dir + "/base_model.txt";
  if (config.write_checkpoint) options.checkpoint_path = out_dir + "/ckpt";
  options.retrain.out_dir = out_dir;
  options.retrain.snapshot_shards = 2;
  options.retrain.want_threads = 2;
  return options;
}

RunResult RunEngine(const RunConfig& config) {
  const Scenario& scenario = SharedScenario();
  RunResult result;
  result.out_dir = ::testing::TempDir() + "/pnr_stream_" + config.tag;
  ::mkdir(result.out_dir.c_str(), 0755);

  ModelRegistry registry;
  auto base = ParsePnruleModel(scenario.base_model_text, scenario.schema);
  EXPECT_TRUE(base.ok()) << base.status().ToString();
  registry.Install("stream", scenario.schema, std::move(base).value());

  ThreadBudget budget(config.score_threads + 2);
  budget.Reserve(config.score_threads);

  StreamEngine engine(&scenario.schema, &registry, &budget,
                      MakeEngineOptions(scenario, config, result.out_dir));
  if (config.restore != nullptr) {
    const Status restored = engine.RestoreCheckpoint(*config.restore);
    EXPECT_TRUE(restored.ok()) << restored.ToString();
  }
  const Status started = engine.Start();
  EXPECT_TRUE(started.ok()) << started.ToString();

  const size_t limit = std::min(config.ingest_limit, scenario.feed.size());
  for (size_t i = 0; i < limit; ++i) {
    engine.Ingest(scenario.feed[i]);
    if (config.pump_every != 0 && (i + 1) % config.pump_every == 0) {
      const Status pumped = engine.Pump();
      EXPECT_TRUE(pumped.ok()) << pumped.ToString();
    }
  }
  Status pumped = engine.Pump();
  EXPECT_TRUE(pumped.ok()) << pumped.ToString();
  if (config.finish) {
    const Status finished = engine.FinishStream();
    EXPECT_TRUE(finished.ok()) << finished.ToString();
  }

  result.journal = engine.journal();
  result.history = engine.window_history();
  result.swaps = engine.swaps_done();
  result.windows = engine.windows_processed();
  result.model_version = engine.model_version();
  result.checkpoint = engine.MakeCheckpoint();
  if (config.write_checkpoint) {
    result.checkpoint_file = ReadFileOrEmpty(result.out_dir + "/ckpt");
  }
  result.retrained_model_text = ReadFileOrEmpty(engine.model_path());
  return result;
}

// The reference run every determinism test compares against: serial
// scoring, per-row pumping (the CLI's cadence), checkpoints on.
const RunResult& BaselineRun() {
  static const RunResult result = RunEngine(
      {.tag = "baseline", .score_threads = 1, .write_checkpoint = true});
  return result;
}

// The stale-model control: identical stream, retraining disabled.
const RunResult& NoRetrainRun() {
  static const RunResult result =
      RunEngine({.tag = "noretrain", .retrain_enabled = false});
  return result;
}

size_t CountLines(const std::vector<std::string>& journal,
                  const std::string& prefix) {
  size_t count = 0;
  for (const std::string& line : journal) {
    if (line.compare(0, prefix.size(), prefix) == 0) ++count;
  }
  return count;
}

void ExpectSameStats(const WindowStats& a, const WindowStats& b,
                     const char* what) {
  EXPECT_EQ(a.index, b.index) << what;
  EXPECT_EQ(a.first_ordinal, b.first_ordinal) << what;
  EXPECT_EQ(a.rows, b.rows) << what;
  EXPECT_EQ(a.labeled_rows, b.labeled_rows) << what;
  EXPECT_EQ(a.predicted_positive, b.predicted_positive) << what;
  EXPECT_EQ(a.labeled_positive, b.labeled_positive) << what;
  EXPECT_EQ(a.confusion.true_positives, b.confusion.true_positives) << what;
  EXPECT_EQ(a.confusion.false_positives, b.confusion.false_positives) << what;
  EXPECT_EQ(a.confusion.false_negatives, b.confusion.false_negatives) << what;
  EXPECT_EQ(a.score_histogram, b.score_histogram) << what;
  EXPECT_EQ(a.model_version, b.model_version) << what;
  EXPECT_EQ(a.partial, b.partial) << what;
}

TEST(StreamEngineTest, ScenarioTriggersExactlyOneRetrain) {
  const RunResult& run = BaselineRun();
  EXPECT_EQ(run.windows, (kPreRows + kPostRows) / kWindowRows);
  EXPECT_EQ(run.swaps, 1u);
  EXPECT_EQ(run.model_version, 2u);
  EXPECT_EQ(CountLines(run.journal, "retrain start"), 1u);
  EXPECT_EQ(CountLines(run.journal, "retrain done"), 1u);
  EXPECT_EQ(CountLines(run.journal, "swap "), 1u);
  EXPECT_EQ(CountLines(run.journal, "retrain failed"), 0u);
  EXPECT_FALSE(run.retrained_model_text.empty());

  // The confirming window must lie in the shifted half of the stream: the
  // pre-drift traffic never trips the detector.
  uint64_t swap_window = 0;
  for (const std::string& line : run.journal) {
    if (line.compare(0, 5, "swap ") == 0) {
      swap_window = std::strtoull(line.c_str() + line.find("window=") + 7,
                                  nullptr, 10);
    }
  }
  EXPECT_GE(swap_window, kPreRows / kWindowRows);
  // The retrained model parses against the schema (it is a real artifact,
  // not just bytes).
  EXPECT_TRUE(ParsePnruleModel(run.retrained_model_text,
                               SharedScenario().schema)
                  .ok());
}

TEST(StreamEngineTest, JournalAndModelAreByteIdenticalAcrossScoreThreads) {
  const RunResult& reference = BaselineRun();
  for (const size_t threads : {2u, 8u}) {
    const RunResult run =
        RunEngine({.tag = "threads" + std::to_string(threads),
                   .score_threads = threads});
    EXPECT_EQ(run.journal, reference.journal) << "threads=" << threads;
    EXPECT_EQ(run.retrained_model_text, reference.retrained_model_text)
        << "threads=" << threads;
    EXPECT_EQ(run.swaps, reference.swaps);
  }
}

TEST(StreamEngineTest, IngestPacingDoesNotChangeTheJournal) {
  const RunResult& reference = BaselineRun();
  // One giant backlog pumped once at the end vs per-row pumping: window
  // boundaries and swap points are stream positions, so the journals (and
  // model bytes) cannot differ.
  const RunResult backlog = RunEngine({.tag = "backlog", .pump_every = 0});
  EXPECT_EQ(backlog.journal, reference.journal);
  EXPECT_EQ(backlog.retrained_model_text, reference.retrained_model_text);
  const RunResult chunked = RunEngine({.tag = "chunked", .pump_every = 733});
  EXPECT_EQ(chunked.journal, reference.journal);
}

TEST(StreamEngineTest, RetrainedModelBeatsStaleModelOnShiftedTraffic) {
  const RunResult& retrained = BaselineRun();
  const RunResult& stale = NoRetrainRun();
  ASSERT_EQ(retrained.history.size(), stale.history.size());
  EXPECT_EQ(stale.swaps, 0u);
  EXPECT_EQ(CountLines(stale.journal, "retrain"), 0u);

  double swapped_recall = 0.0;
  double stale_recall = 0.0;
  size_t post_swap_windows = 0;
  for (size_t i = 0; i < retrained.history.size(); ++i) {
    const WindowStats& window = retrained.history[i];
    if (window.model_version < 2) {
      // Pre-swap windows are scored by the same model in both runs.
      ExpectSameStats(window, stale.history[i], "pre-swap window");
      continue;
    }
    ++post_swap_windows;
    swapped_recall += window.confusion.recall();
    stale_recall += stale.history[i].confusion.recall();
  }
  ASSERT_GE(post_swap_windows, 3u);
  // The acceptance bar: windowed recall on the shifted segment under the
  // swapped-in model strictly exceeds the stale model's. (Measured:
  // ~0.6-0.8 vs ~0.0-0.06 per window on this seed.)
  EXPECT_GT(swapped_recall, stale_recall);
  EXPECT_GT(swapped_recall / post_swap_windows, 0.3);
  EXPECT_LT(stale_recall / post_swap_windows, 0.2);
}

TEST(StreamEngineTest, FeedParserChainMatchesDirectIngest) {
  const Scenario& scenario = SharedScenario();
  const std::string out_dir = ::testing::TempDir() + "/pnr_stream_csvchain";
  ::mkdir(out_dir.c_str(), 0755);
  ModelRegistry registry;
  auto base = ParsePnruleModel(scenario.base_model_text, scenario.schema);
  ASSERT_TRUE(base.ok());
  registry.Install("stream", scenario.schema, std::move(base).value());
  ThreadBudget budget(3);
  budget.Reserve(1);
  RunConfig config{.tag = "csvchain"};
  StreamEngine engine(&scenario.schema, &registry, &budget,
                      MakeEngineOptions(scenario, config, out_dir));
  ASSERT_TRUE(engine.Start().ok());

  // Re-parse the feed bytes in ragged fragments (as tail polls would
  // deliver them), a Pump between each: transport timing must be invisible
  // in the journal.
  FeedParser parser(&scenario.schema, "chain");
  parser.set_row_fn([&](const ParsedRow& row) { engine.Ingest(row); });
  const std::string& bytes = scenario.feed_csv;
  for (size_t at = 0; at < bytes.size(); at += 37777) {
    parser.Append(std::string_view(bytes).substr(
        at, std::min<size_t>(37777, bytes.size() - at)));
    ASSERT_TRUE(engine.Pump().ok());
  }
  parser.Finish();
  ASSERT_TRUE(engine.FinishStream().ok());
  EXPECT_EQ(parser.error_count(), 0u);
  EXPECT_EQ(engine.journal(), BaselineRun().journal);
}

TEST(StreamEngineTest, FinalPartialWindowIsScoredAndJournaled) {
  // Cut mid-window: 6 full windows plus a 250-row remainder. No drift has
  // confirmed by then, so the run is cheap.
  const RunResult run = RunEngine({.tag = "partialwin",
                                   .ingest_limit = 6 * kWindowRows + 250});
  EXPECT_EQ(run.windows, 6u);
  EXPECT_EQ(run.swaps, 0u);
  ASSERT_EQ(run.history.size(), 7u);
  const WindowStats& last = run.history.back();
  EXPECT_TRUE(last.partial);
  EXPECT_EQ(last.rows, 250u);
  EXPECT_EQ(last.index, 6u);
  ASSERT_FALSE(run.journal.empty());
  EXPECT_NE(run.journal.back().find(" partial"), std::string::npos);
  // The final checkpoint records only complete windows.
  EXPECT_EQ(run.checkpoint.windows, 6u);
  EXPECT_EQ(run.checkpoint.rows, 6 * kWindowRows);
}

TEST(StreamEngineTest, CheckpointFileIsWrittenAndRestorable) {
  const RunResult& run = BaselineRun();
  ASSERT_FALSE(run.checkpoint_file.empty());
  auto parsed = ParseStreamCheckpoint(run.checkpoint_file);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeStreamCheckpoint(*parsed), run.checkpoint_file);
  EXPECT_EQ(parsed->windows, run.windows);
  EXPECT_EQ(parsed->rows, run.windows * kWindowRows);
  EXPECT_EQ(parsed->swaps, 1u);
  EXPECT_EQ(parsed->model_version, 2u);
  // The recorded model path is the retrained artifact, and the embedded
  // drift blob restores into a fresh detector.
  EXPECT_EQ(ReadFileOrEmpty(parsed->model_path), run.retrained_model_text);
  DriftDetector detector(&SharedScenario().schema, DriftOptions());
  EXPECT_TRUE(detector.Restore(parsed->drift_blob).ok());
}

TEST(StreamEngineTest, ResumeFromCheckpointMatchesUninterruptedRun) {
  const RunResult& full = BaselineRun();
  // Stop mid-stream, before the drift region: 7 complete windows.
  constexpr size_t kCut = 7 * kWindowRows;
  const RunResult partial = RunEngine(
      {.tag = "partial", .ingest_limit = kCut, .finish = false});
  ASSERT_EQ(partial.windows, 7u);
  ASSERT_EQ(partial.swaps, 0u);

  // The checkpoint round-trips through its text form, as it would on disk.
  const std::string text = SerializeStreamCheckpoint(partial.checkpoint);
  auto restored = ParseStreamCheckpoint(text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const RunResult resumed =
      RunEngine({.tag = "resumed", .restore = &*restored});
  EXPECT_EQ(resumed.windows, full.windows);
  EXPECT_EQ(resumed.swaps, full.swaps);
  EXPECT_EQ(resumed.retrained_model_text, full.retrained_model_text);

  // Window stats from the restore point onward are identical to the
  // uninterrupted run's (the sliding aggregate intentionally restarts
  // empty, so journal *window* lines may differ in slide_* early on —
  // WindowStats carries everything decision-relevant).
  ASSERT_EQ(resumed.history.size() + 7, full.history.size());
  for (size_t i = 0; i < resumed.history.size(); ++i) {
    ExpectSameStats(resumed.history[i], full.history[i + 7], "resumed");
  }
  // Drift decisions, retrain, and swap lines replay identically.
  const auto decisions = [](const std::vector<std::string>& journal) {
    std::vector<std::string> out;
    for (const std::string& line : journal) {
      if (line.compare(0, 7, "window ") != 0) out.push_back(line);
    }
    return out;
  };
  EXPECT_EQ(decisions(resumed.journal), decisions(full.journal));
}

TEST(StreamEngineTest, StartFailsWithoutAModel) {
  const Scenario& scenario = SharedScenario();
  ModelRegistry registry;  // empty
  ThreadBudget budget(2);
  RunConfig config{.tag = "nomodel"};
  const std::string out_dir = ::testing::TempDir();
  StreamEngine engine(&scenario.schema, &registry, &budget,
                      MakeEngineOptions(scenario, config, out_dir));
  const Status started = engine.Start();
  EXPECT_FALSE(started.ok());
  EXPECT_NE(started.message().find("no model named"), std::string::npos);
}

TEST(StreamEngineTest, RestoreRejectsMismatchedWindowSize) {
  const Scenario& scenario = SharedScenario();
  ModelRegistry registry;
  ThreadBudget budget(2);
  RunConfig config{.tag = "badrestore"};
  StreamEngine engine(&scenario.schema, &registry, &budget,
                      MakeEngineOptions(scenario, config, ::testing::TempDir()));
  StreamCheckpoint checkpoint;
  checkpoint.windows = 2;
  checkpoint.rows = 999;  // not 2 * kWindowRows: written with another --window
  checkpoint.model_path = "m.txt";
  const Status restored = engine.RestoreCheckpoint(checkpoint);
  EXPECT_FALSE(restored.ok());
  EXPECT_NE(restored.message().find("different --window"), std::string::npos);
}

}  // namespace
}  // namespace pnr
