// Golden RIPPER models: the exact bits of every rule's conditions and
// training stats, pinned at 1 and 4 threads, on kdd_sim r2l with unit
// weights, with stratified (fractional) weights, with NaN numerics and
// missing (`?`) categoricals, and on a demand-paged view. A last case pins
// IREP* pruning's prune-set sums, which change if the weights are added in
// any order but the prune list's.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "common/rng.h"
#include "data/weighting.h"
#include "ripper/optimize.h"
#include "ripper/ripper.h"
#include "synth/kdd_sim.h"
#include "test_util.h"

namespace pnr {
namespace {

const Dataset& KddTrain() {
  static const Dataset train = [] {
    KddSimParams params;
    params.train_records = 20000;
    params.test_records = 1000;
    params.seed = 13;
    auto generated = GenerateKddSim(params);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    return std::move(generated->train);
  }();
  return train;
}

CategoryId R2l() {
  return KddTrain().schema().class_attr().FindCategory("r2l");
}

Dataset Stratified() {
  Dataset weighted = KddTrain();
  weighted.SetAllWeights(StratifiedWeights(weighted, R2l()));
  return weighted;
}

// About one cell in twelve becomes NaN (numeric) or kInvalidCategory
// (categorical, what ingest stores for `?`).
Dataset WithMissing() {
  Dataset holed = KddTrain();
  Rng rng(5);
  const Schema& schema = holed.schema();
  for (RowId row = 0; row < holed.num_rows(); ++row) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (!rng.NextBool(1.0 / 12.0)) continue;
      const AttrIndex attr = static_cast<AttrIndex>(a);
      if (schema.attribute(attr).is_numeric()) {
        holed.set_numeric(row, attr, std::numeric_limits<double>::quiet_NaN());
      } else {
        holed.set_categorical(row, attr, kInvalidCategory);
      }
    }
  }
  return holed;
}

std::string Bits(const Rule& rule) {
  std::string out;
  char buf[128];
  for (const Condition& c : rule.conditions()) {
    std::snprintf(buf, sizeof(buf), "%d %d %d %a %a & ", c.attr,
                  static_cast<int>(c.op), c.category, c.lo, c.hi);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "| %a %a\n", rule.train_stats.covered,
                rule.train_stats.positive);
  return out + buf;
}

std::string TrainBits(const Dataset& dataset, size_t threads) {
  RipperConfig config;
  config.num_threads = threads;
  auto model = RipperLearner(config).Train(dataset, R2l());
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  std::string out;
  for (const Rule& rule : model->rules().rules()) out += Bits(rule);
  return out;
}

// One line per rule: each condition as "attr op category lo hi", then the
// rule's covered and positive training weight. Recorded from the
// row-at-a-time implementation that the coverage masks replaced.
constexpr const char* kUnitGolden =
    "8 2 -1 0x1.8p+0 0x0p+0 & "
    "6 0 0 0x0p+0 0x0p+0 & "
    "| 0x1.ap+4 0x1.3p+4\n"
    "9 1 -1 0x0p+0 0x1.6p+2 & "
    "4 2 -1 0x1.203ap+14 0x0p+0 & "
    "5 1 -1 0x0p+0 0x1.64p+10 & "
    "5 2 -1 0x1.01p+10 0x0p+0 & "
    "| 0x1.4p+3 0x1.4p+2\n"
    "9 1 -1 0x0p+0 0x1.6p+2 & "
    "10 1 -1 0x0p+0 0x1.6p+2 & "
    "5 1 -1 0x0p+0 0x1.6bep+11 & "
    "4 2 -1 0x1.3abp+11 0x0p+0 & "
    "5 2 -1 0x1.77ep+10 0x0p+0 & "
    "| 0x1.9p+4 0x1.2p+4\n";
constexpr const char* kStratifiedGolden =
    "9 1 -1 0x0p+0 0x1.6p+2 & "
    "10 1 -1 0x0p+0 0x1.6p+2 & "
    "| 0x1.4120000000003p+14 0x1.37a4000000003p+14\n";
constexpr const char* kMissingGolden =
    "9 1 -1 0x0p+0 0x1.2p+2 & "
    "8 2 -1 0x1.4p+1 0x0p+0 & "
    "| 0x1.2p+3 0x1.2p+3\n"
    "9 1 -1 0x0p+0 0x1.6p+2 & "
    "4 2 -1 0x1.1db8p+13 0x0p+0 & "
    "5 1 -1 0x0p+0 0x1.799p+11 & "
    "5 2 -1 0x1.08ep+10 0x0p+0 & "
    "10 1 -1 0x0p+0 0x1.4p+1 & "
    "0 1 -1 0x0p+0 0x1.4ap+7 & "
    "| 0x1.4p+3 0x1.4p+3\n"
    "9 1 -1 0x0p+0 0x1.6p+2 & "
    "10 1 -1 0x0p+0 0x1.6p+2 & "
    "5 1 -1 0x0p+0 0x1.6bep+11 & "
    "4 2 -1 0x1.347p+11 0x0p+0 & "
    "5 2 -1 0x1.01p+10 0x0p+0 & "
    "0 2 -1 0x1.b8p+4 0x0p+0 & "
    "| 0x1.4p+3 0x1p+3\n";
constexpr const char* kPruneGolden =
    "9 2 -1 0x1.66p+6 0x0p+0 & "
    "9 2 -1 0x1.81p+7 0x0p+0 & "
    "9 2 -1 0x1.afp+7 0x0p+0 & "
    "| 0x1.b864db3668201p+11 0x1.b864db3668201p+11\n";

TEST(RipperGoldenTest, UnitWeights) {
  for (size_t threads : {1, 4}) {
    EXPECT_EQ(TrainBits(KddTrain(), threads), kUnitGolden) << threads;
  }
}

// A demand-paged view holding less than one column trains the same model:
// every mask comes from a column sweep that faults its column in.
TEST(RipperGoldenTest, PagedViewTrainsTheSameModel) {
  const Dataset paged = testutil::PagedCopy(
      KddTrain(), KddTrain().num_rows() * sizeof(double) / 2);
  EXPECT_EQ(TrainBits(paged, 4), kUnitGolden);
}

TEST(RipperGoldenTest, StratifiedWeights) {
  const Dataset weighted = Stratified();
  for (size_t threads : {1, 4}) {
    EXPECT_EQ(TrainBits(weighted, threads), kStratifiedGolden) << threads;
  }
}

TEST(RipperGoldenTest, MissingCells) {
  const Dataset holed = WithMissing();
  for (size_t threads : {1, 4}) {
    EXPECT_EQ(TrainBits(holed, threads), kMissingGolden) << threads;
  }
}

// IREP* pruning on a shuffled prune set whose weights all differ: the
// returned rule's stats are the prune-set sums, taken in the list's order,
// and any other order rounds differently. The dos class gives a rule that
// covers thousands of prune rows.
TEST(RipperGoldenTest, PruneOnShuffledWeightedRows) {
  Dataset weighted = KddTrain();
  Rng rng(9);
  for (RowId row = 0; row < weighted.num_rows(); ++row) {
    weighted.set_weight(row, rng.NextDouble(0.5, 1.5));
  }
  const CategoryId dos = weighted.schema().class_attr().FindCategory("dos");
  const auto [grow_rows, prune_rows] = StratifiedSplitRows(
      weighted, weighted.AllRows(), dos, 2.0 / 3.0, &rng);
  ConditionSearchEngine engine(weighted, /*num_threads=*/1);
  const Rule grown = GrowRuleFoil(engine, grow_rows, dos, Rule());
  EXPECT_EQ(Bits(PruneRuleIrep(weighted, prune_rows, dos, grown)),
            kPruneGolden);
}

}  // namespace
}  // namespace pnr
