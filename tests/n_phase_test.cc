#include "pnrule/n_phase.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "induction/mdl.h"
#include "pnrule/p_phase.h"
#include "test_util.h"

namespace pnr {
namespace {

using testutil::kPos;
using testutil::MakeNumericDataset;
using testutil::PagedCopy;
using testutil::RuleSetDescriptionLength;

// x0 holds a single impure target peak around 5; x1 separates the false
// positives: negatives inside the peak sit in a narrow x1 band around 2,
// while positives are uniform on x1 — the paper's absence-signature setup.
Dataset AbsenceSignatureDataset(int pos, int neg_in_peak, int background) {
  Rng rng(202);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < pos; ++i) {
    rows.push_back(
        {{5.0 + rng.NextDouble(-0.05, 0.05), rng.NextDouble(0, 10)}, true});
  }
  for (int i = 0; i < neg_in_peak; ++i) {
    rows.push_back({{5.0 + rng.NextDouble(-0.05, 0.05),
                     2.0 + rng.NextDouble(-0.05, 0.05)},
                    false});
  }
  for (int i = 0; i < background; ++i) {
    rows.push_back({{rng.NextDouble(0, 10), rng.NextDouble(0, 10)}, false});
  }
  return MakeNumericDataset(2, rows);
}

PnruleConfig DefaultConfig() {
  PnruleConfig config;
  config.min_coverage_fraction = 0.99;
  config.n_recall_lower_limit = 0.9;
  config.min_support_fraction = 0.05;
  return config;
}

struct PhaseOutputs {
  PPhaseResult p;
  NPhaseResult n;
};

PhaseOutputs RunBothPhases(const Dataset& dataset,
                           const PnruleConfig& config) {
  PhaseOutputs out;
  out.p = RunPPhase(dataset, dataset.AllRows(), kPos, config);
  out.n = RunNPhase(dataset, out.p.covered_rows, kPos,
                    out.p.total_positive_weight,
                    out.p.covered_positive_weight, config);
  return out;
}

// Random weighted data with a noisy target band on x0, false positives
// inside it that x1..x2 or the categorical c separate, and label noise
// everywhere.
Dataset RandomBandDataset(uint64_t seed, size_t num_rows) {
  Schema schema;
  for (const char* name : {"x0", "x1", "x2"}) {
    schema.AddAttribute(Attribute::Numeric(name));
  }
  schema.AddAttribute(Attribute::Categorical("c", {"a", "b", "c", "d"}));
  schema.GetOrAddClass("neg");
  schema.GetOrAddClass("pos");
  Dataset dataset(std::move(schema));
  Rng rng(seed);
  const double lo = rng.NextDouble(1, 6);
  const double width = rng.NextDouble(1, 3);
  const double veto = rng.NextDouble(1, 4);
  for (size_t i = 0; i < num_rows; ++i) {
    const RowId r = dataset.AddRow();
    double x[3];
    for (int a = 0; a < 3; ++a) {
      x[a] = std::floor(rng.NextDouble(0, 10) * 8) / 8;  // ties
      dataset.set_numeric(r, static_cast<AttrIndex>(a), x[a]);
    }
    const CategoryId c = static_cast<CategoryId>(rng.NextBelow(4));
    dataset.set_categorical(r, 3, c);
    const bool band = x[0] >= lo && x[0] <= lo + width;
    const bool vetoed = x[1] < veto || x[2] > 10 - veto || c == 3;
    const bool positive = band && !vetoed ? !rng.NextBool(0.1)
                                          : rng.NextBool(0.02);
    dataset.set_label(r, positive ? kPos : 0);
    // Arbitrary weights make the float sums order-sensitive.
    dataset.set_weight(r, rng.NextDouble(0.5, 2.5));
  }
  return dataset;
}

// The N-phase's MDL stop codes the exceptions from the rows it keeps
// uncovered; at every step — the one the MDL window rejects included —
// that must be bit-for-bit RuleSetDescriptionLength's re-evaluation of the
// rule set, in RAM and on a demand-paged view.
TEST(NPhaseTest, MdlStopMatchesRuleSetDescriptionLength) {
  size_t rejections = 0;
  size_t steps = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Dataset in_ram = RandomBandDataset(seed, 1500);
    // Less than one column resident: every column switch is a fault.
    const Dataset paged =
        PagedCopy(in_ram, in_ram.num_rows() * sizeof(double) / 2);
    for (const Dataset* data : {&in_ram, &paged}) {
      for (double window : {64.0, 2.0}) {
        PnruleConfig config = DefaultConfig();
        config.mdl_window_bits = window;
        const PhaseOutputs out = RunBothPhases(*data, config);
        std::vector<Rule> added = out.n.rules.rules();
        if (out.n.rejected_rule.has_value()) {
          added.push_back(*out.n.rejected_rule);
          ++rejections;
        }
        ASSERT_EQ(out.n.description_lengths.size(), added.size() + 1)
            << "seed " << seed << " window " << window;
        const double possible = CountPossibleConditions(*data);
        RuleSet prefix;
        for (size_t i = 0; i <= added.size(); ++i) {
          if (i > 0) prefix.AddRule(added[i - 1]);
          // The oracle matches row by row, so it reads the in-RAM copy of
          // the paged view's cells.
          const double expected = RuleSetDescriptionLength(
              in_ram, out.p.covered_rows, kPos, prefix, possible, -1.0,
              /*invert_target=*/true);
          EXPECT_EQ(out.n.description_lengths[i], expected)
              << "seed " << seed << " window " << window << " step " << i
              << (data->paged() ? " paged" : " in RAM");
          ++steps;
        }
      }
    }
  }
  EXPECT_GT(rejections, 0u) << "no run reached the MDL window";
  EXPECT_GT(steps, 24u);
}

TEST(NPhaseTest, LearnsAbsenceSignature) {
  const Dataset dataset = AbsenceSignatureDataset(60, 30, 500);
  const PhaseOutputs out = RunBothPhases(dataset, DefaultConfig());
  ASSERT_FALSE(out.p.rules.empty());
  ASSERT_FALSE(out.n.rules.empty());
  // The N-rules should remove most covered negatives (the x1 ~ 2 band)
  // while erasing few positives.
  double removed_negatives = 0.0;
  for (const Rule& rule : out.n.rules.rules()) {
    removed_negatives += rule.train_stats.positive;  // pseudo-target
  }
  const double covered_negatives =
      dataset.TotalWeight(out.p.covered_rows) -
      out.p.covered_positive_weight;
  EXPECT_GT(removed_negatives, 0.7 * covered_negatives);
  EXPECT_LT(out.n.erased_positive_weight,
            0.1 * out.p.covered_positive_weight + 1e-9);
}

TEST(NPhaseTest, RespectsRecallFloor) {
  const Dataset dataset = AbsenceSignatureDataset(60, 30, 500);
  PnruleConfig config = DefaultConfig();
  config.n_recall_lower_limit = 0.95;
  const PhaseOutputs out = RunBothPhases(dataset, config);
  const double kept = out.p.covered_positive_weight -
                      out.n.erased_positive_weight;
  EXPECT_GE(kept / out.p.total_positive_weight, 0.95 - 1e-9);
}

TEST(NPhaseTest, NoFalsePositivesMeansNoNRules) {
  // Pure target peak: the P-rule covers no negatives, so there is nothing
  // for the N-phase to do.
  Rng rng(7);
  std::vector<std::pair<std::vector<double>, bool>> rows;
  for (int i = 0; i < 50; ++i) {
    rows.push_back(
        {{5.0 + rng.NextDouble(-0.01, 0.01), rng.NextDouble(0, 10)}, true});
  }
  for (int i = 0; i < 500; ++i) {
    const double x = rng.NextDouble(0, 10);
    if (x > 4.8 && x < 5.2) continue;  // keep the peak pure
    rows.push_back({{x, rng.NextDouble(0, 10)}, false});
  }
  const Dataset dataset = MakeNumericDataset(2, rows);
  const PhaseOutputs out = RunBothPhases(dataset, DefaultConfig());
  EXPECT_TRUE(out.n.rules.empty());
  EXPECT_DOUBLE_EQ(out.n.erased_positive_weight, 0.0);
}

TEST(NPhaseTest, EmptyCoverageYieldsNothing) {
  const Dataset dataset = AbsenceSignatureDataset(10, 5, 50);
  const NPhaseResult result =
      RunNPhase(dataset, {}, kPos, 10.0, 0.0, DefaultConfig());
  EXPECT_TRUE(result.rules.empty());
}

TEST(NPhaseTest, DisabledWithZeroCap) {
  const Dataset dataset = AbsenceSignatureDataset(60, 30, 500);
  PnruleConfig config = DefaultConfig();
  config.max_n_rules = 0;
  const PhaseOutputs out = RunBothPhases(dataset, config);
  EXPECT_TRUE(out.n.rules.empty());
}

TEST(NPhaseTest, NRuleStatsUsePseudoTarget) {
  const Dataset dataset = AbsenceSignatureDataset(60, 30, 500);
  const PhaseOutputs out = RunBothPhases(dataset, DefaultConfig());
  for (const Rule& rule : out.n.rules.rules()) {
    // positive (pseudo-target = absence) never exceeds coverage.
    EXPECT_LE(rule.train_stats.positive, rule.train_stats.covered + 1e-9);
    EXPECT_GT(rule.train_stats.positive, 0.0);
  }
}


TEST(NPhaseTest, UnreachableRecallFloorDoesNotGrowMonsterRules) {
  // Regression: when the P-phase coverage already sits below rn, the
  // forced-refinement guard must not grow unbounded rules (which used to
  // explode the MDL and kill the phase).
  const Dataset dataset = AbsenceSignatureDataset(60, 30, 500);
  PnruleConfig config = DefaultConfig();
  config.n_recall_lower_limit = 1.0;  // unreachable: any erasure violates
  const PhaseOutputs out = RunBothPhases(dataset, config);
  for (const Rule& rule : out.n.rules.rules()) {
    EXPECT_LE(rule.size(), 12u) << rule.ToString(dataset.schema());
  }
}

}  // namespace
}  // namespace pnr
