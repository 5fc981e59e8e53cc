// Hyperparameter configuration space for the tuning racer.
//
// A ConfigSpace is a small grid over the PNrule knobs the paper fixes by
// hand: rp / rn (the recall controls), the minimum rule support, the
// P-rule length cap, the rule-growth metric, and the ScoreMatrix decision
// threshold. Spaces come from a line-oriented config file
// (`pnr tune --config grid.cfg`):
//
//     # one key per line; values comma- or space-separated
//     rp        = 0.95, 0.99, 0.995
//     rn        = 0.7, 0.9, 0.95
//     max_p_len = 0, 1
//     metric    = z-number
//     threshold = 0.5
//
// or from Default(), the built-in 24-point grid the flagship sweep races.
//
// An `algorithm` line widens the race across learner families: each listed
// algorithm contributes its own sub-grid (PNrule trials sweep the rp/rn/...
// axes, CBA trials sweep the cba_* axes; `threshold` applies to both), so
// mined associative classifiers race PNrule head-to-head in one grid:
//
//     algorithm         = pnrule, cba
//     cba_support       = 0.01, 0.02
//     cba_class_support = 0.05
//     cba_conf          = 0.5, 0.7
//     cba_len           = 2, 3
//
// Parsing is an untrusted-input surface (config files are user-written and
// fuzzed — see fuzz/fuzz_targets.h): every rejection names the offending
// line, out-of-range values and unknown or duplicate keys are errors, and
// the enumerated grid is capped at kMaxConfigs so a hostile file cannot
// request a combinatorial explosion.

#ifndef PNR_TUNE_CONFIG_SPACE_H_
#define PNR_TUNE_CONFIG_SPACE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "assoc/miner.h"
#include "common/status.h"
#include "induction/metric.h"
#include "pnrule/config.h"

namespace pnr {

/// Learner family a trial trains.
enum class TuneAlgorithm { kPnrule, kCba };

/// One raced configuration: the learner family, its full config, and the
/// decision threshold applied to the trained classifier. Only the config of
/// the selected family is meaningful; the other keeps its defaults.
struct TrialConfig {
  TuneAlgorithm algorithm = TuneAlgorithm::kPnrule;
  PnruleConfig config;
  AssocMineOptions cba;
  double threshold = 0.5;

  /// Compact cell for report tables, e.g.
  /// "rp=.99 rn=.9 sup=.01 len=1 z-number thr=.5" or
  /// "cba sup=.01 csup=.05 conf=.5 len=3 thr=.5".
  std::string Describe() const;
};

/// A cartesian grid over the tunable PNrule parameters.
class ConfigSpace {
 public:
  /// Largest grid Enumerate will produce; Parse rejects bigger requests.
  static constexpr size_t kMaxConfigs = 4096;

  /// Parses a config-file's contents. Errors name the offending line
  /// ("tune config parse error at line 3: unknown key 'foo'").
  static StatusOr<ConfigSpace> Parse(std::string_view text);

  /// The built-in grid raced by the flagship sweep:
  /// rp {.95, .99, .995} x rn {.7, .9, .95, .995} x max_p_len {0, 1}.
  static ConfigSpace Default();

  /// Number of configurations in the grid (product of the value lists).
  size_t size() const;

  /// Expands the grid over `base` (every non-swept parameter keeps the
  /// base's value) in a fixed canonical order: algorithms in listed order,
  /// then per family — PNrule: rp outermost, then rn, min_support,
  /// max_p_len, metric, threshold; CBA: cba_support, cba_class_support,
  /// cba_conf, cba_len, threshold.
  std::vector<TrialConfig> Enumerate(const PnruleConfig& base) const;

 private:
  std::vector<TuneAlgorithm> algorithm_ = {TuneAlgorithm::kPnrule};
  std::vector<double> rp_ = {0.99};
  std::vector<double> rn_ = {0.9};
  std::vector<double> min_support_ = {0.01};
  std::vector<size_t> max_p_len_ = {0};
  std::vector<RuleMetricKind> metric_ = {RuleMetricKind::kZNumber};
  std::vector<double> threshold_ = {0.5};
  std::vector<double> cba_support_ = {0.01};
  std::vector<double> cba_class_support_ = {0.05};
  std::vector<double> cba_conf_ = {0.5};
  std::vector<size_t> cba_len_ = {3};
};

}  // namespace pnr

#endif  // PNR_TUNE_CONFIG_SPACE_H_
