#include "tune/racer.h"

#include <algorithm>
#include <cmath>

#include "assoc/cba.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"
#include "eval/stratified_cv.h"
#include "pnrule/pnrule.h"

namespace pnr {
namespace {

double MetricOf(const FoldEval& eval, TuneMetric metric) {
  switch (metric) {
    case TuneMetric::kRecall:
      return eval.recall;
    case TuneMetric::kPrecision:
      return eval.precision;
    case TuneMetric::kFMeasure:
      return eval.f_measure;
  }
  return 0.0;
}

// Recomputes a trial's objective statistics from its evaluated folds.
// Serial and index-ordered, so the doubles are identical on every run.
void UpdateStats(TrialState* trial, TuneMetric metric, double confidence_z) {
  const size_t n = trial->folds.size();
  if (n == 0) return;
  double sum = 0.0;
  for (const FoldEval& eval : trial->folds) sum += MetricOf(eval, metric);
  trial->mean = sum / static_cast<double>(n);
  double sq = 0.0;
  for (const FoldEval& eval : trial->folds) {
    const double d = MetricOf(eval, metric) - trial->mean;
    sq += d * d;
  }
  trial->stddev =
      n >= 2 ? std::sqrt(sq / static_cast<double>(n - 1)) : 0.0;
  // Empirical-Bernstein-style radius: the variance term shrinks as
  // sqrt(1/n) once dispersion is observed; the 0.5/n range term keeps
  // low-n estimates conservative (at n=1 no arm in a [0,1] metric can be
  // CB-eliminated at all, since the bounds always overlap).
  trial->radius =
      confidence_z > 0.0
          ? confidence_z * trial->stddev / std::sqrt(static_cast<double>(n)) +
                0.5 / static_cast<double>(n)
          : 0.0;
}

}  // namespace

const char* TuneMetricName(TuneMetric metric) {
  switch (metric) {
    case TuneMetric::kRecall:
      return "recall";
    case TuneMetric::kPrecision:
      return "precision";
    case TuneMetric::kFMeasure:
      return "f-measure";
  }
  return "unknown";
}

bool ParseTuneMetric(std::string_view text, TuneMetric* out) {
  if (text == "recall") {
    *out = TuneMetric::kRecall;
  } else if (text == "precision") {
    *out = TuneMetric::kPrecision;
  } else if (text == "f" || text == "f-measure") {
    *out = TuneMetric::kFMeasure;
  } else {
    return false;
  }
  return true;
}

StatusOr<std::unique_ptr<BinaryClassifier>> TrainTrialClassifier(
    const TrialConfig& trial, const Dataset& dataset, const RowSubset& rows,
    CategoryId target, size_t num_threads) {
  std::unique_ptr<BinaryClassifier> classifier;
  if (trial.algorithm == TuneAlgorithm::kCba) {
    AssocMineOptions options = trial.cba;
    options.num_threads = num_threads;
    auto mined = MineCba(dataset, rows, target, options);
    if (!mined.ok()) return mined.status();
    classifier =
        std::make_unique<AssocClassifier>(std::move(mined->model));
  } else {
    PnruleConfig config = trial.config;
    config.num_threads = num_threads;
    PnruleLearner learner(config);
    auto model = learner.TrainOnRows(dataset, rows, target);
    if (!model.ok()) return model.status();
    classifier =
        std::make_unique<PnruleClassifier>(std::move(model).value());
  }
  classifier->set_threshold(trial.threshold);
  return classifier;
}

Status RacerOptions::Validate() const {
  if (num_folds < 2) {
    return Status::InvalidArgument("num_folds must be at least 2");
  }
  if (keep_fraction <= 0.0 || keep_fraction > 1.0) {
    return Status::InvalidArgument("keep_fraction must be in (0, 1]");
  }
  return Status::OK();
}

std::vector<size_t> Racer::RungSchedule(size_t num_folds) {
  std::vector<size_t> schedule;
  for (size_t folds = 1; folds < num_folds; folds *= 2) {
    schedule.push_back(folds);
  }
  schedule.push_back(num_folds);
  return schedule;
}

StatusOr<RaceResult> Racer::RaceWithEval(
    const std::vector<TrialConfig>& configs, const TrialEvalFn& eval) const {
  Status valid = options_.Validate();
  if (!valid.ok()) return valid;
  if (configs.empty()) {
    return Status::InvalidArgument("no configurations to race");
  }
  if (options_.max_evals > 0 && options_.max_evals < configs.size()) {
    return Status::InvalidArgument(
        "max_evals (" + std::to_string(options_.max_evals) +
        ") cannot cover rung 0: " + std::to_string(configs.size()) +
        " configurations need one evaluation each");
  }

  RaceResult result;
  result.trials.resize(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    result.trials[i].config_index = i;
  }
  std::vector<size_t> alive(configs.size());
  for (size_t i = 0; i < alive.size(); ++i) alive[i] = i;

  const std::vector<size_t> schedule = RungSchedule(options_.num_folds);
  // One outer pool for the whole race, sized once: rung 0 is always the
  // widest rung (every config, one fold), so later rungs just leave some
  // workers idle rather than re-spawning.
  ThreadPool pool(std::min(
      ThreadPool::ResolveThreadCount(options_.num_threads), configs.size()));

  size_t folds_done = 0;
  for (size_t rung = 0; rung < schedule.size(); ++rung) {
    const size_t folds_target = schedule[rung];
    const size_t new_folds = folds_target - folds_done;
    const size_t cost = alive.size() * new_folds;
    if (options_.max_evals > 0 &&
        result.evals_used + cost > options_.max_evals) {
      result.budget_exhausted = true;
      break;
    }

    // Fan the rung's (config, fold) tasks out; slot-per-task writes plus
    // the index-ordered merge below keep the result thread-count-invariant.
    struct Task {
      size_t config_index;
      size_t fold;
    };
    std::vector<Task> tasks;
    tasks.reserve(cost);
    for (size_t index : alive) {
      for (size_t fold = folds_done; fold < folds_target; ++fold) {
        tasks.push_back({index, fold});
      }
    }
    std::vector<StatusOr<FoldEval>> evals(tasks.size(), Status::Internal(""));
    pool.ParallelFor(tasks.size(), [&](size_t t) {
      evals[t] = eval(configs[tasks[t].config_index], tasks[t].config_index,
                      tasks[t].fold);
    });
    for (size_t t = 0; t < tasks.size(); ++t) {
      if (!evals[t].ok()) return evals[t].status();
      result.trials[tasks[t].config_index].folds.push_back(*evals[t]);
    }
    result.evals_used += cost;
    folds_done = folds_target;

    RungSummary summary;
    summary.folds_cumulative = folds_target;
    summary.entrants = alive.size();
    summary.evals = cost;

    for (size_t index : alive) {
      UpdateStats(&result.trials[index], options_.metric,
                  options_.confidence_z);
    }

    // Confidence-bound elimination: drop arms whose upper bound cannot
    // reach the best arm's lower bound. Ties (equal bounds) survive, so an
    // all-ties race never eliminates anyone here.
    if (options_.confidence_z > 0.0 && alive.size() > 1) {
      double best_lower = -1.0;
      for (size_t index : alive) {
        best_lower = std::max(best_lower, result.trials[index].mean -
                                              result.trials[index].radius);
      }
      std::vector<size_t> survivors;
      survivors.reserve(alive.size());
      for (size_t index : alive) {
        const TrialState& trial = result.trials[index];
        if (trial.mean + trial.radius < best_lower) {
          result.trials[index].eliminated_at_rung = rung;
          ++summary.eliminated_bound;
        } else {
          survivors.push_back(index);
        }
      }
      alive.swap(survivors);
    }

    // Successive halving on every rung but the last: rank by mean (config
    // index breaks ties, so the order — and the artifact bytes — never
    // depend on sort internals) and keep the top share.
    const bool last_rung = rung + 1 == schedule.size();
    if (!last_rung && options_.keep_fraction < 1.0 && alive.size() > 1) {
      const size_t keep = std::max<size_t>(
          1, static_cast<size_t>(
                 std::ceil(static_cast<double>(alive.size()) *
                           options_.keep_fraction)));
      if (keep < alive.size()) {
        std::vector<size_t> ranked = alive;
        std::sort(ranked.begin(), ranked.end(), [&](size_t a, size_t b) {
          if (result.trials[a].mean != result.trials[b].mean) {
            return result.trials[a].mean > result.trials[b].mean;
          }
          return a < b;
        });
        ranked.resize(keep);
        std::sort(ranked.begin(), ranked.end());
        for (size_t index : alive) {
          if (!std::binary_search(ranked.begin(), ranked.end(), index)) {
            result.trials[index].eliminated_at_rung = rung;
            ++summary.eliminated_halving;
          }
        }
        alive.swap(ranked);
      }
    }

    result.rungs.push_back(summary);
    if (alive.size() == 1 && last_rung) break;
    if (alive.size() == 1) {
      // A lone survivor still finishes the remaining folds (the final
      // statistics should use all K), unless the budget says otherwise —
      // handled by the loop's own budget check on the next iteration.
      continue;
    }
  }

  // Winner: highest final mean among the never-eliminated, lowest config
  // index on ties.
  size_t best = alive.empty() ? 0 : alive[0];
  for (size_t index : alive) {
    if (result.trials[index].mean > result.trials[best].mean) best = index;
  }
  result.best_config = best;
  return result;
}

StatusOr<RaceResult> Racer::Race(
    const Dataset& dataset, CategoryId target,
    const std::vector<TrialConfig>& configs) const {
  StratifiedKFoldOptions fold_options;
  fold_options.num_folds = options_.num_folds;
  fold_options.seed = options_.seed;
  fold_options.num_threads = options_.num_threads;
  auto folds_or = StratifiedKFold::Split(dataset, fold_options);
  if (!folds_or.ok()) return folds_or.status();
  const StratifiedKFold folds = std::move(folds_or).value();

  // Materialize every fold's row subsets once; trainings share them
  // read-only across the race.
  std::vector<RowSubset> train_rows(options_.num_folds);
  std::vector<RowSubset> test_rows(options_.num_folds);
  for (size_t fold = 0; fold < options_.num_folds; ++fold) {
    train_rows[fold] = folds.TrainRows(fold);
    test_rows[fold] = folds.TestRows(fold);
  }

  // Every training runs inside a rung task, so its inner pools spawn no
  // workers (common/thread_pool.h) whatever num_threads says: live threads
  // never exceed the outer width. Results don't depend on it because
  // training is bit-identical at any thread count.
  TrialEvalFn eval = [this, &dataset, target, &train_rows, &test_rows](
                         const TrialConfig& trial, size_t /*config*/,
                         size_t fold) -> StatusOr<FoldEval> {
    auto classifier = TrainTrialClassifier(trial, dataset, train_rows[fold],
                                           target, options_.num_threads);
    if (!classifier.ok()) return classifier.status();
    BatchScoreOptions batch;
    batch.num_threads = options_.num_threads;
    const Confusion confusion = EvaluateClassifierOnRows(
        **classifier, dataset, test_rows[fold], target, batch);
    FoldEval result;
    result.recall = confusion.recall();
    result.precision = confusion.precision();
    result.f_measure = confusion.f_measure();
    return result;
  };
  return RaceWithEval(configs, eval);
}

}  // namespace pnr
