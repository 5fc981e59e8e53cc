#include "pnrule/multiclass.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "induction/condition_search.h"

namespace pnr {

MultiClassPnruleClassifier::MultiClassPnruleClassifier(
    std::vector<std::optional<PnruleClassifier>> models,
    std::vector<double> class_weights, CategoryId default_class)
    : models_(std::move(models)),
      class_weights_(std::move(class_weights)),
      default_class_(default_class) {
  if (class_weights_.empty()) {
    class_weights_.assign(models_.size(), 1.0);
  }
  assert(class_weights_.size() == models_.size());
  const RuleSet none;
  std::vector<const RuleSet*> lists;
  for (const auto& model : models_) {
    lists.push_back(model.has_value() ? &model->p_rules() : &none);
    lists.push_back(model.has_value() ? &model->n_rules() : &none);
  }
  program_ = CompiledRuleSet::Compile(lists);
}

double MultiClassPnruleClassifier::Score(const Dataset& dataset, RowId row,
                                         CategoryId cls) const {
  const size_t index = static_cast<size_t>(cls);
  if (index >= models_.size() || !models_[index].has_value()) return 0.0;
  return class_weights_[index] * models_[index]->Score(dataset, row);
}

CategoryId MultiClassPnruleClassifier::Classify(const Dataset& dataset,
                                                RowId row) const {
  CategoryId best = default_class_;
  double best_score = 0.0;
  for (size_t cls = 0; cls < models_.size(); ++cls) {
    const double score =
        Score(dataset, row, static_cast<CategoryId>(cls));
    if (score > best_score) {
      best_score = score;
      best = static_cast<CategoryId>(cls);
    }
  }
  return best;
}

void MultiClassPnruleClassifier::ClassifyBatch(
    const Dataset& dataset, const RowId* rows, size_t count, CategoryId* out,
    const BatchScoreOptions& options) const {
  ForEachRowBlock(count, ClampOptionsForDataset(dataset, options),
                  [&](size_t begin, size_t end) {
    const size_t n = end - begin;
    // thread_local so consecutive blocks on a worker reuse the buffers;
    // each is fully re-initialized per block, so reuse cannot perturb
    // predictions.
    thread_local CompiledRuleSet::Scratch scratch;
    thread_local std::vector<int32_t> p_first;
    thread_local std::vector<int32_t> n_first;
    thread_local std::vector<double> best;
    p_first.resize(n);
    n_first.resize(n);
    best.assign(n, 0.0);
    std::fill(out + begin, out + end, default_class_);
    program_.BeginBlock(dataset, rows + begin, n, &scratch);
    for (size_t cls = 0; cls < models_.size(); ++cls) {
      const double weight = class_weights_[cls];
      if (!models_[cls].has_value() || weight == 0.0) continue;
      program_.FirstMatchBlock(2 * cls, p_first.data(), &scratch);
      BitMask p_matched(n);
      for (size_t i = 0; i < n; ++i) {
        if (p_first[i] != kNoRule) p_matched.Set(i);
      }
      if (!p_matched.AnySet()) continue;
      program_.FirstMatchBlock(2 * cls + 1, n_first.data(), &scratch,
                               &p_matched);
      const PnruleClassifier& model = *models_[cls];
      p_matched.ForEachSet([&](size_t i) {
        const double score = weight * model.ScoreOf(p_first[i], n_first[i]);
        if (score > best[i]) {
          best[i] = score;
          out[begin + i] = static_cast<CategoryId>(cls);
        }
      });
    }
  });
}

const PnruleClassifier* MultiClassPnruleClassifier::model_for(
    CategoryId cls) const {
  const size_t index = static_cast<size_t>(cls);
  if (index >= models_.size() || !models_[index].has_value()) return nullptr;
  return &*models_[index];
}

MultiClassPnruleLearner::MultiClassPnruleLearner(PnruleConfig config)
    : config_(std::move(config)) {}

StatusOr<MultiClassPnruleClassifier> MultiClassPnruleLearner::Train(
    const Dataset& dataset, MultiClassTrainReport* report) const {
  Status status = config_.Validate();
  if (!status.ok()) return status;
  const size_t num_classes = dataset.schema().num_classes();
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least two classes");
  }
  if (!class_weights_.empty() && class_weights_.size() != num_classes) {
    return Status::InvalidArgument(
        "class_weights must match the number of classes");
  }
  for (const double weight : class_weights_) {
    if (!IsValidClassWeight(weight)) {
      return Status::InvalidArgument(
          "class weights must be finite and >= 0, got " +
          std::to_string(weight));
    }
  }

  MultiClassTrainReport local_report;
  MultiClassTrainReport& rep = report != nullptr ? *report : local_report;
  rep.classes.assign(num_classes, ClassTrainStatus{});
  rep.trained = 0;

  CategoryId majority = 0;
  size_t majority_count = 0;
  std::vector<size_t> trainable;
  for (size_t cls = 0; cls < num_classes; ++cls) {
    const CategoryId target = static_cast<CategoryId>(cls);
    ClassTrainStatus& entry = rep.classes[cls];
    entry.cls = target;
    entry.class_name = dataset.schema().class_attr().CategoryName(target);
    entry.rows = dataset.CountClass(target);
    if (entry.rows > majority_count) {
      majority_count = entry.rows;
      majority = target;
    }
    if (entry.rows == 0) {
      entry.status =
          Status::FailedPrecondition("class has no training examples");
    } else if (entry.rows == dataset.num_rows()) {
      entry.status =
          Status::FailedPrecondition("class covers every training row");
    } else {
      trainable.push_back(cls);
    }
  }

  std::vector<std::optional<PnruleClassifier>> models(num_classes);

  // Trains one class through `engine`, recording the outcome — model slot,
  // rule counts, or the learner's failure Status — in the class's report
  // entry. Every write is to per-class slots, so class tasks may run
  // concurrently.
  const auto train_class = [&](size_t cls, ConditionSearchEngine& engine) {
    ClassTrainStatus& entry = rep.classes[cls];
    Timer timer;
    PnruleTrainInfo info;
    PnruleLearner learner(config_);
    auto model =
        learner.TrainOnRows(engine, engine.dataset().AllRows(),
                            static_cast<CategoryId>(cls), &info);
    entry.train_seconds = timer.ElapsedSeconds();
    if (!model.ok()) {
      entry.status = model.status();  // committee falls back on this class
      return;
    }
    entry.status = Status::OK();
    entry.num_p_rules = info.num_p_rules;
    entry.num_n_rules = info.num_n_rules;
    models[cls] = std::move(model).value();
  };

  const size_t outer_width = std::min(
      ThreadPool::ResolveThreadCount(train_threads_), trainable.size());
  if (outer_width <= 1) {
    // Serial class loop, every class through one engine: each column is
    // sorted (or its codes copied) and read once for the whole committee,
    // and the inner thread pool is spun up once.
    ConditionSearchEngine engine(dataset, config_.num_threads,
                                 config_.search_cache_budget_bytes);
    for (size_t cls : trainable) train_class(cls, engine);
  } else {
    // Fan the class loop out. Each task builds its engine inside a loop
    // body, so the engine's pool spawns no workers (common/thread_pool.h):
    // searches run serially within a task and live threads stay at the
    // outer pool's workers plus the caller. The committee does not depend on this — each binary
    // learner is bit-identical at any thread count and writes only its
    // own slot.
    ThreadPool pool(outer_width);
    pool.ParallelFor(trainable.size(), [&](size_t t) {
      // One engine per task: tasks run concurrently and engine calls must
      // be serial.
      const auto train_on = [&](const Dataset& data) {
        ConditionSearchEngine engine(data, config_.num_threads,
                                     config_.search_cache_budget_bytes);
        train_class(trainable[t], engine);
      };
      // Concurrent learners on one demand-paged dataset would fight over a
      // single resident set (one task's fault evicting another's pinned-out
      // columns); give each task its own paged view of the shared store.
      if (dataset.paged()) {
        train_on(dataset.ClonePagedView());
      } else {
        train_on(dataset);
      }
    });
  }

  for (const auto& model : models) {
    if (model.has_value()) ++rep.trained;
  }
  if (rep.trained == 0) {
    return Status::FailedPrecondition("no class produced a trainable model");
  }
  return MultiClassPnruleClassifier(std::move(models), class_weights_,
                                    majority);
}

double MultiClassAccuracy(const MultiClassPnruleClassifier& classifier,
                          const Dataset& dataset,
                          const BatchScoreOptions& options) {
  if (dataset.num_rows() == 0) return 0.0;
  std::vector<RowId> rows(dataset.num_rows());
  std::iota(rows.begin(), rows.end(), RowId{0});
  std::vector<CategoryId> predicted(rows.size());
  classifier.ClassifyBatch(dataset, rows.data(), rows.size(),
                           predicted.data(), options);
  size_t correct = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (predicted[i] == dataset.label(rows[i])) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(dataset.num_rows());
}

}  // namespace pnr
