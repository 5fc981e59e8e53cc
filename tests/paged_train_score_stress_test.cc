// Concurrent scoring-while-training over a demand-paged dataset — the
// situation `pnr stream` creates when a drift-triggered retrain runs with
// --max-resident-mb while the scoring path keeps serving windows.
//
// Scorer threads hammer their own ClonePagedView (each view pages columns
// in and out of the shared pager) while the main thread trains through
// another view under a ThreadBudget lease. TSan runs this via the
// `sanitize` label; the assertions pin the determinism side: concurrent
// paging must change neither the scores nor the trained model's bytes, and
// the budget's high-water mark must hold.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "data/shard_store.h"
#include "eval/batch.h"
#include "pnrule/model_io.h"
#include "pnrule/pnrule.h"
#include "synth/kdd_sim.h"

namespace pnr {
namespace {

TEST(PagedTrainScoreStressTest, ScoringStaysExactWhileTrainingPages) {
  KddSimParams params;
  params.train_records = 4000;
  params.test_records = 1000;
  params.seed = 1723;
  auto generated = GenerateKddSim(params);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const Dataset& in_ram = generated->train;
  const CategoryId target = in_ram.schema().class_attr().FindCategory("dos");
  ASSERT_NE(target, kInvalidCategory);

  // Reference artifacts from the plain in-RAM dataset.
  auto ref_model = PnruleLearner(PnruleConfig()).Train(in_ram, target);
  ASSERT_TRUE(ref_model.ok()) << ref_model.status().ToString();
  const std::string ref_bytes =
      SerializePnruleModel(*ref_model, in_ram.schema());
  std::vector<RowId> rows(in_ram.num_rows());
  for (RowId row = 0; row < in_ram.num_rows(); ++row) rows[row] = row;
  std::vector<double> ref_scores(rows.size(), 0.0);
  ref_model->ScoreBatch(in_ram, rows.data(), rows.size(), ref_scores.data());

  // The same rows behind a pager whose budget forces continuous eviction.
  ShardStoreWriteOptions write_options;
  write_options.num_shards = 4;
  auto bytes = SerializeShardStore(in_ram, write_options);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto reader =
      ShardStoreReader::OpenBuffer(std::move(bytes).value(), "stress.pns");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto paged = MakePagedDataset(*reader, (*reader)->column_bytes() / 8);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  // Scoring reserves its threads up front; training may only lease what is
  // left — the stream engine's arrangement.
  ThreadBudget budget(4);
  ASSERT_EQ(budget.Reserve(2), 2u);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> score_passes{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> scorer_evictions{0};
  std::vector<std::thread> scorers;
  for (int worker = 0; worker < 2; ++worker) {
    scorers.emplace_back([&, worker] {
      // Each scorer works a private view; the backing column pager is
      // shared with the training thread, so faults interleave.
      const Dataset view = paged->ClonePagedView();
      std::vector<double> scores(rows.size(), 0.0);
      while (!stop.load(std::memory_order_acquire)) {
        const size_t begin = worker == 0 ? 0 : rows.size() / 2;
        const size_t count = rows.size() / 2;
        ref_model->ScoreBatch(
            view, rows.data() + begin, count, scores.data() + begin,
            ClampOptionsForDataset(view, BatchScoreOptions()));
        for (size_t i = begin; i < begin + count; ++i) {
          if (scores[i] != ref_scores[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        score_passes.fetch_add(1, std::memory_order_relaxed);
      }
      scorer_evictions.fetch_add(view.column_evict_count(),
                                 std::memory_order_relaxed);
    });
  }

  // Train through the pager, repeatedly, while the scorers run — each
  // round restarts the fault/evict churn, widening the overlap window.
  const Dataset train_view = paged->ClonePagedView();
  ThreadBudget::Lease lease = budget.Acquire(2);
  PnruleConfig config;
  config.num_threads = lease.count();
  for (int round = 0; round < 3; ++round) {
    auto trained = PnruleLearner(config).Train(train_view, target);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    EXPECT_EQ(SerializePnruleModel(*trained, train_view.schema()), ref_bytes)
        << "round " << round;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& scorer : scorers) scorer.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(score_passes.load(), 0u);
  // Every view does its own residency bookkeeping; the capped budget must
  // have forced spills on both sides of the contention.
  EXPECT_GT(train_view.column_evict_count(), 0u)
      << "training never spilled under the budget";
  EXPECT_GT(scorer_evictions.load(), 0u)
      << "scoring never spilled under the budget";
  EXPECT_LE(budget.peak_in_use(), 4u);
}

}  // namespace
}  // namespace pnr
