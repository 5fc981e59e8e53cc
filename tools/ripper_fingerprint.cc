// Prints the exact bits of RIPPER models trained on kdd_sim, so two builds
// of the library can be checked for byte-identical RIPPER training:
//
//   ripper_fingerprint 20010521 99 424242 > new.txt   # this build
//   (the same source built against another revision)  > old.txt
//   diff old.txt new.txt
//
// For each seed it generates 60000 training rows (the baselines workload's
// size) and trains RIPPER for every attack class, with unit weights and with
// the stratified "-we" weights, at 4 threads. Every rule is printed as its
// conditions (attr op category lo hi) and training stats, doubles in %a.
// The source uses only the public learner and generator API, so it builds
// unchanged against older revisions.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "data/weighting.h"
#include "ripper/ripper.h"
#include "synth/kdd_sim.h"

namespace {

using namespace pnr;

void PrintModel(const RipperClassifier& model) {
  for (const Rule& rule : model.rules().rules()) {
    for (const Condition& c : rule.conditions()) {
      std::printf("%d %d %d %a %a & ", c.attr, static_cast<int>(c.op),
                  c.category, c.lo, c.hi);
    }
    std::printf("| %a %a\n", rule.train_stats.covered,
                rule.train_stats.positive);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: ripper_fingerprint <kdd_sim seed>...\n");
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    KddSimParams params;
    params.train_records = 60000;
    params.test_records = 1000;
    params.seed = std::strtoull(argv[i], nullptr, 10);
    StatusOr<KddSimData> data = GenerateKddSim(params);
    if (!data.ok()) {
      std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
      return 1;
    }
    for (const char* name : {"dos", "probe", "r2l", "u2r"}) {
      const CategoryId target =
          data->train.schema().class_attr().FindCategory(name);
      Dataset train = data->train;
      for (bool stratified : {false, true}) {
        if (stratified) {
          train.SetAllWeights(StratifiedWeights(train, target));
        }
        RipperConfig config;
        config.num_threads = 4;
        StatusOr<RipperClassifier> model =
            RipperLearner(config).Train(train, target);
        if (!model.ok()) {
          std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
          return 1;
        }
        std::printf("seed %s class %s %s\n", argv[i], name,
                    stratified ? "stratified" : "unit");
        PrintModel(*model);
      }
    }
  }
  return 0;
}
