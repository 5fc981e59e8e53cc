#include "cli/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace pnr::cli {
namespace {

using enum FlagType;

// Flags several subcommands share, declared once.
constexpr Flag kData{"data", kText, "CSV or `pnr shard` file (sniffed)"};
constexpr Flag kTarget{"target", kText, "class value treated as positive"};
constexpr Flag kThreads{"threads", kCount,
                        "worker threads (0 = all cores); same output for all",
                        kMaxThreads};
constexpr Flag kClassColumn{"class-column", kText,
                            "CSV class column (default: the last)"};
constexpr Flag kResidentMb{"max-resident-mb", kReal,
                           "demand-page a shard-file input under this many MB"};
constexpr Flag kThreshold{"threshold", kReal, "positive when score >= this"};
constexpr Flag kSaveModel{"model", kText, "write model + .schema sidecar here"};
constexpr Flag kSeed{"seed", kCount, "random seed"};

constexpr Flag kTrainFlags[] = {
    kData, kTarget, kSaveModel,
    {"rp", kReal, "P-phase coverage of the target the P-rules must reach"},
    {"rn", kReal, "N-phase recall of the target the N-rules must keep"},
    {"min-support", kReal, "minimum P-rule support, fraction of the target"},
    {"p1", kSwitch, "P-rules of one condition only"},
    kThreads, kClassColumn,
    {"multiclass", kSwitch,
     "train a one-vs-rest committee over every class (no --target)"},
    {"train-threads", kCount,
     "committee class-loop workers; model identical for any value",
     kMaxThreads},
    {"max-resident-mb", kReal,
     "demand-page a shard-file input and cap the search cache (MB)"},
};

constexpr Flag kEvalFlags[] = {
    kData,
    {"target", kText, "class value treated as positive (not for a committee)"},
    {"model", kText,
     "PNrule, mined or one-vs-rest committee model (sniffed by header)"},
    kThreshold, kThreads, kClassColumn, kResidentMb,
};

constexpr Flag kPredictFlags[] = {
    kData,
    {"target", kText, "ignored: the model file fixes the class"},
    {"model", kText, "PNrule or mined model (sniffed by header)"},
    kThreshold, kThreads, kClassColumn, kResidentMb,
};

constexpr Flag kShardFlags[] = {
    kData,
    {"out", kText, "shard file to write"},
    {"shards", kCount, "shards to split the rows into (at most one per row)"},
    kThreads, kClassColumn, kResidentMb,
};

constexpr Flag kMineFlags[] = {
    kData, kTarget, kSaveModel,
    {"min-support", kReal, "global minimum itemset support, fraction of rows"},
    {"per-class-support", kReal,
     "minimum support within any one class, fraction of its rows"},
    {"min-conf", kReal, "minimum rule confidence"},
    {"min-lift", kReal, "minimum rule lift"},
    {"max-len", kCount, "most items per rule"},
    {"bins", kCount, "most bins per discretized numeric attribute"},
    kThreshold, kThreads, kClassColumn, kResidentMb,
};

constexpr Flag kServeFlags[] = {
    {"models", kText,
     "name=model.txt[,name2=other.txt]; a bare path is named after its file"},
    {"port", kPort, "TCP port on 127.0.0.1 (0 = any free port)"},
    {"shards", kCount, "reactor shards (0 = one per core)", kMaxThreads},
    {"max-batch", kCount, "most rows per micro-batch"},
    {"no-batching", kSwitch, "score each request on its own"},
};

constexpr Flag kProbeFlags[] = {
    {"port", kPort, "server port"},
    {"row", kText, "attr=value,... to score"},
    {"model", kText, "model name (default: the server's only model)"},
    {"schema", kText, "schema sidecar; --binary needs it"},
    {"binary", kSwitch, "send the compact binary frame instead of JSON"},
};

constexpr Flag kTuneFlags[] = {
    kData,
    {"synth", kText, "generate the data instead of --data (valid: kdd)"},
    {"synth-train", kCount, "generated training rows"},
    {"synth-test", kCount, "generated held-out rows"},
    kTarget,
    {"config", kText, "grid file (default: the built-in 24-point grid)"},
    {"folds", kCount, "stratified CV folds"},
    {"budget", kCount, "most (config, fold) evaluations; 0 = unlimited"},
    {"metric", kText, "race objective: recall, precision or f"},
    {"z", kReal, "confidence-bound multiplier; <= 0 turns bounds off"},
    {"keep", kReal, "fraction of configurations each halving rung keeps"},
    kSeed, kThreads,
    {"out", kText, "directory for EXPERIMENTS.md and BENCH_tune.json"},
    kClassColumn, kResidentMb,
};

constexpr Flag kStreamFlags[] = {
    {"data", kText, "feed CSV to replay or tail"},
    {"model", kText, "initial model; its .schema sidecar fixes the feed"},
    kTarget,
    {"out-dir", kText,
     "retrain output (default: stream_out); with --generate, the CSVs"},
    {"window", kCount, "rows per tumbling window"},
    {"sliding", kCount, "windows in the sliding aggregate"},
    kThreshold,
    {"threads", kCount, "scoring threads; journal identical for any value",
     kMaxThreads},
    {"train-threads", kCount, "threads a retrain may lease on top",
     kMaxThreads},
    {"min-support", kReal, "retrain minimum P-rule support"},
    {"max-resident-mb", kCount, "retrain snapshot paging budget in MB"},
    {"psi-threshold", kReal, "per-feature PSI drift trigger"},
    {"score-psi-threshold", kReal, "score-histogram PSI drift trigger"},
    {"label-psi-threshold", kReal, "positive-rate PSI drift trigger"},
    {"confirm-windows", kCount, "consecutive drifted windows that confirm"},
    {"reference-windows", kCount, "windows that build each reference"},
    {"retrain-rows", kCount, "trailing labeled rows per retrain"},
    {"no-retrain", kSwitch, "detect drift but never retrain"},
    {"max-swaps", kCount, "most model swaps (default: unlimited)"},
    {"checkpoint", kText, "checkpoint file to write"},
    {"resume", kSwitch, "resume from --checkpoint"},
    {"journal", kText, "also write the journal to this file"},
    {"follow", kSwitch, "keep tailing the feed until SIGTERM/SIGINT"},
    {"poll-ms", kCount, "--follow poll interval in milliseconds"},
    {"idle-exit-polls", kCount, "--follow exits after this many idle polls"},
    {"serve-port", kPort, "also serve the live model on this port"},
    {"serve-shards", kCount, "reactor shards of that server", kMaxThreads},
    {"model-name", kText, "registry name of the live model (default: stream)"},
    {"generate", kSwitch,
     "write a synthetic drift scenario (train.csv, feed.csv) to --out-dir"},
    {"train", kCount, "--generate: training rows"},
    {"pre", kCount, "--generate: feed rows before the drift"},
    {"post", kCount, "--generate: shifted feed rows after it"},
    kSeed,
};

constexpr Command kCommands[] = {
    {"train", "learn a PNrule model (or a one-vs-rest committee)",
     kTrainFlags},
    {"eval", "print recall, precision, F and ROC/PR-AUC of a model",
     kEvalFlags},
    {"predict", "print row,score,predicted for every row", kPredictFlags},
    {"shard", "rewrite --data as a compressed columnar shard file",
     kShardFlags},
    {"mine", "mine a CBA-style associative classifier", kMineFlags},
    {"serve", "serve models over HTTP and the binary protocol until SIGTERM",
     kServeFlags},
    {"probe", "send one predict request to a running server", kProbeFlags},
    {"tune", "race a hyperparameter grid over stratified CV", kTuneFlags},
    {"stream", "score a feed in windows, detect drift, retrain and swap",
     kStreamFlags},
};

// Usage placeholder and error wording of each FlagType, in enum order.
constexpr struct {
  const char* placeholder;
  const char* expects;
} kTypes[] = {
    {"", ""},
    {" <text>", ""},
    {" <real>", "a finite real number"},
    {" <count>", "a count (0, 1, 2, ...)"},
    {" <port>", "a port (0-65535)"},
};

// True when `text` is a valid value of `type`; stores the number.
bool ParseValue(FlagType type, const std::string& text, double* real,
                uint64_t* count) {
  if (type == kReal) return ParseDouble(text, real) && std::isfinite(*real);
  if (type != kCount && type != kPort) return true;
  // Digits only: from_chars takes no sign for an unsigned type, so "-1",
  // "+3", "2.7", "1e30" and anything past 2^64 - 1 all fail.
  const char* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, *count);
  return result.ec == std::errc() && result.ptr == end &&
         (type == kCount || *count <= 65535);
}

}  // namespace

const Flag* Command::Find(std::string_view name) const {
  for (const Flag& flag : flags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

std::span<const Command> Commands() { return kCommands; }

const Command* FindCommand(std::string_view name) {
  for (const Command& command : kCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

StatusOr<Flags> ParseFlags(const Command& command,
                           const std::vector<std::string>& args) {
  const std::string prefix = std::string("pnr ") + command.name + ": ";
  Flags flags;
  flags.command_ = &command;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument(prefix + "unexpected argument '" + arg +
                                     "' (flags start with --)");
    }
    const std::string name = arg.substr(2);
    const Flag* flag = command.Find(name);
    if (flag == nullptr) {
      std::string owners;
      for (const Command& other : kCommands) {
        if (other.Find(name) != nullptr) {
          owners += (owners.empty() ? "" : ", ") + std::string(other.name);
        }
      }
      return Status::InvalidArgument(
          prefix + (owners.empty() ? "unknown flag " + arg
                                   : arg + " is a flag of " + owners +
                                         ", not of " + command.name));
    }
    if (flags.values_.count(name) != 0) {
      return Status::InvalidArgument(prefix + arg + " given twice");
    }
    Flags::Value& value = flags.values_[name];
    if (flag->type == kSwitch) continue;
    if (i + 1 == args.size() || args[i + 1].rfind("--", 0) == 0) {
      return Status::InvalidArgument(prefix + arg + " needs a value");
    }
    value.text = args[++i];
    if (!ParseValue(flag->type, value.text, &value.real, &value.count)) {
      return Status::InvalidArgument(
          prefix + arg + " expects " +
          kTypes[static_cast<int>(flag->type)].expects + ", got '" +
          value.text + "'");
    }
    if (flag->type == kCount && value.count > flag->max) {
      return Status::InvalidArgument(
          prefix + arg + " expects a count of at most " +
          std::to_string(flag->max) + ", got '" + value.text + "'");
    }
  }
  return flags;
}

const Flags::Value* Flags::Find(std::string_view name, FlagType type) const {
  const Flag* flag = command_->Find(name);
  if (flag == nullptr || flag->type != type) {
    std::fprintf(stderr,
                 "pnr %s: reads --%.*s, which src/cli/flags.cc does not "
                 "declare for it with that type\n",
                 command_->name, static_cast<int>(name.size()), name.data());
    std::abort();
  }
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::Has(std::string_view name) const {
  const Flag* flag = command_->Find(name);
  return Find(name, flag == nullptr ? kSwitch : flag->type) != nullptr;
}

const std::string& Flags::Text(std::string_view name) const {
  static const std::string kEmpty;
  const Value* value = Find(name, kText);
  return value == nullptr ? kEmpty : value->text;
}

bool Flags::Read(std::string_view name, std::string* out) const {
  const Value* value = Find(name, kText);
  if (value != nullptr) *out = value->text;
  return value != nullptr;
}

bool Flags::Read(std::string_view name, double* out) const {
  const Value* value = Find(name, kReal);
  if (value != nullptr) *out = value->real;
  return value != nullptr;
}

bool Flags::Read(std::string_view name, uint64_t* out) const {
  const Value* value = Find(name, kCount);
  if (value != nullptr) *out = value->count;
  return value != nullptr;
}

bool Flags::Read(std::string_view name, uint16_t* out) const {
  const Value* value = Find(name, kPort);
  if (value != nullptr) *out = static_cast<uint16_t>(value->count);
  return value != nullptr;
}

std::string UsageText(const Command& command) {
  std::string text = std::string("pnr ") + command.name + " - " +
                     command.summary + "\n";
  for (const Flag& flag : command.flags) {
    std::string spec = std::string("--") + flag.name +
                       kTypes[static_cast<int>(flag.type)].placeholder;
    spec.resize(std::max<size_t>(spec.size(), 30), ' ');
    text += "  " + spec + " " + flag.help + "\n";
  }
  return text;
}

std::string UsageText() {
  std::string text =
      "usage: pnr <command> [--flag [value]]...\n"
      "A bad command line (unknown, repeated or malformed flag) exits 2.\n";
  for (const Command& command : kCommands) text += "\n" + UsageText(command);
  return text;
}

}  // namespace pnr::cli
