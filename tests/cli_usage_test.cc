// The pnr flag table (cli/flags.h) is the one place the CLI's flags are
// declared, so these tests hold everything else against it: every flag
// parses with a valid value, every bad command line is rejected with a
// "pnr <cmd>:" message, the usage text lists exactly the table's flags,
// and every `pnr ...` invocation in README.md and docs/API.md parses.

#include "cli/flags.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/file_io.h"
#include "common/string_util.h"

namespace pnr::cli {
namespace {

// A value `flag` accepts, for a count its largest (empty for a switch).
std::string ValidValue(const Flag& flag) {
  switch (flag.type) {
    case FlagType::kSwitch: return "";
    case FlagType::kText: return "some text";
    case FlagType::kReal: return "-0.25";
    case FlagType::kCount: return std::to_string(flag.max);
    case FlagType::kPort: return "65535";
  }
  return "";
}

std::vector<std::string> Words(const Flag& flag) {
  std::vector<std::string> words = {std::string("--") + flag.name};
  if (flag.type != FlagType::kSwitch) words.push_back(ValidValue(flag));
  return words;
}

TEST(CliFlagsTest, CommandsAndFlagsAreUnique) {
  std::set<std::string> commands;
  for (const Command& command : Commands()) {
    EXPECT_TRUE(commands.insert(command.name).second) << command.name;
    EXPECT_EQ(FindCommand(command.name), &command);
    std::set<std::string> flags;
    for (const Flag& flag : command.flags) {
      EXPECT_TRUE(flags.insert(flag.name).second)
          << command.name << " declares --" << flag.name << " twice";
      EXPECT_NE(std::string(flag.help), "") << flag.name;
    }
  }
  EXPECT_EQ(FindCommand("nope"), nullptr);
}

TEST(CliFlagsTest, EveryDeclaredFlagParsesAndReadsBackTyped) {
  for (const Command& command : Commands()) {
    std::vector<std::string> all;
    for (const Flag& flag : command.flags) {
      const std::vector<std::string> words = Words(flag);
      all.insert(all.end(), words.begin(), words.end());
      auto parsed = ParseFlags(command, words);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_TRUE(parsed->Has(flag.name)) << command.name << " " << flag.name;
      switch (flag.type) {
        case FlagType::kSwitch:
          break;
        case FlagType::kText:
          EXPECT_EQ(parsed->Text(flag.name), "some text");
          break;
        case FlagType::kReal: {
          double value = 0.0;
          EXPECT_TRUE(parsed->Read(flag.name, &value));
          EXPECT_EQ(value, -0.25);
          break;
        }
        case FlagType::kCount: {
          uint64_t value = 0;
          EXPECT_TRUE(parsed->Read(flag.name, &value));
          EXPECT_EQ(value, flag.max);
          break;
        }
        case FlagType::kPort: {
          uint16_t value = 0;
          EXPECT_TRUE(parsed->Read(flag.name, &value));
          EXPECT_EQ(value, 65535);
          break;
        }
      }
    }
    EXPECT_TRUE(ParseFlags(command, all).ok()) << command.name;
  }
}

TEST(CliFlagsTest, UnsetFlagsKeepTheCallersDefault) {
  auto parsed = ParseFlags(*FindCommand("stream"), {});
  ASSERT_TRUE(parsed.ok());
  uint64_t window = 1000;
  double threshold = 0.5;
  uint16_t port = 8080;
  std::string dir = "stream_out";
  EXPECT_FALSE(parsed->Read("window", &window));
  EXPECT_FALSE(parsed->Read("threshold", &threshold));
  EXPECT_FALSE(parsed->Read("serve-port", &port));
  EXPECT_FALSE(parsed->Read("out-dir", &dir));
  EXPECT_EQ(window, 1000u);
  EXPECT_EQ(threshold, 0.5);
  EXPECT_EQ(port, 8080);
  EXPECT_EQ(dir, "stream_out");
  EXPECT_FALSE(parsed->Has("follow"));
  EXPECT_EQ(parsed->Text("journal"), "");
}

// `args` must be rejected with a message that starts "pnr <cmd>: " and
// contains `expected`.
void ExpectRejected(const char* cmd, const std::vector<std::string>& args,
                    const std::string& expected) {
  const std::string shown = cmd + (" " + JoinStrings(args, " "));
  auto parsed = ParseFlags(*FindCommand(cmd), args);
  ASSERT_FALSE(parsed.ok()) << shown;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << shown;
  const std::string message = parsed.status().message();
  EXPECT_EQ(message.rfind(std::string("pnr ") + cmd + ": ", 0), 0u)
      << shown << " -> " << message;
  EXPECT_NE(message.find(expected), std::string::npos)
      << shown << " -> " << message;
}

TEST(CliFlagsTest, RejectsUnknownForeignMissingAndRepeatedFlags) {
  ExpectRejected("train", {"--rpp", "0.5"}, "unknown flag --rpp");
  ExpectRejected("train", {"--rp=0.5"}, "unknown flag --rp=0.5");
  ExpectRejected("train", {"--folds", "3"}, "--folds is a flag of tune");
  ExpectRejected("eval", {"--multiclass"}, "--multiclass is a flag of train");
  ExpectRejected("train", {"--model"}, "--model needs a value");
  ExpectRejected("train", {"--model", "--rp", "0.5"}, "--model needs a value");
  ExpectRejected("train", {"--rp", "0.5", "--rp", "0.6"}, "--rp given twice");
  ExpectRejected("train", {"--p1", "--p1"}, "--p1 given twice");
  ExpectRejected("train", {"--p1", "yes"}, "unexpected argument 'yes'");
  ExpectRejected("train", {"data.csv"}, "unexpected argument 'data.csv'");
}

TEST(CliFlagsTest, RejectsMalformedValuesOfEveryTypedFlag) {
  for (const Command& command : Commands()) {
    for (const Flag& flag : command.flags) {
      const std::string name = std::string("--") + flag.name;
      std::vector<std::string> bad;
      std::string expected;
      switch (flag.type) {
        case FlagType::kSwitch:
        case FlagType::kText:
          continue;
        case FlagType::kReal:
          bad = {"abc", "", "0.5x", "nan", "inf", "1e999"};
          expected = "expects a finite real number";
          break;
        case FlagType::kCount:
          bad = {"-1", "2.7", "1e30", "abc", "", "+3", " 3",
                 "18446744073709551616"};
          expected = "expects a count";
          break;
        case FlagType::kPort:
          bad = {"70000", "65536", "-1", "abc", "80.5", ""};
          expected = "expects a port";
          break;
      }
      for (const std::string& value : bad) {
        ExpectRejected(command.name, {name, value}, name + " " + expected);
      }
    }
  }
}

// Flags that size a set of threads stop at kMaxThreads; every other count
// takes any 64-bit value. Parsing alone decides this, so no thread starts.
TEST(CliFlagsTest, ThreadCountFlagsStopAtTheCeiling) {
  const std::vector<std::pair<const char*, const char*>> bounded = {
      {"train", "--threads"},        {"train", "--train-threads"},
      {"eval", "--threads"},         {"predict", "--threads"},
      {"shard", "--threads"},        {"mine", "--threads"},
      {"tune", "--threads"},         {"serve", "--shards"},
      {"stream", "--threads"},       {"stream", "--train-threads"},
      {"stream", "--serve-shards"},
  };
  for (const auto& [cmd, name] : bounded) {
    EXPECT_TRUE(ParseFlags(*FindCommand(cmd), {name, "1024"}).ok())
        << cmd << " " << name;
    ExpectRejected(cmd, {name, "1025"},
                   std::string(name) + " expects a count of at most 1024, "
                                       "got '1025'");
    ExpectRejected(cmd, {name, "18446744073709551615"}, "at most 1024");
  }
  EXPECT_EQ(kMaxThreads, 1024u);
  size_t bounded_in_table = 0;
  for (const Command& command : Commands()) {
    for (const Flag& flag : command.flags) {
      if (flag.max != UINT64_MAX) ++bounded_in_table;
    }
  }
  EXPECT_EQ(bounded_in_table, bounded.size());
  // `pnr shard --shards` counts file shards, not threads.
  EXPECT_TRUE(ParseFlags(*FindCommand("shard"), {"--shards", "100000"}).ok());
}

// Reading a flag the subcommand did not declare, or with the wrong type,
// is a programming error in a handler: it aborts instead of quietly
// returning a fallback.
TEST(CliFlagsDeathTest, UndeclaredOrMistypedReadAborts) {
  auto parsed = ParseFlags(*FindCommand("train"), {});
  ASSERT_TRUE(parsed.ok());
  EXPECT_DEATH(parsed->Has("folds"), "does not declare");
  uint64_t count = 0;
  EXPECT_DEATH(parsed->Read("rp", &count), "does not declare");
  EXPECT_DEATH(parsed->Text("threads"), "does not declare");
}

// The flag names one usage block lists, in order.
std::vector<std::string> ListedFlags(const std::string& block) {
  std::vector<std::string> names;
  for (const std::string& line : SplitString(block, '\n')) {
    if (line.rfind("  --", 0) != 0) continue;
    const size_t end = line.find(' ', 4);
    names.push_back(line.substr(4, end - 4));
  }
  return names;
}

TEST(CliUsageTest, UsageListsExactlyTheTablesFlags) {
  const std::string usage = UsageText();
  for (const Command& command : Commands()) {
    const std::string block = UsageText(command);
    EXPECT_NE(usage.find(block), std::string::npos) << command.name;
    EXPECT_EQ(block.rfind(std::string("pnr ") + command.name + " - ", 0), 0u);
    std::vector<std::string> declared;
    for (const Flag& flag : command.flags) declared.push_back(flag.name);
    EXPECT_EQ(ListedFlags(block), declared) << command.name;
  }
}

// Splits a shell line into words, honouring single and double quotes.
std::vector<std::string> ShellWords(const std::string& line) {
  std::vector<std::string> words;
  std::string word;
  bool in_word = false;
  char quote = 0;
  for (const char c : line) {
    if (quote != 0) {
      if (c == quote) {
        quote = 0;
      } else {
        word += c;
      }
    } else if (c == '"' || c == '\'') {
      quote = c;
      in_word = true;
    } else if (c == ' ' || c == '\t') {
      if (in_word) words.push_back(word);
      word.clear();
      in_word = false;
    } else {
      word += c;
      in_word = true;
    }
  }
  if (in_word) words.push_back(word);
  return words;
}

bool EndsCommand(const std::string& word) {
  return word == "|" || word == "&&" || word == "&" || word == ";" ||
         word[0] == '#' || word[0] == '>' || word.rfind("2>", 0) == 0;
}

// Every `pnr <cmd> ...` in `text`: the runnable lines of fenced code blocks
// (backslash continuations joined) and inline code spans.
std::vector<std::string> Invocations(const std::string& text) {
  std::vector<std::string> lines;
  bool fenced = false;
  std::string pending;
  for (const std::string& raw : SplitString(text, '\n')) {
    if (raw.rfind("```", 0) == 0) {
      fenced = !fenced;
      continue;
    }
    if (fenced) {
      pending += raw;
      if (!pending.empty() && pending.back() == '\\') {
        pending.pop_back();
        continue;
      }
      lines.push_back(pending);
      pending.clear();
      continue;
    }
    for (size_t at = raw.find("`pnr "); at != std::string::npos;
         at = raw.find("`pnr ", at + 1)) {
      const size_t end = raw.find('`', at + 1);
      if (end != std::string::npos) {
        lines.push_back(raw.substr(at + 1, end - at - 1));
      }
    }
  }
  std::vector<std::string> invocations;
  for (const std::string& line : lines) {
    const std::vector<std::string> words = ShellWords(line);
    for (size_t i = 0; i < words.size(); ++i) {
      if (words[i] != "pnr" && !words[i].ends_with("/pnr")) continue;
      std::string invocation = "pnr";
      for (++i; i < words.size() && !EndsCommand(words[i]); ++i) {
        invocation += " " + words[i];
      }
      invocations.push_back(invocation);
    }
  }
  return invocations;
}

// A synopsis such as `pnr train/eval/predict --threads <n>` or
// `pnr shard ... [--shards n]` is checked by flag name only; a runnable
// line must parse as written.
void ExpectParses(const std::string& invocation) {
  const std::vector<std::string> words = ShellWords(invocation);
  ASSERT_GE(words.size(), 2u) << invocation;
  const bool synopsis = invocation.find_first_of("<[") != std::string::npos ||
                        words[1].find('/') != std::string::npos;
  for (const std::string& name : SplitString(words[1], '/')) {
    const Command* command = FindCommand(name);
    ASSERT_NE(command, nullptr) << invocation;
    if (!synopsis) {
      const std::vector<std::string> args(words.begin() + 2, words.end());
      auto parsed = ParseFlags(*command, args);
      EXPECT_TRUE(parsed.ok())
          << invocation << " -> " << parsed.status().ToString();
      continue;
    }
    for (size_t i = 2; i < words.size(); ++i) {
      std::string word = words[i];
      if (word.rfind("[--", 0) == 0) word = word.substr(1);
      if (word.rfind("--", 0) != 0) continue;
      while (!word.empty() && word.back() == ']') word.pop_back();
      EXPECT_NE(command->Find(word.substr(2)), nullptr)
          << invocation << ": " << word << " is not a " << name << " flag";
    }
  }
}

TEST(CliUsageTest, DocumentedInvocationsParse) {
  size_t checked = 0;
  for (const char* doc : {"README.md", "docs/API.md"}) {
    auto text = ReadFileToString(std::string(PNR_SOURCE_DIR) + "/" + doc);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    for (const std::string& invocation : Invocations(*text)) {
      SCOPED_TRACE(doc);
      ExpectParses(invocation);
      ++checked;
    }
  }
  // The docs show every subcommand; far fewer means extraction broke.
  EXPECT_GE(checked, 30u);
}

}  // namespace
}  // namespace pnr::cli
