// The pnr CLI's flag table: every subcommand's flags declared once, with
// the parser and the usage renderer built on that one declaration.
//
// A flag has a name, a value type and one help line. ParseFlags turns a
// subcommand's argv into typed values and rejects a bad command line —
// an unknown flag, another subcommand's flag, a missing, malformed or
// out-of-range value, a repeated flag, a stray positional — with a
// "pnr <cmd>: ..." message before any work starts. UsageText renders the
// help screen from the same table, so it cannot drift from what the
// parser accepts. Handlers read typed values only; reading a flag their
// subcommand did not declare aborts, so a smoke run of each handler
// catches the mistake (tests/cli_usage_test.cc, tests/cli_smoke.sh).

#ifndef PNR_CLI_FLAGS_H_
#define PNR_CLI_FLAGS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace pnr::cli {

enum class FlagType {
  kSwitch,  ///< no value; present or absent
  kText,    ///< any string
  kReal,    ///< finite floating-point number
  kCount,   ///< whole number >= 0 (digits only, fits in 64 bits)
  kPort,    ///< TCP port, 0-65535
};

struct Flag {
  const char* name;  ///< without the leading "--"
  FlagType type;
  const char* help;  ///< one line
};

struct Command {
  const char* name;
  const char* summary;  ///< one line
  std::span<const Flag> flags;

  /// The declared flag called `name`, or nullptr.
  const Flag* Find(std::string_view name) const;
};

/// Every subcommand `pnr` dispatches, with its flags.
std::span<const Command> Commands();

/// The subcommand called `name`, or nullptr.
const Command* FindCommand(std::string_view name);

/// One subcommand's parsed command line.
class Flags {
 public:
  const Command& command() const { return *command_; }

  /// True when the command line set `name`. For a switch, its value.
  bool Has(std::string_view name) const;
  /// A text flag's value; empty when unset.
  const std::string& Text(std::string_view name) const;

  /// Overwrites `*out` when the command line set `name` and returns true;
  /// otherwise leaves the caller's default in place and returns false.
  /// The overload must match the declared type: text, real, count, port.
  bool Read(std::string_view name, std::string* out) const;
  bool Read(std::string_view name, double* out) const;
  bool Read(std::string_view name, uint64_t* out) const;
  bool Read(std::string_view name, uint16_t* out) const;

 private:
  friend StatusOr<Flags> ParseFlags(const Command& command,
                                    const std::vector<std::string>& args);
  struct Value {
    std::string text;
    double real = 0.0;
    uint64_t count = 0;
  };

  /// The value of a declared flag of type `type` (nullptr when unset);
  /// aborts on an undeclared name or a type mismatch.
  const Value* Find(std::string_view name, FlagType type) const;

  const Command* command_ = nullptr;
  std::map<std::string, Value, std::less<>> values_;
};

/// Parses `args` (the words after the subcommand name). Every error is an
/// InvalidArgument whose message starts with "pnr <cmd>: ".
StatusOr<Flags> ParseFlags(const Command& command,
                           const std::vector<std::string>& args);

/// The help screen for every subcommand.
std::string UsageText();
/// One subcommand's usage block.
std::string UsageText(const Command& command);

}  // namespace pnr::cli

#endif  // PNR_CLI_FLAGS_H_
