#include "tune/config_space.h"

#include <algorithm>

#include "common/line_format.h"
#include "common/string_util.h"

namespace pnr {
namespace {

// Parse-time representation of one `key = values` line.
struct ParsedLine {
  std::string key;
  std::vector<std::string> values;
};

// Splits the value list on commas and whitespace; never yields empties.
std::vector<std::string> SplitValues(std::string_view text) {
  std::vector<std::string> values;
  std::string current;
  for (char c : text) {
    if (c == ',' || c == ' ' || c == '\t' || c == '\r') {
      if (!current.empty()) values.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) values.push_back(std::move(current));
  return values;
}

Status ParseDoubles(const ParsedLine& line, const LineCursor& cursor,
                    double lo, double hi, bool lo_exclusive,
                    std::vector<double>* out) {
  out->clear();
  for (const std::string& token : line.values) {
    double value = 0.0;
    if (!ParseDouble(token, &value)) {
      return cursor.Error("invalid number '" + token + "' for key '" +
                          line.key + "'");
    }
    const bool below = lo_exclusive ? value <= lo : value < lo;
    if (below || value > hi) {
      return cursor.Error("value " + token + " for key '" + line.key +
                          "' is outside " + (lo_exclusive ? "(" : "[") +
                          FormatDouble(lo, 2) + ", " + FormatDouble(hi, 2) +
                          "]");
    }
    out->push_back(value);
  }
  return Status::OK();
}

Status ParseLengths(const ParsedLine& line, const LineCursor& cursor,
                    std::vector<size_t>* out) {
  out->clear();
  for (const std::string& token : line.values) {
    long long value = 0;
    if (!ParseInt64(token, &value) || value < 0 || value > 64) {
      return cursor.Error("value '" + token + "' for key '" + line.key +
                          "' must be an integer in [0, 64]");
    }
    out->push_back(static_cast<size_t>(value));
  }
  return Status::OK();
}

Status ParseMetrics(const ParsedLine& line, const LineCursor& cursor,
                    std::vector<RuleMetricKind>* out) {
  static constexpr RuleMetricKind kKinds[] = {
      RuleMetricKind::kZNumber, RuleMetricKind::kInfoGain,
      RuleMetricKind::kGainRatio, RuleMetricKind::kGini,
      RuleMetricKind::kChiSquared};
  out->clear();
  for (const std::string& token : line.values) {
    bool found = false;
    for (RuleMetricKind kind : kKinds) {
      if (token == RuleMetricKindName(kind)) {
        out->push_back(kind);
        found = true;
        break;
      }
    }
    if (!found) {
      return cursor.Error("unknown metric '" + token +
                          "' (valid: z-number info-gain "
                          "gain-ratio gini chi-squared)");
    }
  }
  return Status::OK();
}

Status ParseAlgorithms(const ParsedLine& line, const LineCursor& cursor,
                       std::vector<TuneAlgorithm>* out) {
  out->clear();
  for (const std::string& token : line.values) {
    TuneAlgorithm algorithm;
    if (token == "pnrule") {
      algorithm = TuneAlgorithm::kPnrule;
    } else if (token == "cba") {
      algorithm = TuneAlgorithm::kCba;
    } else {
      return cursor.Error("unknown algorithm '" + token +
                          "' (valid: pnrule cba)");
    }
    if (std::find(out->begin(), out->end(), algorithm) != out->end()) {
      return cursor.Error("duplicate algorithm '" + token + "'");
    }
    out->push_back(algorithm);
  }
  return Status::OK();
}

}  // namespace

std::string TrialConfig::Describe() const {
  if (algorithm == TuneAlgorithm::kCba) {
    std::string out = "cba sup=" + FormatDouble(cba.min_support, 3);
    out += " csup=" + FormatDouble(cba.per_class_min_support, 3);
    out += " conf=" + FormatDouble(cba.min_confidence, 2);
    out += " len=" + std::to_string(cba.max_len);
    out += " thr=" + FormatDouble(threshold, 2);
    return out;
  }
  std::string out = "rp=" + FormatDouble(config.min_coverage_fraction, 3);
  out += " rn=" + FormatDouble(config.n_recall_lower_limit, 3);
  out += " sup=" + FormatDouble(config.min_support_fraction, 3);
  out += " len=" + (config.max_p_rule_length == 0
                        ? std::string("-")
                        : std::to_string(config.max_p_rule_length));
  out += " " + std::string(RuleMetricKindName(config.metric));
  out += " thr=" + FormatDouble(threshold, 2);
  return out;
}

StatusOr<ConfigSpace> ConfigSpace::Parse(std::string_view text) {
  ConfigSpace space;
  std::vector<std::string> seen_keys;
  LineCursor cursor(text, "tune config");
  std::string_view stripped;
  while (cursor.Next(&stripped)) {
    stripped = TrimWhitespace(stripped.substr(0, stripped.find('#')));
    if (stripped.empty()) continue;
    const size_t eq = stripped.find('=');
    if (eq == std::string::npos) {
      return cursor.Error("expected 'key = value, value, ...', got '" +
                          std::string(stripped) + "'");
    }
    ParsedLine line;
    line.key = std::string(TrimWhitespace(stripped.substr(0, eq)));
    line.values = SplitValues(stripped.substr(eq + 1));
    if (line.key.empty()) return cursor.Error("missing key before '='");
    if (std::find(seen_keys.begin(), seen_keys.end(), line.key) !=
        seen_keys.end()) {
      return cursor.Error("duplicate key '" + line.key + "'");
    }
    seen_keys.push_back(line.key);
    if (line.values.empty()) {
      return cursor.Error("empty grid for key '" + line.key + "'");
    }

    Status status;
    if (line.key == "rp") {
      status = ParseDoubles(line, cursor, 0.0, 1.0, /*lo_exclusive=*/true,
                            &space.rp_);
    } else if (line.key == "rn") {
      status = ParseDoubles(line, cursor, 0.0, 1.0, /*lo_exclusive=*/false,
                            &space.rn_);
    } else if (line.key == "min_support") {
      status = ParseDoubles(line, cursor, 0.0, 1.0, /*lo_exclusive=*/false,
                            &space.min_support_);
    } else if (line.key == "threshold") {
      status = ParseDoubles(line, cursor, 0.0, 1.0, /*lo_exclusive=*/false,
                            &space.threshold_);
    } else if (line.key == "max_p_len") {
      status = ParseLengths(line, cursor, &space.max_p_len_);
    } else if (line.key == "metric") {
      status = ParseMetrics(line, cursor, &space.metric_);
    } else if (line.key == "algorithm") {
      status = ParseAlgorithms(line, cursor, &space.algorithm_);
    } else if (line.key == "cba_support") {
      status = ParseDoubles(line, cursor, 0.0, 1.0, /*lo_exclusive=*/true,
                            &space.cba_support_);
    } else if (line.key == "cba_class_support") {
      status = ParseDoubles(line, cursor, 0.0, 1.0, /*lo_exclusive=*/false,
                            &space.cba_class_support_);
    } else if (line.key == "cba_conf") {
      status = ParseDoubles(line, cursor, 0.0, 1.0, /*lo_exclusive=*/false,
                            &space.cba_conf_);
    } else if (line.key == "cba_len") {
      status = ParseLengths(line, cursor, &space.cba_len_);
      if (status.ok()) {
        for (size_t len : space.cba_len_) {
          if (len == 0) {
            status = cursor.Error("cba_len values must be >= 1");
            break;
          }
        }
      }
    } else {
      return cursor.Error("unknown key '" + line.key +
                          "' (valid: rp rn min_support max_p_len "
                          "metric threshold algorithm cba_support "
                          "cba_class_support cba_conf cba_len)");
    }
    if (!status.ok()) return status;
  }
  if (seen_keys.empty()) return cursor.Truncated("a 'key = values' line");
  if (space.size() > kMaxConfigs) {
    return cursor.Error("grid has " + std::to_string(space.size()) +
                        " configurations, more than the maximum " +
                        std::to_string(kMaxConfigs));
  }
  return space;
}

ConfigSpace ConfigSpace::Default() {
  ConfigSpace space;
  space.rp_ = {0.95, 0.99, 0.995};
  space.rn_ = {0.7, 0.9, 0.95, 0.995};
  space.max_p_len_ = {0, 1};
  return space;
}

size_t ConfigSpace::size() const {
  // Saturating products: a hostile config file can make each list thousands
  // of entries long, so the naive product overflows size_t long before
  // Parse's kMaxConfigs check sees it.
  const auto product_of = [](std::initializer_list<size_t> sizes) -> size_t {
    size_t product = 1;
    for (size_t n : sizes) {
      if (n == 0) return 0;
      if (product > kMaxConfigs) return product;  // already over the cap
      product *= n;
    }
    return product;
  };
  size_t total = 0;
  for (TuneAlgorithm algorithm : algorithm_) {
    const size_t family =
        algorithm == TuneAlgorithm::kCba
            ? product_of({cba_support_.size(), cba_class_support_.size(),
                          cba_conf_.size(), cba_len_.size(),
                          threshold_.size()})
            : product_of({rp_.size(), rn_.size(), min_support_.size(),
                          max_p_len_.size(), metric_.size(),
                          threshold_.size()});
    if (total > kMaxConfigs) return total;
    total += family;
  }
  return total;
}

std::vector<TrialConfig> ConfigSpace::Enumerate(
    const PnruleConfig& base) const {
  std::vector<TrialConfig> configs;
  configs.reserve(size());
  for (TuneAlgorithm algorithm : algorithm_) {
    if (algorithm == TuneAlgorithm::kCba) {
      for (double support : cba_support_) {
        for (double class_support : cba_class_support_) {
          for (double confidence : cba_conf_) {
            for (size_t len : cba_len_) {
              for (double threshold : threshold_) {
                TrialConfig trial;
                trial.algorithm = TuneAlgorithm::kCba;
                trial.config = base;
                trial.cba.min_support = support;
                trial.cba.per_class_min_support = class_support;
                trial.cba.min_confidence = confidence;
                trial.cba.max_len = len;
                trial.threshold = threshold;
                configs.push_back(std::move(trial));
              }
            }
          }
        }
      }
      continue;
    }
    for (double rp : rp_) {
      for (double rn : rn_) {
        for (double support : min_support_) {
          for (size_t len : max_p_len_) {
            for (RuleMetricKind metric : metric_) {
              for (double threshold : threshold_) {
                TrialConfig trial;
                trial.config = base;
                trial.config.min_coverage_fraction = rp;
                trial.config.n_recall_lower_limit = rn;
                trial.config.min_support_fraction = support;
                trial.config.max_p_rule_length = len;
                trial.config.metric = metric;
                trial.threshold = threshold;
                configs.push_back(std::move(trial));
              }
            }
          }
        }
      }
    }
  }
  return configs;
}

}  // namespace pnr
