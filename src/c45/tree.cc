#include "c45/tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/math_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace pnr {

Status C45Config::Validate() const {
  if (min_objs <= 0.0) {
    return Status::InvalidArgument("min_objs must be positive");
  }
  if (cf <= 0.0 || cf >= 1.0) {
    return Status::InvalidArgument("cf must be in (0, 1)");
  }
  if (max_depth == 0) {
    return Status::InvalidArgument("max_depth must be positive");
  }
  return Status::OK();
}

int32_t DecisionTree::AddNode(TreeNode node) {
  nodes_.push_back(std::move(node));
  return static_cast<int32_t>(nodes_.size() - 1);
}

int32_t DecisionTree::RouteToLeaf(const Dataset& dataset, RowId row) const {
  assert(root_ >= 0);
  int32_t index = root_;
  for (;;) {
    const TreeNode& node = nodes_[static_cast<size_t>(index)];
    if (node.is_leaf) return index;
    int32_t next = -1;
    const Attribute& attr = dataset.schema().attribute(node.attr);
    if (attr.is_numeric()) {
      const double v = dataset.numeric(row, node.attr);
      next = node.children[v <= node.threshold ? 0 : 1];
    } else {
      const CategoryId c = dataset.categorical(row, node.attr);
      if (c >= 0 && static_cast<size_t>(c) < node.children.size()) {
        next = node.children[static_cast<size_t>(c)];
      }
    }
    if (next < 0) next = node.largest_child;
    if (next < 0) return index;  // degenerate: treat as leaf
    index = next;
  }
}

CategoryId DecisionTree::Classify(const Dataset& dataset, RowId row) const {
  return nodes_[static_cast<size_t>(RouteToLeaf(dataset, row))]
      .predicted_class;
}

double DecisionTree::ClassProbability(const Dataset& dataset, RowId row,
                                      CategoryId cls) const {
  const TreeNode& leaf =
      nodes_[static_cast<size_t>(RouteToLeaf(dataset, row))];
  const double k = static_cast<double>(num_classes_);
  const double cls_weight =
      cls >= 0 && static_cast<size_t>(cls) < leaf.class_weights.size()
          ? leaf.class_weights[static_cast<size_t>(cls)]
          : 0.0;
  return (cls_weight + 1.0) / (leaf.total_weight + k);
}

size_t DecisionTree::CountLeaves() const {
  size_t leaves = 0;
  // Count only nodes reachable from the root (pruning orphans nodes).
  if (root_ < 0) return 0;
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    const int32_t index = stack.back();
    stack.pop_back();
    const TreeNode& node = nodes_[static_cast<size_t>(index)];
    if (node.is_leaf) {
      ++leaves;
      continue;
    }
    for (int32_t child : node.children) {
      if (child >= 0) stack.push_back(child);
    }
  }
  return leaves;
}

std::string DecisionTree::ToString(const Schema& schema) const {
  std::string out;
  struct Frame {
    int32_t node;
    int depth;
    std::string edge;
  };
  std::vector<Frame> stack = {{root_, 0, ""}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.node < 0) continue;
    const TreeNode& node = nodes_[static_cast<size_t>(frame.node)];
    out.append(static_cast<size_t>(frame.depth) * 2, ' ');
    if (!frame.edge.empty()) out += frame.edge + " -> ";
    if (node.is_leaf) {
      out += "class " +
             schema.class_attr().CategoryName(node.predicted_class) + " (" +
             FormatDouble(node.total_weight, 1) + "/" +
             FormatDouble(node.error_weight(), 1) + ")\n";
      continue;
    }
    const Attribute& attr = schema.attribute(node.attr);
    out += "split " + attr.name() + "\n";
    if (attr.is_numeric()) {
      stack.push_back({node.children[1], frame.depth + 1,
                       "> " + FormatDouble(node.threshold, 4)});
      stack.push_back({node.children[0], frame.depth + 1,
                       "<= " + FormatDouble(node.threshold, 4)});
    } else {
      for (size_t c = node.children.size(); c-- > 0;) {
        if (node.children[c] < 0) continue;
        stack.push_back({node.children[c], frame.depth + 1,
                         "= " + attr.CategoryName(static_cast<CategoryId>(c))});
      }
    }
  }
  return out;
}

namespace {

constexpr double kNoGain = -std::numeric_limits<double>::infinity();

struct SplitCandidate {
  AttrIndex attr = -1;
  bool numeric = false;
  double threshold = 0.0;
  double gain = kNoGain;
  double gain_ratio = kNoGain;
  bool valid = false;
};

struct Builder {
  const Dataset& dataset;
  const C45Config& config;
  DecisionTree* tree;
  size_t num_classes;
  ThreadPool& pool;

  std::vector<double> NodeClassWeights(const RowSubset& rows) const {
    std::vector<double> weights(num_classes, 0.0);
    for (RowId row : rows) {
      weights[static_cast<size_t>(dataset.label(row))] +=
          dataset.weight(row);
    }
    return weights;
  }

  static double Entropy(const std::vector<double>& class_weights,
                        double total) {
    if (total <= 0.0) return 0.0;
    double h = 0.0;
    for (double w : class_weights) {
      if (w > 0.0) h -= XLog2X(w / total);
    }
    return h;
  }

  SplitCandidate EvaluateCategorical(const RowSubset& rows, AttrIndex attr,
                                     double parent_entropy,
                                     double total) const {
    SplitCandidate cand;
    cand.attr = attr;
    const size_t k = dataset.schema().attribute(attr).num_categories();
    if (k < 2) return cand;
    std::vector<std::vector<double>> branch(k,
                                            std::vector<double>(num_classes,
                                                                0.0));
    std::vector<double> branch_total(k, 0.0);
    for (RowId row : rows) {
      const CategoryId c = dataset.categorical(row, attr);
      if (c == kInvalidCategory) continue;
      const double w = dataset.weight(row);
      branch[static_cast<size_t>(c)][static_cast<size_t>(
          dataset.label(row))] += w;
      branch_total[static_cast<size_t>(c)] += w;
    }
    // C4.5's branch constraint: at least two branches carrying min_objs.
    size_t substantial = 0;
    size_t non_empty = 0;
    for (double bt : branch_total) {
      if (bt > 0.0) ++non_empty;
      if (bt >= config.min_objs) ++substantial;
    }
    if (substantial < 2 || non_empty < 2) return cand;
    double children_entropy = 0.0;
    double split_info = 0.0;
    for (size_t b = 0; b < k; ++b) {
      if (branch_total[b] <= 0.0) continue;
      children_entropy +=
          (branch_total[b] / total) * Entropy(branch[b], branch_total[b]);
      split_info -= XLog2X(branch_total[b] / total);
    }
    cand.gain = parent_entropy - children_entropy;
    cand.gain_ratio = split_info > 1e-12 ? cand.gain / split_info : 0.0;
    cand.valid = cand.gain > 0.0;
    return cand;
  }

  SplitCandidate EvaluateNumeric(const RowSubset& rows, AttrIndex attr,
                                 double parent_entropy, double total) const {
    SplitCandidate cand;
    cand.attr = attr;
    cand.numeric = true;
    struct Entry {
      double value;
      double weight;
      CategoryId label;
    };
    std::vector<Entry> entries;
    entries.reserve(rows.size());
    for (RowId row : rows) {
      entries.push_back(
          {dataset.numeric(row, attr), dataset.weight(row),
           dataset.label(row)});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.value < b.value; });

    std::vector<double> left(num_classes, 0.0);
    std::vector<double> right = NodeClassWeights(rows);
    double left_total = 0.0;
    double right_total = total;
    size_t distinct = entries.empty() ? 0 : 1;
    for (size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].value > entries[i - 1].value) ++distinct;
    }
    if (distinct < 2) return cand;

    double best_gain = kNoGain;
    double best_split_info = 1.0;
    double best_threshold = 0.0;
    for (size_t i = 0; i + 1 < entries.size(); ++i) {
      const Entry& e = entries[i];
      left[static_cast<size_t>(e.label)] += e.weight;
      left_total += e.weight;
      right[static_cast<size_t>(e.label)] -= e.weight;
      right_total -= e.weight;
      if (entries[i + 1].value <= e.value) continue;  // not a boundary
      if (left_total < config.min_objs || right_total < config.min_objs) {
        continue;
      }
      const double children_entropy =
          (left_total / total) * Entropy(left, left_total) +
          (right_total / total) * Entropy(right, right_total);
      const double gain = parent_entropy - children_entropy;
      if (gain > best_gain) {
        best_gain = gain;
        best_threshold = 0.5 * (e.value + entries[i + 1].value);
        best_split_info = BinaryEntropy(left_total / total);
      }
    }
    if (best_gain == kNoGain) return cand;
    if (config.numeric_gain_penalty) {
      // Release 8: charge the cost of choosing among the candidate
      // thresholds to the gain.
      best_gain -= SafeLog2(static_cast<double>(distinct - 1)) / total;
    }
    cand.gain = best_gain;
    cand.threshold = best_threshold;
    cand.gain_ratio =
        best_split_info > 1e-12 ? best_gain / best_split_info : 0.0;
    cand.valid = best_gain > 0.0;
    return cand;
  }

  int32_t Build(const RowSubset& rows, size_t depth) {
    TreeNode node;
    node.class_weights = NodeClassWeights(rows);
    node.total_weight = 0.0;
    for (double w : node.class_weights) node.total_weight += w;
    node.predicted_class = static_cast<CategoryId>(
        std::max_element(node.class_weights.begin(),
                         node.class_weights.end()) -
        node.class_weights.begin());

    const bool pure = node.error_weight() <= 1e-12;
    if (pure || node.total_weight < 2.0 * config.min_objs ||
        depth >= config.max_depth) {
      return tree->AddNode(std::move(node));
    }

    const double parent_entropy =
        Entropy(node.class_weights, node.total_weight);
    // Evaluate every attribute's best split into a private slot; collecting
    // the valid candidates in attribute order afterwards keeps the
    // average-gain sum and the winner identical for any thread count.
    const size_t num_attrs = dataset.schema().num_attributes();
    std::vector<SplitCandidate> slots(num_attrs);
    const auto evaluate = [&](size_t a) {
      const AttrIndex attr = static_cast<AttrIndex>(a);
      slots[a] = dataset.schema().attribute(attr).is_numeric()
                     ? EvaluateNumeric(rows, attr, parent_entropy,
                                       node.total_weight)
                     : EvaluateCategorical(rows, attr, parent_entropy,
                                           node.total_weight);
    };
    pool.ParallelFor(num_attrs, evaluate);
    std::vector<SplitCandidate> candidates;
    for (size_t a = 0; a < num_attrs; ++a) {
      if (slots[a].valid) candidates.push_back(slots[a]);
    }
    if (candidates.empty()) return tree->AddNode(std::move(node));

    // Gain-ratio selection restricted to candidates with at least average
    // gain (Quinlan's guard against gain-ratio's bias to tiny splits).
    double average_gain = 0.0;
    for (const SplitCandidate& cand : candidates) average_gain += cand.gain;
    average_gain /= static_cast<double>(candidates.size());
    const SplitCandidate* best = nullptr;
    for (const SplitCandidate& cand : candidates) {
      if (config.use_gain_ratio && cand.gain + 1e-12 < average_gain) {
        continue;
      }
      const double key = config.use_gain_ratio ? cand.gain_ratio : cand.gain;
      const double best_key =
          best == nullptr
              ? kNoGain
              : (config.use_gain_ratio ? best->gain_ratio : best->gain);
      if (best == nullptr || key > best_key) best = &cand;
    }
    if (best == nullptr) return tree->AddNode(std::move(node));

    // Partition rows and recurse.
    node.is_leaf = false;
    node.attr = best->attr;
    node.threshold = best->threshold;
    const SplitCandidate chosen = *best;  // survive vector reallocation

    std::vector<RowSubset> partitions;
    if (chosen.numeric) {
      partitions.resize(2);
      for (RowId row : rows) {
        partitions[dataset.numeric(row, chosen.attr) <= chosen.threshold
                       ? 0
                       : 1]
            .push_back(row);
      }
    } else {
      partitions.resize(
          dataset.schema().attribute(chosen.attr).num_categories());
      for (RowId row : rows) {
        const CategoryId c = dataset.categorical(row, chosen.attr);
        if (c != kInvalidCategory) {
          partitions[static_cast<size_t>(c)].push_back(row);
        }
      }
    }

    node.children.assign(partitions.size(), -1);
    const int32_t node_index = tree->AddNode(node);
    double largest_weight = -1.0;
    int32_t largest_child = -1;
    for (size_t b = 0; b < partitions.size(); ++b) {
      if (partitions[b].empty()) continue;
      const int32_t child = Build(partitions[b], depth + 1);
      tree->mutable_nodes()[static_cast<size_t>(node_index)].children[b] =
          child;
      const double child_weight =
          tree->nodes()[static_cast<size_t>(child)].total_weight;
      if (child_weight > largest_weight) {
        largest_weight = child_weight;
        largest_child = child;
      }
    }
    tree->mutable_nodes()[static_cast<size_t>(node_index)].largest_child =
        largest_child;
    return node_index;
  }
};

}  // namespace

// Defined in prune.cc.
void PruneC45Tree(const Dataset& dataset, const RowSubset& rows,
                  const C45Config& config, DecisionTree* tree);

StatusOr<DecisionTree> BuildC45Tree(const Dataset& dataset,
                                    const RowSubset& rows,
                                    const C45Config& config) {
  Status status = config.Validate();
  if (!status.ok()) return status;
  if (rows.empty()) {
    return Status::InvalidArgument("training set is empty");
  }
  DecisionTree tree;
  tree.set_num_classes(dataset.schema().num_classes());
  // Paged datasets drop to a serial build: the per-node attribute scans
  // read columns without pinning them, which would race with fault-driven
  // eviction. Serial and parallel builds are bit-identical regardless.
  ThreadPool pool(dataset.paged()
                      ? 1
                      : ThreadPool::ResolveThreadCount(config.num_threads));
  Builder builder{dataset, config, &tree, dataset.schema().num_classes(),
                  pool};
  tree.set_root(builder.Build(rows, 0));
  if (config.prune) {
    PruneC45Tree(dataset, rows, config, &tree);
  }
  return tree;
}

}  // namespace pnr
