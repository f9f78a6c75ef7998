#include "obs/plan_profile.h"

#include <algorithm>
#include <cstdio>

namespace sstreaming {

void PlanProfile::AddNode(int op_id, std::string name, bool is_source,
                          std::vector<int> children) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(op_id)) return;
  Node node;
  node.op_id = op_id;
  node.name = std::move(name);
  node.is_source = is_source;
  node.children = std::move(children);
  index_[op_id] = nodes_.size();
  nodes_.push_back(std::move(node));
}

void PlanProfile::RecordEpoch(const QueryProgress& progress) {
  std::lock_guard<std::mutex> lock(mu_);
  ++epochs_;
  for (const OperatorProgress& op : progress.operators) {
    auto it = index_.find(op.op_id);
    if (it == index_.end()) continue;
    Node& node = nodes_[it->second];
    node.Add(op);
    node.state_rows = op.state_rows;
    node.state_bytes = op.state_bytes;
    node.shard_state = op.shard_state;
    node.peak_state_rows = std::max(node.peak_state_rows, op.state_rows);
    node.peak_state_bytes = std::max(node.peak_state_bytes, op.state_bytes);
  }
}

int64_t PlanProfile::epochs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_;
}

std::vector<PlanProfile::Node> PlanProfile::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_;
}

const PlanProfile::Node* PlanProfile::FindLocked(int op_id) const {
  auto it = index_.find(op_id);
  return it == index_.end() ? nullptr : &nodes_[it->second];
}

void PlanProfile::RenderNodeLocked(const Node& node, int depth,
                                   std::string* out) const {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.name;
  char buf[256];
  std::snprintf(buf, sizeof(buf), " [op %d] ", node.op_id);
  *out += buf;
  for (const OpCounterField& f : kOpCounterFields) {
    if (f.explain_column == nullptr) continue;
    const int64_t v = node.*f.member;
    if (f.explain_unit == ExplainUnit::kNanosAsMillis) {
      std::snprintf(buf, sizeof(buf), " %s=%.3f", f.explain_column,
                    static_cast<double>(v) / 1e6);
    } else {
      std::snprintf(buf, sizeof(buf), " %s=%lld", f.explain_column,
                    static_cast<long long>(v));
    }
    *out += buf;
  }
  if (node.peak_state_rows > 0 || node.peak_state_bytes > 0) {
    std::snprintf(buf, sizeof(buf),
                  " state_rows=%lld state_bytes=%lld (peak %lld/%lld)",
                  static_cast<long long>(node.state_rows),
                  static_cast<long long>(node.state_bytes),
                  static_cast<long long>(node.peak_state_rows),
                  static_cast<long long>(node.peak_state_bytes));
    *out += buf;
    if (!node.shard_state.empty()) {
      *out += " shards=[";
      for (size_t s = 0; s < node.shard_state.size(); ++s) {
        if (s > 0) *out += " ";
        std::snprintf(buf, sizeof(buf), "%lld/%lld",
                      static_cast<long long>(node.shard_state[s].first),
                      static_cast<long long>(node.shard_state[s].second));
        *out += buf;
      }
      *out += "]";
    }
  }
  *out += "\n";
  for (int child_id : node.children) {
    const Node* child = FindLocked(child_id);
    if (child != nullptr) RenderNodeLocked(*child, depth + 1, out);
  }
}

std::string PlanProfile::Render() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "== EXPLAIN ANALYZE (epochs=" + std::to_string(epochs_) +
                    ") ==\n";
  if (!nodes_.empty()) RenderNodeLocked(nodes_.front(), 0, &out);
  return out;
}

Json PlanProfile::NodeJsonLocked(const Node& node) const {
  Json obj = node.ToJson(/*all_counters=*/true);
  obj.Set("isSource", Json::Bool(node.is_source));
  obj.Set("peakStateRows", Json::Int(node.peak_state_rows));
  obj.Set("peakStateBytes", Json::Int(node.peak_state_bytes));
  Json children = Json::Array();
  for (int child_id : node.children) {
    const Node* child = FindLocked(child_id);
    if (child != nullptr) children.Append(NodeJsonLocked(*child));
  }
  obj.Set("children", std::move(children));
  return obj;
}

Json PlanProfile::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json obj = Json::Object();
  obj.Set("epochs", Json::Int(epochs_));
  if (!nodes_.empty()) obj.Set("root", NodeJsonLocked(nodes_.front()));
  return obj;
}

}  // namespace sstreaming
