#include "obs/query_cost.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/check.h"
#include "obs/modb_metrics.h"

namespace modb {
namespace obs {

namespace {

std::string FormatParam(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string QueryKindString(bool is_knn) { return is_knn ? "knn" : "within"; }

std::string EscapedJson(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Shared by the text renderers: one "  name: value" line per counter
// column, timing gated.
void AppendRowText(std::ostringstream& out, const CostRow& row,
                   bool include_timing, const std::string& indent) {
  const std::vector<std::string>& names = LedgerColumnNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (!include_timing && names[i] == "wall_micros") continue;
    out << indent << names[i] << ": " << LedgerColumnValue(row, i) << "\n";
  }
}

void AppendRowJson(std::ostringstream& out, const CostRow& row,
                   bool include_timing) {
  const std::vector<std::string>& names = LedgerColumnNames();
  out << "{";
  bool first = true;
  for (size_t i = 0; i < names.size(); ++i) {
    if (!include_timing && names[i] == "wall_micros") continue;
    out << (first ? "" : ", ") << "\"" << names[i]
        << "\": " << LedgerColumnValue(row, i);
    first = false;
  }
  out << "}";
}

}  // namespace

CostRow& CostRow::operator+=(const CostRow& other) {
  updates += other.updates;
  swaps += other.swaps;
  inserts += other.inserts;
  erases += other.erases;
  curve_rebuilds += other.curve_rebuilds;
  crossings += other.crossings;
  batch_lanes += other.batch_lanes;
  schedules += other.schedules;
  cancels += other.cancels;
  wall_micros += other.wall_micros;
  answer_changes += other.answer_changes;
  answer_delta += other.answer_delta;
  sentinel_swaps += other.sentinel_swaps;
  if (other.last_change_trace != 0) last_change_trace = other.last_change_trace;
  return *this;
}

const std::vector<std::string>& LedgerColumnNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "updates",        "swaps",          "inserts",
      "erases",         "curve_rebuilds", "crossings",
      "batch_lanes",    "schedules",      "cancels",
      "wall_micros",    "answer_changes", "answer_delta",
      "sentinel_swaps",
  };
  return *names;
}

uint64_t LedgerColumnValue(const CostRow& row, size_t i) {
  switch (i) {
    case 0: return row.updates;
    case 1: return row.swaps;
    case 2: return row.inserts;
    case 3: return row.erases;
    case 4: return row.curve_rebuilds;
    case 5: return row.crossings;
    case 6: return row.batch_lanes;
    case 7: return row.schedules;
    case 8: return row.cancels;
    case 9: return row.wall_micros;
    case 10: return row.answer_changes;
    case 11: return row.answer_delta;
    case 12: return row.sentinel_swaps;
  }
  MODB_CHECK(false) << "bad ledger column index " << i;
  return 0;
}

CostRow CostCell::Load() const {
  CostRow row;
  row.updates = updates.load(std::memory_order_relaxed);
  row.swaps = swaps.load(std::memory_order_relaxed);
  row.inserts = inserts.load(std::memory_order_relaxed);
  row.erases = erases.load(std::memory_order_relaxed);
  row.curve_rebuilds = curve_rebuilds.load(std::memory_order_relaxed);
  row.crossings = crossings.load(std::memory_order_relaxed);
  row.batch_lanes = batch_lanes.load(std::memory_order_relaxed);
  row.schedules = schedules.load(std::memory_order_relaxed);
  row.cancels = cancels.load(std::memory_order_relaxed);
  row.wall_micros = wall_micros.load(std::memory_order_relaxed);
  row.answer_changes = answer_changes.load(std::memory_order_relaxed);
  row.answer_delta = answer_delta.load(std::memory_order_relaxed);
  row.sentinel_swaps = sentinel_swaps.load(std::memory_order_relaxed);
  row.last_change_trace = last_change_trace.load(std::memory_order_relaxed);
  return row;
}

CostCell* QueryCostLedger::GroupCell(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    it = groups_.emplace(key, std::make_unique<GroupEntry>()).first;
  }
  if (!it->second->counted) {
    it->second->counted = true;
    M().cost_groups->Add(1);
  }
  return &it->second->cell;
}

CostCell* QueryCostLedger::AddQuery(int64_t id, const std::string& group_key,
                                    bool is_knn, double param) {
  std::lock_guard<std::mutex> lock(mu_);
  auto group_it = groups_.find(group_key);
  if (group_it == groups_.end()) {
    group_it = groups_.emplace(group_key, std::make_unique<GroupEntry>()).first;
  }
  GroupEntry& group = *group_it->second;
  if (!group.counted) {
    group.counted = true;
    M().cost_groups->Add(1);
  }
  group.live = true;
  ++group.live_queries;

  auto [it, inserted] = queries_.emplace(id, std::make_unique<QueryEntry>());
  MODB_CHECK(inserted) << "query id " << id << " already in the cost ledger";
  QueryEntry& query = *it->second;
  query.group_key = group_key;
  query.is_knn = is_knn;
  query.param = param;
  query.live = true;
  M().cost_queries->Add(1);
  return &query.cell;
}

void QueryCostLedger::RetireQuery(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end() || !it->second->live) return;
  it->second->live = false;
  M().cost_queries->Add(-1);
  auto group_it = groups_.find(it->second->group_key);
  MODB_CHECK(group_it != groups_.end());
  GroupEntry& group = *group_it->second;
  MODB_CHECK_GT(group.live_queries, 0);
  if (--group.live_queries == 0) {
    group.live = false;
    // Tombstone: the gauge stops counting the group (METRICS.md); a later
    // re-registration of the key revives and re-counts the same entry.
    group.counted = false;
    M().cost_groups->Add(-1);
  }
}

std::vector<QueryCostLedger::GroupSnapshot> QueryCostLedger::Groups() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<GroupSnapshot> out;
  out.reserve(groups_.size());
  for (const auto& [key, entry] : groups_) {
    GroupSnapshot snap;
    snap.key = key;
    snap.total = entry->cell.Load();
    snap.live_queries = entry->live_queries;
    snap.live = entry->live;
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<QueryCostLedger::QuerySnapshot> QueryCostLedger::Queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QuerySnapshot> out;
  out.reserve(queries_.size());
  for (const auto& [id, entry] : queries_) {
    QuerySnapshot snap;
    snap.id = id;
    snap.group_key = entry->group_key;
    snap.is_knn = entry->is_knn;
    snap.param = entry->param;
    snap.total = entry->cell.Load();
    snap.live = entry->live;
    out.push_back(std::move(snap));
  }
  return out;
}

bool QueryCostLedger::FindQuery(int64_t id, QuerySnapshot* query,
                                GroupSnapshot* group) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  const QueryEntry& entry = *it->second;
  if (query != nullptr) {
    query->id = id;
    query->group_key = entry.group_key;
    query->is_knn = entry.is_knn;
    query->param = entry.param;
    query->total = entry.cell.Load();
    query->live = entry.live;
  }
  if (group != nullptr) {
    auto group_it = groups_.find(entry.group_key);
    MODB_CHECK(group_it != groups_.end());
    const GroupEntry& g = *group_it->second;
    group->key = entry.group_key;
    group->total = g.cell.Load();
    group->live_queries = g.live_queries;
    group->live = g.live;
  }
  return true;
}

CostRow QueryCostLedger::GroupTotals() const {
  std::lock_guard<std::mutex> lock(mu_);
  CostRow total;
  for (const auto& [key, entry] : groups_) total += entry->cell.Load();
  return total;
}

CostRow QueryCostLedger::QueryTotals() const {
  std::lock_guard<std::mutex> lock(mu_);
  CostRow total;
  for (const auto& [id, entry] : queries_) total += entry->cell.Load();
  return total;
}

std::string RenderExplainText(const QueryCostReport& report,
                              bool include_timing) {
  std::ostringstream out;
  out << "query q" << report.query_id;
  if (!report.found) {
    out << ": not found (never registered with this server)\n";
    return out.str();
  }
  out << ": " << QueryKindString(report.is_knn)
      << (report.is_knn ? " k=" + std::to_string(
                                      static_cast<uint64_t>(report.param))
                        : " threshold=" + FormatParam(report.param))
      << " [" << (report.live ? "live" : "removed") << "]\n";
  out << "group: " << report.group_key << " (" << report.group_live_queries
      << " live sharer(s))\n";
  if (report.live) out << "answer size: " << report.answer_size << "\n";
  out << "last-change trace: " << report.last_change_trace << "\n";
  out << "own costs (cumulative):\n";
  AppendRowText(out, report.own, include_timing, "  ");
  out << "group costs (cumulative, shared by sharers):\n";
  AppendRowText(out, report.group, include_timing, "  ");
  for (const ShardCostBreakdown& shard : report.shards) {
    out << "shard " << shard.shard << ":";
    if (!shard.found) {
      out << " UNAVAILABLE\n";
      continue;
    }
    out << " answer size " << shard.answer_size << "\n";
    out << "  own:\n";
    AppendRowText(out, shard.own, include_timing, "    ");
    out << "  group:\n";
    AppendRowText(out, shard.group, include_timing, "    ");
  }
  return out.str();
}

std::string RenderExplainJson(const QueryCostReport& report,
                              bool include_timing) {
  std::ostringstream out;
  out << "{\"query_id\": " << report.query_id
      << ", \"found\": " << (report.found ? "true" : "false");
  if (!report.found) {
    out << "}";
    return out.str();
  }
  out << ", \"type\": \"" << QueryKindString(report.is_knn) << "\""
      << ", \"param\": " << FormatParam(report.param) << ", \"live\": "
      << (report.live ? "true" : "false") << ", \"group\": \""
      << EscapedJson(report.group_key)
      << "\", \"group_live_queries\": " << report.group_live_queries
      << ", \"answer_size\": " << report.answer_size
      << ", \"last_change_trace\": " << report.last_change_trace;
  out << ", \"own\": ";
  AppendRowJson(out, report.own, include_timing);
  out << ", \"group_costs\": ";
  AppendRowJson(out, report.group, include_timing);
  out << ", \"shards\": [";
  for (size_t i = 0; i < report.shards.size(); ++i) {
    const ShardCostBreakdown& shard = report.shards[i];
    out << (i == 0 ? "" : ", ") << "{\"shard\": " << shard.shard
        << ", \"found\": " << (shard.found ? "true" : "false");
    if (shard.found) {
      out << ", \"answer_size\": " << shard.answer_size << ", \"own\": ";
      AppendRowJson(out, shard.own, include_timing);
      out << ", \"group_costs\": ";
      AppendRowJson(out, shard.group, include_timing);
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

uint64_t CostScore(const CostRow& own, const CostRow& group,
                   int64_t group_sharers) {
  // Event-based (deterministic): the group's sweep event work split
  // evenly across its live sharers, plus the work only this query caused.
  const uint64_t shared =
      group.swaps + group.crossings + group.schedules + group.cancels;
  const uint64_t sharers =
      group_sharers > 0 ? static_cast<uint64_t>(group_sharers) : 1;
  return shared / sharers + own.sentinel_swaps + own.answer_changes +
         own.answer_delta;
}

uint64_t ChurnScore(const CostRow& own) {
  return own.answer_changes + own.answer_delta;
}

void SortTop(std::vector<TopEntry>* entries, bool by_churn) {
  std::stable_sort(entries->begin(), entries->end(),
                   [by_churn](const TopEntry& a, const TopEntry& b) {
                     const uint64_t sa = by_churn ? a.churn_score : a.cost_score;
                     const uint64_t sb = by_churn ? b.churn_score : b.cost_score;
                     if (sa != sb) return sa > sb;
                     return a.id < b.id;
                   });
}

std::string RenderTopText(const std::vector<TopEntry>& entries, size_t limit,
                          bool by_churn) {
  std::ostringstream out;
  out << "rank  id     type     param        group           "
      << (by_churn ? "churn" : "cost") << "  churn  answer  live\n";
  const size_t n = std::min(limit, entries.size());
  for (size_t i = 0; i < n; ++i) {
    const TopEntry& e = entries[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-5zu q%-5" PRId64 " %-8s %-12.6g %-15s %5" PRIu64
                  "  %5" PRIu64 "  %6zu  %s",
                  i + 1, e.id, QueryKindString(e.is_knn).c_str(), e.param,
                  e.group_key.c_str(), by_churn ? e.churn_score : e.cost_score,
                  e.churn_score, e.answer_size, e.live ? "yes" : "no");
    out << line << "\n";
  }
  if (entries.size() > n) {
    out << "(" << entries.size() - n << " more not shown)\n";
  }
  return out.str();
}

std::string RenderTopJson(const std::vector<TopEntry>& entries, size_t limit,
                          bool by_churn) {
  std::ostringstream out;
  out << "{\"sort\": \"" << (by_churn ? "churn" : "cost")
      << "\", \"queries\": [";
  const size_t n = std::min(limit, entries.size());
  for (size_t i = 0; i < n; ++i) {
    const TopEntry& e = entries[i];
    out << (i == 0 ? "" : ", ") << "{\"rank\": " << i + 1
        << ", \"id\": " << e.id << ", \"type\": \""
        << QueryKindString(e.is_knn) << "\", \"param\": "
        << FormatParam(e.param) << ", \"group\": \""
        << EscapedJson(e.group_key) << "\", \"cost_score\": " << e.cost_score
        << ", \"churn_score\": " << e.churn_score
        << ", \"answer_size\": " << e.answer_size << ", \"live\": "
        << (e.live ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace obs
}  // namespace modb
