#ifndef MODB_OBS_QUERY_COST_H_
#define MODB_OBS_QUERY_COST_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace modb {
namespace obs {

// Per-query / per-engine-group cost attribution: the profiler that makes
// sweep sharing possible. The process-wide MetricsRegistry (metrics.h)
// answers "how much sweep work happened"; this ledger answers "WHICH
// registered query is paying for it". Sweep work — events processed,
// Lemma 7 swaps, Lemma 9 schedules/cancels, crossing computations,
// batched-kernel lanes, wall time — is intrinsically shared by every
// query on the same g-distance group (that sharing is the point of the
// paper's single-support design), so the ledger attributes it at GROUP
// granularity; work that is genuinely per-query — answer-set churn,
// threshold-sentinel swaps — is attributed to the owning query id.
//
// Cost model mirrors the registry's: accounting is a relaxed atomic add on
// a CostCell the charging code caches a pointer to. A sweep charges its
// GROUP cell from its SweepStats deltas once per mutator call
// (SweepState::PublishStats), never per event; with no ledger attached
// (one-shot past queries, benches driving an engine directly) it charges
// nothing. Ledger entries are never freed: retiring a query or tearing
// down an engine group tombstones the entry (costs of removed queries
// stay visible to reconciliation and reports, and cached pointers stay
// valid on every thread). A group entry is keyed by its gdist key and
// REUSED if the key is re-registered after its last query was removed.
//
// The column set is documented in docs/QUERYCOST.md; a unit test diffs
// LedgerColumnNames() against that table (the METRICS.md lockstep
// pattern).

// One ledger row as a plain value (snapshot of a CostCell, or a merge of
// several). Group-attributed columns come first, per-query columns after;
// `last_change_trace` is a last-writer value, not a counter.
struct CostRow {
  // ---- group (shared-sweep) columns ----
  uint64_t updates = 0;         // Engine ApplyUpdate calls.
  uint64_t swaps = 0;           // Intersection events processed (Lemma 7).
  uint64_t inserts = 0;         // Objects/sentinels entering the order.
  uint64_t erases = 0;          // Objects leaving the order.
  uint64_t curve_rebuilds = 0;  // chdir + Theorem-10 curve replacements.
  uint64_t crossings = 0;       // Crossing computations (root isolations).
  uint64_t batch_lanes = 0;     // Crossings computed via batched kernels.
  uint64_t schedules = 0;       // Events pushed into the queue (Lemma 9).
  uint64_t cancels = 0;         // Queued events removed before firing.
  uint64_t wall_micros = 0;     // Wall time inside the sweep's mutators.
  // ---- per-query columns ----
  uint64_t answer_changes = 0;  // Times the answer set actually changed.
  uint64_t answer_delta = 0;    // Elements entering/leaving across changes.
  uint64_t sentinel_swaps = 0;  // Swaps against this query's sentinel.
  // Trace id of the update that last changed the answer (0 = never);
  // db-trace can replay that cascade. Not summed.
  uint64_t last_change_trace = 0;

  // Column-wise sum of the counters; last_change_trace takes the other
  // side's value when nonzero (merge order = shard order, so the merged
  // value is the highest shard's last change — deterministic).
  CostRow& operator+=(const CostRow& other);
};

// The summable counter columns, in CostRow field order (excludes
// last_change_trace). Kept in lockstep with docs/QUERYCOST.md.
const std::vector<std::string>& LedgerColumnNames();
// Value of column `i` of LedgerColumnNames() in `row`.
uint64_t LedgerColumnValue(const CostRow& row, size_t i);

// The mutable mirror of a CostRow: one relaxed atomic per column.
// Charging code caches a CostCell* and does one fetch_add(delta) per
// column; readers Load() a consistent-enough relaxed snapshot (exactness
// is defined at quiesced points, where the reconciliation tests compare
// it against SweepStats).
class CostCell {
 public:
  CostCell() = default;
  CostCell(const CostCell&) = delete;
  CostCell& operator=(const CostCell&) = delete;

  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> swaps{0};
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> erases{0};
  std::atomic<uint64_t> curve_rebuilds{0};
  std::atomic<uint64_t> crossings{0};
  std::atomic<uint64_t> batch_lanes{0};
  std::atomic<uint64_t> schedules{0};
  std::atomic<uint64_t> cancels{0};
  std::atomic<uint64_t> wall_micros{0};
  std::atomic<uint64_t> answer_changes{0};
  std::atomic<uint64_t> answer_delta{0};
  std::atomic<uint64_t> sentinel_swaps{0};
  std::atomic<uint64_t> last_change_trace{0};

  CostRow Load() const;
};

// The per-server ledger. One instance per QueryServer (so S shards have S
// independently mergeable ledgers). Registration paths take a mutex; the
// accounting fast path never does (it holds a CostCell*).
class QueryCostLedger {
 public:
  struct GroupSnapshot {
    std::string key;
    CostRow total;
    int64_t live_queries = 0;
    bool live = false;  // False once the last sharer was removed.
  };
  struct QuerySnapshot {
    int64_t id = -1;
    std::string group_key;
    bool is_knn = false;
    double param = 0.0;  // k (knn) or threshold (within).
    CostRow total;
    bool live = false;
  };

  QueryCostLedger() = default;
  QueryCostLedger(const QueryCostLedger&) = delete;
  QueryCostLedger& operator=(const QueryCostLedger&) = delete;

  // The group cell for `key` (created on first use, revived and reused on
  // re-registration). The returned pointer is valid for the ledger's
  // lifetime — SweepState caches it as its cost sink.
  CostCell* GroupCell(const std::string& key);

  // Registers query `id` under `group_key` and returns its cell (valid
  // forever; kernels cache it). `id` must be new.
  CostCell* AddQuery(int64_t id, const std::string& group_key, bool is_knn,
                     double param);
  // Tombstones the query: costs stay, live flips off, the group loses a
  // sharer (the group itself tombstones at zero sharers). Unknown ids are
  // ignored (idempotent).
  void RetireQuery(int64_t id);

  // Snapshots, ascending by key / id, retired entries included.
  std::vector<GroupSnapshot> Groups() const;
  std::vector<QuerySnapshot> Queries() const;
  // The query's row plus its group's row; false if `id` was never
  // registered. Either out-pointer may be null.
  bool FindQuery(int64_t id, QuerySnapshot* query,
                 GroupSnapshot* group) const;

  // Column sums over every entry ever registered (retired included) —
  // what the reconciliation tests compare against SweepStats/registry
  // deltas: no attributed work may be lost or double-counted.
  CostRow GroupTotals() const;
  CostRow QueryTotals() const;

 private:
  struct GroupEntry {
    CostCell cell;
    int64_t live_queries = 0;
    bool live = false;
    // Whether the modb.cost.groups gauge currently counts this entry:
    // true from creation until tombstone, true again on revival. Distinct
    // from `live`, which only flips on while queries are attached.
    bool counted = false;
  };
  struct QueryEntry {
    std::string group_key;
    bool is_knn = false;
    double param = 0.0;
    CostCell cell;
    bool live = false;
  };

  mutable std::mutex mu_;
  // Entries are heap-owned and never erased: pointer stability for the
  // lock-free accounting path.
  std::map<std::string, std::unique_ptr<GroupEntry>> groups_;
  std::map<int64_t, std::unique_ptr<QueryEntry>> queries_;
};

// One shard's contribution to a merged report.
struct ShardCostBreakdown {
  size_t shard = 0;
  bool found = false;  // False: shard unavailable or id unknown there.
  size_t answer_size = 0;
  CostRow own;
  CostRow group;
};

// ExplainQuery's structured result. Deterministic for a deterministic
// workload once timing columns are excluded (include_timing=false in the
// renderers) — the golden tests rely on that.
struct QueryCostReport {
  int64_t query_id = -1;
  bool found = false;  // Id was never registered with this server.
  bool live = false;
  bool is_knn = false;
  double param = 0.0;
  std::string group_key;
  int64_t group_live_queries = 0;
  size_t answer_size = 0;  // Current answer (live queries only).
  CostRow own;
  CostRow group;
  uint64_t last_change_trace = 0;
  // Per-shard breakdown (empty for unsharded servers).
  std::vector<ShardCostBreakdown> shards;
};

// Renderers. `include_timing` guards the wall_micros column (excluded in
// golden tests; included in the CLI by default).
std::string RenderExplainText(const QueryCostReport& report,
                              bool include_timing);
std::string RenderExplainJson(const QueryCostReport& report,
                              bool include_timing);

// One db-top row.
struct TopEntry {
  int64_t id = -1;
  bool is_knn = false;
  double param = 0.0;
  std::string group_key;
  bool live = false;
  size_t answer_size = 0;
  uint64_t cost_score = 0;
  uint64_t churn_score = 0;
  CostRow own;
};

// Deterministic event-based ranking scores (no wall time, so rankings are
// reproducible): a query is charged its per-sharer slice of the group's
// event work plus everything it alone caused.
uint64_t CostScore(const CostRow& own, const CostRow& group,
                   int64_t group_sharers);
uint64_t ChurnScore(const CostRow& own);

// Stable sort by the chosen score descending, id ascending on ties.
void SortTop(std::vector<TopEntry>* entries, bool by_churn);
std::string RenderTopText(const std::vector<TopEntry>& entries, size_t limit,
                          bool by_churn);
std::string RenderTopJson(const std::vector<TopEntry>& entries, size_t limit,
                          bool by_churn);

}  // namespace obs
}  // namespace modb

#endif  // MODB_OBS_QUERY_COST_H_
