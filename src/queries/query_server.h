#ifndef MODB_QUERIES_QUERY_SERVER_H_
#define MODB_QUERIES_QUERY_SERVER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/future_engine.h"
#include "obs/query_cost.h"
#include "queries/knn.h"
#include "queries/within.h"

namespace modb {

// Handle for a registered standing query.
using QueryId = int64_t;

// A multi-query continuing-query service: the deployment shape the paper's
// design implies. Many standing queries — k-NN displays, proximity alert
// rings, dispatch rankings — run against one database; queries that share
// a g-distance share a single sweep (one object order, one event queue:
// the support is query-independent, only the kernels differ), so the
// per-update cost is paid once per *distance*, not once per query.
//
// Usage:
//   QueryServer server(std::move(mod), /*start_time=*/0.0);
//   QueryId nearest = server.AddKnn("radar", radar_gdist, 3);
//   QueryId alert = server.AddWithin("radar", radar_gdist, 50.0 * 50.0);
//   server.ApplyUpdate(u);           // fans out to every engine
//   server.Answer(nearest);          // current valid answer
//
// The string key identifies the shared sweep; the GDistancePtr passed with
// the first query under a key is used for the whole group (later calls
// must pass an equivalent distance — not checked, by design: some callers
// construct equal distances at different addresses).
class QueryServer {
 public:
  // The server owns the MOD, and every engine group reads that one copy.
  // `start_time` must be at or after the MOD's last update time.
  QueryServer(MovingObjectDatabase mod, double start_time);

  // Registers standing queries under next_query_id(). O(N log N) for the
  // first query under a key (builds the sweep); O(N) kernel attach for
  // subsequent ones.
  QueryId AddKnn(const std::string& gdist_key, GDistancePtr gdist, size_t k);
  QueryId AddWithin(const std::string& gdist_key, GDistancePtr gdist,
                    double threshold);

  // Unregisters a standing query: the kernel detaches from the shared
  // sweep (a within kernel also withdraws its sentinel from the order),
  // and when the last kernel under a gdist key is removed the whole
  // EngineGroup — engine, sweep, event queue — is torn down, so a
  // long-lived server does not accumulate dead sweeps. NotFound for an
  // unknown or already-removed id.
  Status RemoveQuery(QueryId id);

  // Applies one update to the database once and repairs every registered
  // sweep. A rejected update (MovingObjectDatabase::Check, or a time
  // before now()) changes nothing: no clock, answer or timeline moves.
  Status ApplyUpdate(const Update& update);

  // Advances every sweep's clock (answers become current for time t).
  void AdvanceTo(double t);

  // The id the next registration gets. Ids are never reused: the counter
  // only moves up, by registration or by RaiseNextQueryId.
  QueryId next_query_id() const { return next_id_; }
  // Moves the counter up to `id` (CHECKs that it does not go down), so the
  // next registration gets `id`: a durable or sharded caller that chose
  // the id itself registers it under that same id here.
  void RaiseNextQueryId(QueryId id);

  double now() const { return now_; }
  size_t query_count() const { return queries_.size(); }
  // Number of distinct sweeps (shared g-distance groups).
  size_t engine_count() const { return engines_.size(); }

  // The current (valid) answer of a standing query.
  const std::set<ObjectId>& Answer(QueryId id) const;

  // The recorded evolution of a standing query since registration. The
  // timeline is unfinished (grows as the server advances).
  const AnswerTimeline& Timeline(QueryId id) const;

  // The sweep that ranks a live query: its group's, under the g-distance
  // the first query registered under its key fixed (aborts on unknown
  // id). Every answer member is a resident, so its value at now() is
  // CurveValue(oid, now()), bit-identical to GDistance::ValueAt.
  const SweepState& QuerySweep(QueryId id) const;

  // Aggregate sweep statistics across all engines.
  SweepStats TotalStats() const;

  // Visits every shared-sweep engine, keyed by its gdist group. The
  // verification subsystem uses this to attach auditors; callers must not
  // destroy engines.
  void VisitEngines(
      const std::function<void(const std::string&, FutureQueryEngine&)>& fn);

  // The server's database state, which every engine reads; recovery and
  // checkpointing read it too.
  const MovingObjectDatabase& mod() const { return *mod_; }

  // ---- cost attribution (docs/QUERYCOST.md) ------------------------------

  // The per-server cost ledger: one GROUP row per engine group (charged by
  // the shared sweep) and one QUERY row per registered query (answer
  // churn, sentinel swaps). Rows survive query removal as tombstones.
  const obs::QueryCostLedger& cost_ledger() const { return *ledger_; }
  obs::QueryCostLedger& cost_ledger() { return *ledger_; }

  // Structured cost report for `id` (found == false if the id was never
  // registered; removed queries still report their accumulated costs).
  // Deterministic for a deterministic workload once timing columns are
  // excluded in rendering.
  obs::QueryCostReport ExplainQuery(QueryId id) const;

  // One TopEntry per query ever registered, unsorted (rank with
  // obs::SortTop). Scores are event-based and deterministic.
  std::vector<obs::TopEntry> TopQueries() const;

 private:
  struct EngineGroup {
    std::unique_ptr<FutureQueryEngine> engine;
    std::map<QueryId, std::unique_ptr<KnnKernel>> knn_kernels;
    std::map<QueryId, std::unique_ptr<WithinKernel>> within_kernels;
  };
  struct QueryRef {
    std::string key;
    bool is_knn;
  };

  EngineGroup& GroupFor(const std::string& key, const GDistancePtr& gdist);

  // The one MOD of this server; every engine borrows it. Heap-owned, like
  // ledger_, so an engine's reference survives a server move.
  std::unique_ptr<MovingObjectDatabase> mod_;
  double now_;
  // Heap-owned so the server stays movable (the ledger holds a mutex) and
  // cached CostCell pointers survive a server move. Declared before
  // engines_ so it outlives them: a within kernel's destructor erases its
  // sentinel, and that erase is charged to the group's cell.
  std::unique_ptr<obs::QueryCostLedger> ledger_ =
      std::make_unique<obs::QueryCostLedger>();
  std::map<std::string, EngineGroup> engines_;
  std::map<QueryId, QueryRef> queries_;
  QueryId next_id_ = 0;
  ObjectId next_sentinel_ = -1000000;
};

}  // namespace modb

#endif  // MODB_QUERIES_QUERY_SERVER_H_
