#ifndef MODB_CORE_SWEEP_STATE_H_
#define MODB_CORE_SWEEP_STATE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gdist/curve_batch.h"
#include "gdist/gdistance.h"
#include "index/event_queue.h"
#include "index/ordered_sequence.h"
#include "obs/modb_metrics.h"
#include "trajectory/mod.h"

namespace modb {

namespace obs {
class CostCell;
}  // namespace obs

// Receives the support changes the sweep discovers, in time order. The
// support (§5) is the minimal set of true order atoms between consecutive
// objects in the precedence relation; it changes exactly at these hooks.
// Query kernels (k-NN, within-range, ...) implement this interface to
// maintain their answers incrementally.
class SweepListener {
 public:
  virtual ~SweepListener() = default;

  // `left` and `right` were adjacent with left ≤ right; at `time` their
  // curves crossed and the order is now right ≤ left (the paper's two-step
  // switch through ≡_τ collapsed into one notification).
  virtual void OnSwap(double time, ObjectId left, ObjectId right) = 0;

  // `oid` entered the order (object creation).
  virtual void OnInsert(double time, ObjectId oid) = 0;

  // `oids` entered the order together at `time`: the sweep's founding
  // (SweepState::InsertObjects). The order is complete when this runs. The
  // default replays OnInsert per oid; a kernel may instead read its whole
  // answer off the order once.
  virtual void OnInsertBatch(double time, const std::vector<ObjectId>& oids) {
    for (ObjectId oid : oids) OnInsert(time, oid);
  }

  // `oid` left the order (termination).
  virtual void OnErase(double time, ObjectId oid) = 0;

  // `oid`'s curve was replaced (chdir); the order is unchanged at `time`.
  virtual void OnCurveChanged(double time, ObjectId oid) {
    (void)time;
    (void)oid;
  }
};

// The sweep's event counters: the paper's `m` (number of support changes)
// and the work behind it. These are the only counters the per-event code
// touches — plain single-writer fields; SweepState publishes their deltas
// to the process registry and the cost sink (see SweepState's invariant).
struct SweepStats {
  uint64_t swaps = 0;              // Intersection events processed.
  uint64_t inserts = 0;            // Objects entering the order.
  uint64_t erases = 0;             // Objects leaving the order.
  uint64_t curve_rebuilds = 0;     // chdir-driven curve replacements.
  uint64_t crossings_computed = 0; // Pairwise crossing computations.
  uint64_t schedules = 0;          // Events pushed onto the queue.
  uint64_t cancels = 0;            // Queued events erased before firing.
  uint64_t batch_lanes = 0;        // Crossings run as batched SOA lanes.
  size_t max_queue_length = 0;     // Peak event-queue length (≤ N - 1).

  uint64_t SupportChanges() const { return swaps + inserts + erases; }

  // Sums the counters; the peak takes the max.
  SweepStats& operator+=(const SweepStats& other) {
    swaps += other.swaps;
    inserts += other.inserts;
    erases += other.erases;
    curve_rebuilds += other.curve_rebuilds;
    crossings_computed += other.crossings_computed;
    schedules += other.schedules;
    cancels += other.cancels;
    batch_lanes += other.batch_lanes;
    max_queue_length = std::max(max_queue_length, other.max_queue_length);
    return *this;
  }
};

// The sweep state of §5: the object list L (precedence order ≤_τ at the
// current sweep time), the event queue E (one earliest-future intersection
// per currently adjacent pair, per Lemma 9), and the curves f_o. Both the
// past-query and the future-query engines drive this state; they differ
// only in where structural changes come from (replayed history vs. live
// updates).
//
// Order invariant: whenever no SweepState method is running, the order
// agrees with the curve values at now(), and the queue holds, for every
// adjacent pair, its first crossing in (now, horizon] if it has one, and
// nothing else (Lemma 9). Both are established at once by the founding
// (InsertObjects, Theorem 5.1) and repaired locally by every later mutator.
//
// Counting invariant: each event is counted once, in stats(). Every public
// mutator (InsertObject, InsertObjects, InsertSentinel, EraseObject,
// ReplaceCurve, ReplaceGDistance, AdvanceTo) and the destructor end in
// PublishStats(), which charges the stats() delta since the previous
// publish to the `modb.sweep.*` counters and the cost sink's GROUP
// columns, and adds the mutator's own span duration to the sink's
// `wall_micros`: a group's wall time is the sum of its `sweep.*` spans,
// timed once, by the spans themselves. So whenever no SweepState method is
// running, the registry deltas, the GROUP cell and stats() agree exactly.
// A founding counts what its N single inserts would leave behind: N
// inserts and one schedule per queued event, no cancels. A
// query-trajectory change (Theorem 10) counts every event it discards as a
// cancel and every rebuilt one as a schedule.
//
// Tracing: an AdvanceTo that processes at least one event writes one
// `sweep.cascade` span (t = the target time, arg = events processed); the
// structural mutators write one span each. The per-event `sweep.swap`,
// `sweep.schedule` and `sweep.cancel` instants are written only under
// obs::SetSweepTraceDetail(true). Counting stays with stats().
class SweepState {
 public:
  // `start_time` is the initial sweep position; no event before `horizon`
  // is ever missed, events after it are not scheduled (pass kInf for an
  // open horizon).
  SweepState(GDistancePtr gdist, double start_time, double horizon = kInf,
             EventQueueKind queue_kind = EventQueueKind::kIndexed);
  ~SweepState();

  SweepState(const SweepState&) = delete;
  SweepState& operator=(const SweepState&) = delete;

  // Listeners are notified of support changes in time order. Not owned;
  // must outlive the state.
  void AddListener(SweepListener* listener);

  // Detaches a previously added listener (no-op if absent). Kernels call
  // this from their destructors so a standing query can be torn down while
  // the sweep lives on (QueryServer::RemoveQuery).
  void RemoveListener(SweepListener* listener);

  double now() const { return now_; }
  double horizon() const { return horizon_; }
  size_t size() const { return order_.size(); }
  const OrderedSequence& order() const { return order_; }
  const SweepStats& stats() const { return stats_; }
  size_t queue_length() const { return queue_->size(); }
  const GDistance& gdistance() const { return *gdist_; }

  // Value of `oid`'s curve at time t, for t in [now(), horizon()] within
  // the object's domain: curves are built over that window only (a
  // g-distance may pack none of its curve before the sweep's clock).
  double CurveValue(ObjectId oid, double t) const;

  // Every queued intersection event, in deterministic order. O(E log E);
  // audit/debugging only.
  std::vector<SweepEvent> QueueSnapshot() const;

  // Independently recomputes the pair's earliest crossing strictly after
  // now() (the value Lemma 9 says the queue must hold for an adjacent
  // pair). Const and side-effect free — the SweepAuditor's ground truth;
  // does not count toward stats().crossings_computed.
  std::optional<double> PairFirstCrossing(ObjectId left, ObjectId right) const;

  // Opt-in verification hook, invoked after every processed intersection
  // event and after every structural mutation (insert/erase/curve
  // replacement) once the state is self-consistent again. Debug/test
  // instrumentation — the SweepAuditor attaches here; pass nullptr to
  // detach. Hooks must not mutate the state.
  void SetPostEventHook(std::function<void()> hook) {
    post_event_hook_ = std::move(hook);
  }
  bool ContainsObject(ObjectId oid) const { return order_.Contains(oid); }
  bool IsSentinel(ObjectId oid) const { return sentinels_.count(oid) > 0; }
  // All sentinel pseudo-objects currently in the order (usually very few:
  // one per registered range threshold).
  const std::set<ObjectId>& sentinels() const { return sentinels_; }

  // Inserts an object at the current time: O(log N) plus up to three
  // crossing computations. The trajectory must be defined at now().
  void InsertObject(ObjectId oid, const Trajectory& trajectory);

  // Theorem 5.1: founds the order at now() with every object of `objects`
  // (ascending oid; each trajectory defined at now()) in one sorted pass:
  // O(N log N) for the sort, O(N) to build the treap, N - 1 crossing
  // computations (batched like ReplaceGDistance) and an O(N) queue build.
  // The only residents allowed are sentinels. Ties in value keep oid
  // order, and an object equal to a sentinel's value goes before it — the
  // threshold is inclusive, as SnapshotWithin's `<=` is. Counts N inserts
  // and one schedule per queued event, notifies OnInsertBatch once and
  // runs the post-event hook once.
  void InsertObjects(
      const std::vector<std::pair<ObjectId, const Trajectory*>>& objects);

  // Inserts a pseudo-object whose curve is the constant `value`: the
  // paper's extension of ≤_τ to real numbers. Range queries use a constant
  // sentinel as the threshold; everything preceding it is within range.
  void InsertSentinel(ObjectId oid, double value);

  // Removes an object (termination): O(log N) plus one crossing
  // computation for the closing neighbor pair.
  void EraseObject(ObjectId oid);

  // Replaces `oid`'s curve after a chdir. The updated trajectory agrees
  // with the old one up to now(), so the order is unchanged; only the
  // object's two pair events are recomputed (O(log N)).
  void ReplaceCurve(ObjectId oid, const Trajectory& trajectory);

  // Theorem 10: the *query* trajectory changed at now(), so every curve
  // changes — but all curve values at now() are unchanged (continuity), so
  // the precedence order stays valid. Rebuilds all curves and re-derives
  // the event queue in O(N) heap work plus N - 1 crossing computations
  // (one SOA batch, staged from the in-effect pieces when every curve has
  // one), without re-sorting. `lookup` must return the trajectory of every
  // non-sentinel object in the state (the pointer only needs to stay valid
  // for the duration of the call).
  void ReplaceGDistance(
      GDistancePtr gdist,
      const std::function<const Trajectory*(ObjectId)>& lookup);
  // Convenience overload over a materialized map.
  void ReplaceGDistance(
      GDistancePtr gdist,
      const std::map<ObjectId, Trajectory>& trajectories);

  // True if an intersection event is pending at or before `t`.
  bool HasEventAtOrBefore(double t) const;

  // Processes every intersection event with time <= t (in time order,
  // ties in deterministic pair order) and advances the sweep to t.
  void AdvanceTo(double t);

  // Verifies that the maintained order matches curve values at now() and
  // that the queue length respects Lemma 9's bound; aborts on violation.
  // O(N log N); for tests.
  void CheckInvariants() const;

  // The arena every pooled curve lives in (introspection / tests).
  const PolySegPool& pool() const { return pool_; }

  // True if resident `oid`'s repairs and values read its in-effect piece
  // (one quadratic from the time its curve was stored to the horizon)
  // rather than walking its pooled curve (introspection / tests).
  bool HasInEffectPiece(ObjectId oid) const;

  // Cost-attribution sink: when set, every publish also adds the stats()
  // delta to the cell's sweep columns and the mutator's span duration to
  // its wall_micros. The sweep is shared by every query in its engine
  // group, so the sink is the GROUP cell of a QueryCostLedger. Null (the
  // default) disables attribution. Not owned; must outlive the state or be
  // reset to null first.
  void SetCostSink(obs::CostCell* cost) { cost_ = cost; }
  obs::CostCell* cost_sink() const { return cost_; }

 private:
  // The sweep's per-event code works on OrderedSequence slots: each
  // resident keeps its slot from insertion to erase, per-object state is
  // slot-indexed, and an event is queued under its left object's slot. Oids
  // are read (OidOf, an array read) only to build a SweepEvent, for
  // listeners and for trace instants. A public mutator resolves its oid to
  // a slot at most once; a processed event resolves none.
  using Slot = OrderedSequence::Slot;
  using SlotPair = std::pair<Slot, Slot>;
  static constexpr Slot kNoSlot = OrderedSequence::kNoSlot;

  // A curve is either a run of segments in the SOA pool (every builtin
  // polynomial g-distance of degree <= 2 — the common case, and the only
  // one the batched kernels see) or a general GCurve fallback (numeric
  // curves, degree > 2). A built entry is stored by its object's slot
  // (order_.SlotOf): the pooled id in pooled_, the fallback in general_.
  struct CurveEntry {
    PolySegPool::CurveId pooled = PolySegPool::kInvalidCurve;
    GCurve general;  // Engaged only when pooled == kInvalidCurve.
    bool is_pooled() const { return pooled != PolySegPool::kInvalidCurve; }
  };

  // The in_effect_ entry of a slot whose curve has no in-effect piece: a
  // NaN c2 (a real piece's c2 is never NaN, and a NaN one would only send
  // its slot down the walk, which computes the same bits).
  static constexpr InEffectPiece kWalk{
      0.0, 0.0, std::numeric_limits<double>::quiet_NaN()};
  static bool IsWalk(const InEffectPiece& piece) {
    return std::isnan(piece.c2);
  }

  double EntryValue(const CurveEntry& entry, double t) const;
  // Bit-identical to EntryValue on the slot's stored entry; reads the
  // slot's in-effect piece when it has one and t is in [now, horizon].
  double SlotValue(Slot slot, double t) const;
  // First crossing of slot a's curve over slot b's strictly within
  // (now, horizon] by walking the stored curves: `gdist.crossing_pooled`
  // when both are pooled, otherwise the general GCurve path on exact pool
  // round-trips. Const and side-effect free; callers account stats.
  std::optional<double> SlotFirstCrossing(Slot a, Slot b) const;
  // Builds the entry for a trajectory under the current g-distance over
  // [now(), horizon()] and checks that it covers now().
  CurveEntry BuildEntry(ObjectId oid, const Trajectory& trajectory);
  // Stores `entry` as `slot`'s curve; the slot holds none.
  void StoreEntry(Slot slot, CurveEntry entry);
  // Stores pooled curve `pooled` (or kInvalidCurve: the slot's curve is in
  // general_) as `slot`'s, with its in-effect piece over [now, horizon] or
  // kWalk. Grows the slot arrays to order_.slot_bound() as needed.
  void StorePooled(Slot slot, PolySegPool::CurveId pooled);
  // Frees `slot`'s curve.
  void ReleaseSlot(Slot slot);
  // The pair's first crossing strictly within (now, horizon], +inf if
  // none: one `gdist.crossing_in_effect` cell when both slots have their
  // in-effect pieces, else SlotFirstCrossing. Both give the walk's bits.
  double PairCrossing(Slot left, Slot right) const;
  // Schedules the pair of adjacent slots (left before right).
  void SchedulePair(Slot left, Slot right);
  // The event of the pair (left, right) at `time`, with the slots' oids.
  SweepEvent PairEvent(double time, Slot left, Slot right) const {
    return SweepEvent{time, order_.OidOf(left), order_.OidOf(right)};
  }
  // Queues a computed event under its left object's slot and counts it as
  // scheduled.
  void PushEvent(const SweepEvent& event, Slot left);
  // Erases the pair's event, if queued, counting it as cancelled.
  void CancelPair(Slot left, Slot right);
  // Recomputes one event per adjacent pair of `slots` (the current order,
  // front to back) and bulk-builds the queue: O(N) heap work plus N - 1
  // crossings in one SOA pass: one cell per pair staged from the slot
  // records when every curve has its in-effect piece, else
  // `gdist.crossing_batch` when every curve is pooled. The founding
  // (Theorem 5.1) and the query-chdir rebuild (Theorem 10) share it.
  // Counts the crossings, every event it discards as cancelled and every
  // event it queues as scheduled.
  void RebuildPairEvents(const std::vector<Slot>& slots);
  // Shared tail of InsertObject / InsertSentinel: places `oid` in the
  // order at `value` (its entry's value at now()), stores the entry by the
  // slot it gets, dissolves the neighbours' old pair, schedules the two
  // new ones and notifies.
  void PlaceInserted(ObjectId oid, double value, CurveEntry entry);
  // Charges the stats() delta since the last publish to the registry and
  // the cost sink, adds `wall_us` (the closing mutator's span duration) to
  // the sink's wall_micros, and raises the peak gauges (see the class
  // comment).
  void PublishStats(uint64_t wall_us);
  // The registry refresh hook: republishes the derived gauges (treap
  // depth watermark, current order/queue size) so every metrics snapshot —
  // db-stats, --stats on any verb, bench --json — renders them fresh.
  // O(1): nothing walks the tree.
  void RefreshDerivedGauges() const;
  // Swaps the popped event's pair; its key is the left object's slot.
  void ProcessEvent(const KeyedEvent& popped);
  void NoteQueueLength();
  void RunPostEventHook() const {
    if (post_event_hook_) post_event_hook_();
  }

  GDistancePtr gdist_;
  double now_;
  double horizon_;
  PolySegPool pool_;
  // Slot → pooled curve id; kInvalidCurve for a general_ curve or a free
  // slot. Slots come from order_.
  std::vector<PolySegPool::CurveId> pooled_;
  // Slot → the curve's in-effect piece over [now, horizon] as of when it
  // was stored (it stays in effect as now advances), or kWalk. What the
  // per-event repairs and SlotValue read: one slot-indexed record instead
  // of the id → meta → segment planes chain.
  std::vector<InEffectPiece> in_effect_;
  // Slot → fallback curve, filled only by non-poolable g-distances.
  std::unordered_map<Slot, GCurve> general_;
  std::set<ObjectId> sentinels_;
  OrderedSequence order_;
  std::unique_ptr<EventQueue> queue_;
  std::vector<SweepListener*> listeners_;
  std::function<void()> post_event_hook_;
  SweepStats stats_;
  // stats_ as of the last PublishStats().
  SweepStats published_;
  RootOptions root_options_;
  // Cached at construction: PublishStats needs no registry lookup.
  obs::ModbMetrics* metrics_;
  // Cost-attribution sink (see SetCostSink); null disables.
  obs::CostCell* cost_ = nullptr;
  // Registered while the state lives; removed (after one last refresh)
  // by the destructor so post-teardown renders see final values.
  uint64_t refresh_hook_id_;
};

}  // namespace modb

#endif  // MODB_CORE_SWEEP_STATE_H_
