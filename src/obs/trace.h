#ifndef MODB_OBS_TRACE_H_
#define MODB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <limits>

namespace modb {
namespace obs {

// Causal tracing for the update → WAL → sweep → answer pipeline. Metrics
// (metrics.h) count *how much*; traces record *why*: each Definition-3
// update, WAL append, checkpoint, recovery and query evaluation opens a
// span carrying a trace id, and the sweep-internal work it triggers —
// structural mutations, event cascades, timeline mutations (and, as
// detail, single adjacency swaps and event scheduling/cancellation) —
// lands as child spans and instant events under it.
// Everything is written into the process-wide FlightRecorder ring
// (flight_recorder.h) and exported as Chrome trace-event JSON, so one
// update's whole Lemma 7 repair cascade is a visible timeline in
// Perfetto.
//
// Propagation is ambient: a thread-local (trace id, span id) context.
// The first TraceSpan on a thread becomes a root and draws a fresh trace
// id; nested spans and instants inherit it. SweepState's mutation API
// takes no context argument — the enclosing engine span is simply the
// current context when the mutation runs.
//
// Cost model (the tracing analogue of the metrics <5% budget): a span is
// two clock reads plus one ring write; a timed instant is one clock read
// plus one write; a *coarse* instant reuses the last wall timestamp the
// current thread captured (one thread-local read plus one write). The
// sweep's per-support-change work writes nothing by default: one
// `sweep.cascade` span covers every event SweepState::AdvanceTo processes
// (arg = the event count), so an update costs O(1) records however many
// support changes it commits. The per-event `sweep.swap` (timed) and
// `sweep.schedule` / `sweep.cancel` (coarse) instants are *detail*,
// written only while SetSweepTraceDetail(true) is in force; off, each
// costs one relaxed load and a predictable branch. A span is also the one
// timer of its scope: TraceSpan::Close() hands back the duration it
// recorded, which feeds the scope's latency histogram, slow-log record or
// the GROUP `wall_micros` cost column, so no scope reads the clock twice
// over.

// Every span and instant name, one enum value per row of the taxonomy
// table in docs/TRACING.md (tests/trace_test.cc diffs the two, the same
// lockstep pattern METRICS.md uses).
enum class SpanName : uint8_t {
  // Complete spans (ph "X"): top-level operations and structural sweep
  // mutations.
  kDurableUpdate,   // durable.update  DurableQueryServer::ApplyUpdate
  kCommitGroup,     // commit.group    one group-commit flush (leader)
  kCommitBatch,     // commit.batch    one Commit()'s updates inside a flush
  kWalAppend,       // wal.append      WalWriter::AppendBatch
  kWalSync,         // wal.sync        WalWriter::Sync
  kCheckpoint,      // checkpoint      sync, rotate, snapshot write, prune
  kRecovery,        // recovery        RecoverDatabase
  kServerUpdate,    // server.update   QueryServer::ApplyUpdate
  kServerAdvance,   // server.advance  QueryServer::AdvanceTo (query eval)
  kQueryRegister,   // query.register  QueryServer::AddKnn/AddWithin
  kUpdateApply,     // update.apply    FutureQueryEngine::ApplyUpdate
  kEngineStart,     // engine.start    FutureQueryEngine::Start
  kQueryChdir,      // query.chdir     FutureQueryEngine::ChangeQueryGDistance
  kPastRun,         // past.run        PastQueryEngine::Run
  kShardDispatch,   // shard.dispatch  one per-shard pool task (apply/advance)
  kShardMerge,      // shard.merge     one cross-shard answer merge
  kShardRecover,    // shard.recover   shard recoveries + epoch-cut heal, reopen
  kSweepInsert,     // sweep.insert    SweepState::InsertObject(s)/Sentinel
  kSweepErase,      // sweep.erase     SweepState::EraseObject
  kSweepCurve,      // sweep.curve     SweepState::ReplaceCurve
  kSweepRebuild,    // sweep.rebuild   SweepState::ReplaceGDistance
  kSweepCascade,    // sweep.cascade   SweepState::AdvanceTo, >= 1 event due
  // Instant events (ph "i"). The three sweep.* ones are detail (see
  // SetSweepTraceDetail).
  kSweepSwap,       // sweep.swap      one processed intersection event
  kSweepSchedule,   // sweep.schedule  event pushed into the queue
  kSweepCancel,     // sweep.cancel    queued event removed before firing
  kAnswerChange,    // answer.change   AnswerTimeline pending-set change
  kDegradedEntry,   // degraded.entry  durable server fail-stop transition
  kAuditViolation,  // audit.violation first AuditingObserver violation
  kFuzzFailure,     // fuzz.failure    modb_fuzz failure dump marker
  kSlowAdmit,       // slowlog.admit   update admitted to the slow-update log
};

// One past the last SpanName value; AllSpanNames() iterates with it.
inline constexpr uint8_t kSpanNameCount =
    static_cast<uint8_t>(SpanName::kSlowAdmit) + 1;

// The exported event name ("durable.update", "sweep.swap", ...).
const char* SpanNameString(SpanName name);

// True for instant events (exported with ph "i"), false for complete
// spans (ph "X").
bool SpanNameIsInstant(SpanName name);

// No object/query attached to this record.
inline constexpr int64_t kTraceNoId = std::numeric_limits<int64_t>::min();

// Monotonic microseconds since the first trace call in the process (so
// exported timestamps start near zero). On x86-64 this is the invariant
// TSC anchored once against steady_clock (~8 ns a read instead of ~30 ns
// through the vDSO — the difference matters at one read per support
// change); elsewhere it falls back to steady_clock.
uint64_t TraceNowMicros();

// RAII complete-span: captures the wall interval of a scope and records
// it on Close() or, if never closed, on destruction. Construction pushes
// this span as the thread's current context (a fresh trace id when there
// is no enclosing span); recording restores the parent.
class TraceSpan {
 public:
  // `oid` is the object/query the operation concerns (kTraceNoId when
  // none), `model_time` the sweep/update time in model units (NaN when
  // none), `arg` a free per-name detail (update kind, byte count, ...).
  explicit TraceSpan(SpanName name, int64_t oid = kTraceNoId,
                     double model_time =
                         std::numeric_limits<double>::quiet_NaN(),
                     uint64_t arg = 0);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

  // Replaces the span's `arg` before it is recorded (a count known only
  // when the scope ends).
  void set_arg(uint64_t arg) { arg_ = arg; }

  // Records the span now and returns the `dur_us` its record carries, so
  // the span's two clock reads also feed a histogram, a slow-log record
  // or a cost column. At most once; the destructor then records nothing.
  uint64_t Close();

  // The propagated trace id (root: freshly drawn; nested: inherited).
  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }

 private:
  SpanName name_;
  int64_t oid_;
  double model_time_;
  uint64_t arg_;
  uint64_t trace_id_;
  uint64_t span_id_;
  uint64_t parent_span_id_;  // Restored when the span is recorded.
  uint64_t start_us_;
  bool closed_ = false;
};

// Records an instant event under the current context. With
// `coarse = true` the timestamp is the thread's last captured wall time
// instead of a fresh clock read — the per-support-change hot path uses
// this (see the cost model above).
void TraceInstant(SpanName name, int64_t oid = kTraceNoId,
                  double model_time =
                      std::numeric_limits<double>::quiet_NaN(),
                  uint64_t arg = 0, bool coarse = false);

// The current thread's propagated trace id; 0 when no span is open.
uint64_t CurrentTraceId();

namespace internal {
inline std::atomic<bool> sweep_trace_detail{false};
}  // namespace internal

// Process-wide switch for the per-support-change instants (`sweep.swap`,
// `sweep.schedule`, `sweep.cancel`), off by default. Readers of individual
// pairs turn it on: `bench_figure2_scenario --trace` and `modb_fuzz`,
// whose failure dump is the repro's causal trace. With it on, the
// instants nest under their `sweep.cascade` (or structural `sweep.*`)
// span. Relaxed: a thread may see a flip late, which only decides whether
// a diagnostic record is written.
inline bool SweepTraceDetail() {
  return internal::sweep_trace_detail.load(std::memory_order_relaxed);
}
inline void SetSweepTraceDetail(bool on) {
  internal::sweep_trace_detail.store(on, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace modb

#endif  // MODB_OBS_TRACE_H_
