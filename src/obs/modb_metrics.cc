#include "obs/modb_metrics.h"

namespace modb {
namespace obs {

namespace {

ModbMetrics Register() {
  MetricsRegistry& r = MetricsRegistry::Global();
  ModbMetrics m;

  // Sweep counters. support_changes is the paper's m: every swap, insert
  // and erase on the precedence order <=_tau charges one support change
  // (Theorems 4 and 5 bound total work by O((m + N) log N)).
  m.sweep_swaps = r.RegisterCounter(
      "modb.sweep.swaps", "events",
      "Adjacent-pair order swaps processed by the sweep (Theorem 4/5 "
      "support changes of kind 'swap').");
  m.sweep_inserts = r.RegisterCounter(
      "modb.sweep.inserts", "objects",
      "Objects (and sentinels) inserted into the precedence order.");
  m.sweep_erases = r.RegisterCounter(
      "modb.sweep.erases", "objects",
      "Objects erased from the precedence order.");
  m.sweep_support_changes = r.RegisterCounter(
      "modb.sweep.support_changes", "changes",
      "Total support changes m = swaps + inserts + erases; the cost "
      "quantity of Theorems 4 and 5.");
  m.sweep_curve_rebuilds = r.RegisterCounter(
      "modb.sweep.curve_rebuilds", "curves",
      "Per-object curve replacements (updates changing a trajectory).");
  m.sweep_crossings_computed = r.RegisterCounter(
      "modb.sweep.crossings_computed", "computations",
      "Adjacent-pair crossing computations (root isolations) performed.");
  m.sweep_events_scheduled = r.RegisterCounter(
      "modb.sweep.events_scheduled", "events",
      "Intersection events pushed into the event queue (Lemma 9 keeps at "
      "most one per adjacent pair).");
  m.sweep_events_cancelled = r.RegisterCounter(
      "modb.sweep.events_cancelled", "events",
      "Scheduled events removed before firing (pair no longer adjacent).");
  m.sweep_order_size = r.RegisterGauge(
      "modb.sweep.order_size", "objects",
      "Current size N of the precedence order (objects + sentinels); "
      "last writer wins when several sweeps run.");
  m.sweep_order_depth_peak = r.RegisterGauge(
      "modb.sweep.order_depth_peak", "levels",
      "Peak treap insertion-path depth observed; expected O(log N).");
  m.sweep_queue_peak = r.RegisterGauge(
      "modb.sweep.queue_peak", "events",
      "Peak event-queue length observed; Lemma 9 bounds it by N - 1.");

  // Future/continuing queries (Theorem 5).
  m.future_updates = r.RegisterCounter(
      "modb.future.updates", "updates",
      "Updates applied through FutureQueryEngine::ApplyUpdate.");
  m.future_update_seconds = r.RegisterHistogram(
      "modb.future.update_seconds", "seconds",
      "Wall time per ApplyUpdate (Theorem 5.2: O(m log N) expected).",
      LatencyBuckets());
  m.future_update_support_changes = r.RegisterHistogram(
      "modb.future.update_support_changes", "changes",
      "Support changes m charged by a single update (Corollary 6: O(1) "
      "for bounded-disturbance updates).",
      SizeBuckets());
  m.future_start_seconds = r.RegisterHistogram(
      "modb.future.start_seconds", "seconds",
      "Wall time of FutureQueryEngine::Start (Theorem 5.1: O(N log N)).",
      LatencyBuckets());

  // Past queries (Theorem 4).
  m.past_runs = r.RegisterCounter(
      "modb.past.runs", "queries",
      "Historical sweeps executed by PastQueryEngine::Run.");
  m.past_run_seconds = r.RegisterHistogram(
      "modb.past.run_seconds", "seconds",
      "Wall time per past-query run (Theorem 4: O((m + N) log N)).",
      LatencyBuckets());
  m.past_run_support_changes = r.RegisterHistogram(
      "modb.past.run_support_changes", "changes",
      "Support changes m replayed by a single past-query run.",
      SizeBuckets());
  m.past_admitted_objects = r.RegisterHistogram(
      "modb.past.admitted_objects", "objects",
      "Objects a single past-query run inserted into its sweep (all live "
      "ones, or only those that may reach a within threshold).",
      SizeBuckets());

  // Answers.
  m.answer_changes = r.RegisterCounter(
      "modb.query.answer_changes", "changes",
      "Times a query's pending answer set actually changed (answer "
      "churn; repeated identical answers are not counted).");

  // Multi-query server.
  m.server_queries = r.RegisterGauge(
      "modb.server.queries", "queries",
      "Continuing queries currently registered with the QueryServer.");
  m.server_engines = r.RegisterGauge(
      "modb.server.engines", "engines",
      "Live sweep engines backing those queries (shared-sweep grouping).");
  m.server_updates = r.RegisterCounter(
      "modb.server.updates", "updates",
      "Updates the QueryServer has accepted.");
  m.server_update_fanout = r.RegisterCounter(
      "modb.server.update_fanout", "applications",
      "Engine-level update applications (one per engine per update); "
      "fanout ratio = update_fanout / updates.");

  // Durability.
  m.wal_appends = r.RegisterCounter(
      "modb.wal.appends", "records",
      "Records appended to the write-ahead log.");
  m.wal_append_bytes = r.RegisterCounter(
      "modb.wal.append_bytes", "bytes",
      "Framed bytes written to the WAL (header + payload + CRC).");
  m.wal_syncs = r.RegisterCounter(
      "modb.wal.syncs", "calls",
      "Successful WAL fsync calls.");
  m.wal_failures = r.RegisterCounter(
      "modb.wal.failures", "errors",
      "WAL append or sync failures (each also drives fail-stop health).");
  m.commit_flushes = r.RegisterCounter(
      "modb.commit.flushes", "flushes",
      "Group-commit flushes (one WAL append, at most one fsync each); "
      "amortization ratio = batch updates / flushes.");
  m.commit_batch_updates = r.RegisterHistogram(
      "modb.commit.batch_updates", "updates",
      "Definition-3 updates carried by a single group flush (batch size "
      "after leader/follower merging).",
      SizeBuckets());
  m.commit_flush_seconds = r.RegisterHistogram(
      "modb.commit.flush_seconds", "seconds",
      "Wall time of the shared WAL append + fsync of one group flush.",
      LatencyBuckets());
  m.checkpoint_attempts = r.RegisterCounter(
      "modb.checkpoint.attempts", "checkpoints",
      "Checkpoint attempts started by the durable server.");
  m.checkpoint_failures = r.RegisterCounter(
      "modb.checkpoint.failures", "errors",
      "Checkpoint attempts that failed (checkpoints are retryable).");
  m.checkpoint_seconds = r.RegisterHistogram(
      "modb.checkpoint.seconds", "seconds",
      "Wall time of a whole checkpoint (WAL sync, segment rotation, "
      "snapshot write and prune).",
      LatencyBuckets());
  m.snapshot_writes = r.RegisterCounter(
      "modb.snapshot.writes", "snapshots",
      "Snapshot files written (tmp + fsync + rename).");
  m.snapshot_write_bytes = r.RegisterCounter(
      "modb.snapshot.write_bytes", "bytes",
      "Bytes of snapshot text written.");
  m.recovery_runs = r.RegisterCounter(
      "modb.recovery.runs", "recoveries",
      "Database recoveries executed (snapshot load + WAL replay).");
  m.recovery_replayed_updates = r.RegisterCounter(
      "modb.recovery.replayed_updates", "updates",
      "WAL update records replayed during recovery.");
  m.recovery_skipped_updates = r.RegisterCounter(
      "modb.recovery.skipped_updates", "updates",
      "WAL update records skipped as already covered by the snapshot.");
  m.recovery_torn_tails = r.RegisterCounter(
      "modb.recovery.torn_tails", "tails",
      "Recoveries that found and truncated a torn WAL tail.");
  m.degraded_entries = r.RegisterCounter(
      "modb.server.degraded_entries", "transitions",
      "Transitions of the durable server into fail-stop degraded mode.");

  // Tracing. Refreshed from the flight recorder by a registry refresh
  // hook, like every other derived gauge.
  m.trace_events_recorded = r.RegisterGauge(
      "modb.trace.events_recorded", "events",
      "Spans/instants ever written to the flight recorder ring.");
  m.trace_events_dropped = r.RegisterGauge(
      "modb.trace.events_dropped", "events",
      "Oldest flight-recorder records lost to ring wraparound.");

  // Sharded server. The dispatch/merge split mirrors the two halves of
  // every sharded operation: fan work out to per-shard tasks, then merge
  // the per-shard answers.
  m.shard_count = r.RegisterGauge(
      "modb.shard.count", "shards",
      "Shards of the most recently opened ShardedQueryServer.");
  m.shard_updates = r.RegisterCounter(
      "modb.shard.updates", "updates",
      "Definition-3 updates routed through a ShardedQueryServer.");
  m.shard_dispatches = r.RegisterCounter(
      "modb.shard.dispatches", "tasks",
      "Per-shard tasks dispatched through the fork/join pool (commit "
      "phase-1 sub-batch logs and advance fan-outs).");
  m.shard_dispatch_seconds = r.RegisterHistogram(
      "modb.shard.dispatch_seconds", "seconds",
      "Wall time of one per-shard task: take the shard lock, then durably "
      "log the commit's epoch-stamped sub-batch (phase 1; the phase-2 "
      "apply and republish are not timed) or advance the shard and "
      "republish its answer cells.",
      LatencyBuckets());
  m.shard_merges = r.RegisterCounter(
      "modb.shard.merges", "merges",
      "Cross-shard answer merges served (lock-free standing-query reads "
      "and one-shot snapshot queries).");
  m.shard_merge_seconds = r.RegisterHistogram(
      "modb.shard.merge_seconds", "seconds",
      "Wall time of one cross-shard merge: read every shard's seqlock "
      "cell, k-way merge the candidates.",
      LatencyBuckets());
  m.shard_publishes = r.RegisterCounter(
      "modb.shard.publishes", "publishes",
      "Per-(shard, query) seqlock answer publications.");
  m.shard_answer_retries = r.RegisterCounter(
      "modb.shard.answer_retries", "retries",
      "Seqlock answer reads that overlapped a publish and went around "
      "again (torn copies detected and discarded).");
  m.shard_degraded = r.RegisterGauge(
      "modb.shard.degraded", "shards",
      "Shards currently fail-stopped (sticky I/O failure or failed open); "
      "commits touching one fail kUnavailable while commits routed "
      "entirely to healthy shards keep succeeding.");
  m.shard_epoch_durable = r.RegisterCounter(
      "modb.shard.epoch.durable", "epochs",
      "Cross-shard commit epochs whose phase-1 append succeeded on every "
      "participating shard (the batch is durable as a unit).");
  m.shard_epoch_rollbacks = r.RegisterCounter(
      "modb.shard.epoch.rollback", "shards",
      "Shards truncated back to the consistent epoch cut during sharded "
      "recovery (the shard ran ahead of a crash-interrupted commit).");

  // Cost attribution (QueryCostLedger + SlowLog).
  m.cost_groups = r.RegisterGauge(
      "modb.cost.groups", "groups",
      "Engine-group rows ever created in query-cost ledgers (rows are "
      "tombstoned, never freed).");
  m.cost_queries = r.RegisterGauge(
      "modb.cost.queries", "queries",
      "Live per-query rows in query-cost ledgers (retired queries leave "
      "their rows behind but stop counting here).");
  m.slowlog_offers = r.RegisterCounter(
      "modb.slowlog.offers", "updates",
      "Updates/chdir cascades offered to the slow-update log (every "
      "instrumented engine entry point offers).");
  m.slowlog_admits = r.RegisterCounter(
      "modb.slowlog.admits", "updates",
      "Offers costly enough to enter the slow-update ring (displacing "
      "the current cheapest entry once the ring is full).");

  return m;
}

}  // namespace

ModbMetrics& M() {
  static ModbMetrics metrics = Register();
  return metrics;
}

}  // namespace obs
}  // namespace modb
