#ifndef MODB_OBS_MODB_METRICS_H_
#define MODB_OBS_MODB_METRICS_H_

#include "obs/metrics.h"

namespace modb {
namespace obs {

// Every metric this codebase emits, registered once in the global
// MetricsRegistry and reachable through one cached struct. Instrumented
// code calls `obs::M().server_updates->Increment()` — the M() call is a
// function-local-static load, the mutation a relaxed atomic.
//
// The names, units and theorem/lemma anchors are documented in
// docs/METRICS.md; tests/obs_test.cc diffs that table against
// MetricsRegistry::Names() after M() has run, so adding a metric here
// without documenting it (or vice versa) fails the build's test suite.
struct ModbMetrics {
  // ---- the sweep itself (SweepState; Theorems 4/5, Lemma 9) ----
  Counter* sweep_swaps;
  Counter* sweep_inserts;
  Counter* sweep_erases;
  Counter* sweep_support_changes;
  Counter* sweep_curve_rebuilds;
  Counter* sweep_crossings_computed;
  Counter* sweep_events_scheduled;
  Counter* sweep_events_cancelled;
  Gauge* sweep_order_size;
  Gauge* sweep_order_depth_peak;
  Gauge* sweep_queue_peak;

  // ---- future/continuing queries (FutureQueryEngine; Theorem 5) ----
  Counter* future_updates;
  Histogram* future_update_seconds;
  Histogram* future_update_support_changes;
  Histogram* future_start_seconds;

  // ---- past queries (PastQueryEngine; Theorem 4) ----
  Counter* past_runs;
  Histogram* past_run_seconds;
  Histogram* past_run_support_changes;
  Histogram* past_admitted_objects;

  // ---- answers (AnswerTimeline) ----
  Counter* answer_changes;

  // ---- the multi-query server (QueryServer) ----
  Gauge* server_queries;
  Gauge* server_engines;
  Counter* server_updates;
  Counter* server_update_fanout;

  // ---- durability (src/durability) ----
  Counter* wal_appends;
  Counter* wal_append_bytes;
  Counter* wal_syncs;
  Counter* wal_failures;
  Counter* commit_flushes;
  Histogram* commit_batch_updates;
  Histogram* commit_flush_seconds;
  Counter* checkpoint_attempts;
  Counter* checkpoint_failures;
  Histogram* checkpoint_seconds;
  Counter* snapshot_writes;
  Counter* snapshot_write_bytes;
  Counter* recovery_runs;
  Counter* recovery_replayed_updates;
  Counter* recovery_skipped_updates;
  Counter* recovery_torn_tails;
  Counter* degraded_entries;

  // ---- tracing (src/obs/flight_recorder) ----
  Gauge* trace_events_recorded;
  Gauge* trace_events_dropped;

  // ---- sharded server (src/shard) ----
  Gauge* shard_count;
  Counter* shard_updates;
  Counter* shard_dispatches;
  Histogram* shard_dispatch_seconds;
  Counter* shard_merges;
  Histogram* shard_merge_seconds;
  Counter* shard_publishes;
  Counter* shard_answer_retries;
  Gauge* shard_degraded;
  Counter* shard_epoch_durable;
  Counter* shard_epoch_rollbacks;

  // ---- cost attribution (src/obs/query_cost, src/obs/slow_log) ----
  Gauge* cost_groups;
  Gauge* cost_queries;
  Counter* slowlog_offers;
  Counter* slowlog_admits;
};

// The process-wide instance; registers everything on first call.
ModbMetrics& M();

}  // namespace obs
}  // namespace modb

#endif  // MODB_OBS_MODB_METRICS_H_
