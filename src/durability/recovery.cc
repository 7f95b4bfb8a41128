#include "durability/recovery.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "durability/snapshot.h"
#include "obs/modb_metrics.h"
#include "obs/trace.h"
#include "trajectory/serialization.h"

namespace modb {
namespace {

struct SegmentFile {
  uint64_t start_seq = 0;
  std::string path;
};

StatusOr<std::vector<SegmentFile>> ListSegments(const std::string& dir,
                                                Env* env) {
  std::vector<SegmentFile> segments;
  StatusOr<std::vector<std::string>> children = env->GetChildren(dir);
  if (!children.ok()) {
    // ENOENT means "no durable state yet"; any other listing failure must
    // surface as an error — treating an unreadable directory as empty
    // would silently orphan real data behind a fresh initialization.
    if (children.status().code() == StatusCode::kNotFound) return segments;
    return children.status();
  }
  for (const std::string& name : *children) {
    const std::optional<uint64_t> seq = ParseWalFileName(name);
    if (seq.has_value()) {
      segments.push_back(SegmentFile{*seq, dir + "/" + name});
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.start_seq < b.start_seq;
            });
  return segments;
}

// True when a ReadWalSegment failure means the segment carries no usable
// state at all (torn/garbage *header*). I/O errors are the opposite case:
// the file exists and may be perfectly fine — the read itself failed.
bool IsHeaderCorruption(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument;
}

}  // namespace

StatusOr<RecoveryResult> RecoverDatabase(const std::string& dir,
                                         const RecoveryOptions& options) {
  obs::TraceSpan span(obs::SpanName::kRecovery);
  Env* env = options.env != nullptr ? options.env : Env::Default();
  StatusOr<std::vector<SnapshotInfo>> snapshots =
      SnapshotManager::List(dir, env);
  MODB_RETURN_IF_ERROR(snapshots.status());
  StatusOr<std::vector<SegmentFile>> listed = ListSegments(dir, env);
  MODB_RETURN_IF_ERROR(listed.status());
  std::vector<SegmentFile>& segments = *listed;
  if (snapshots->empty() && segments.empty()) {
    return Status::NotFound("no durable state in " + dir);
  }

  RecoveryResult result;

  // 1. Seed from the newest snapshot that parses; corrupt snapshots are
  // skipped (the atomic-rename protocol makes them rare, but a damaged
  // disk must degrade to an older snapshot, not to a refusal to start).
  // Only *parse* failures are skippable: a transient read error (EIO) on
  // an existing snapshot surfaces — falling back would silently recover
  // an older state than what is actually on disk.
  bool seeded = false;
  for (auto it = snapshots->rbegin(); it != snapshots->rend(); ++it) {
    std::string bytes;
    const Status read = env->ReadFileToString(it->path, &bytes);
    if (!read.ok()) {
      if (read.code() == StatusCode::kNotFound) continue;  // Pruned race.
      return read;
    }
    StatusOr<MovingObjectDatabase> mod = ModFromString(bytes);
    if (!mod.ok()) continue;
    result.mod = std::move(mod).value();
    result.snapshot_seq = it->seq;
    result.from_snapshot = true;
    result.next_seq = it->seq;
    seeded = true;
    break;
  }

  // 2. The replay chain: every segment at or after the seed point. A
  // snapshot always sits on a segment boundary, so the chain must be
  // contiguous from result.next_seq; a hole is real data loss.
  std::vector<SegmentFile> chain;
  for (const SegmentFile& segment : segments) {
    if (!seeded || segment.start_seq >= result.snapshot_seq) {
      chain.push_back(segment);
    }
  }

  std::map<WalQueryId, LoggedQuery> live;
  WalQueryId max_query_id = -1;

  // Read every chain segment before replaying anything: a kEpochAbort
  // anywhere in the chain voids its epoch's kShardBatch, so the aborted
  // set must be complete before the first batch is applied.
  std::vector<WalReadResult> reads;
  for (size_t i = 0; i < chain.size(); ++i) {
    const bool is_last = i + 1 == chain.size();
    StatusOr<WalReadResult> read = ReadWalSegment(chain[i].path, env);
    if (!read.ok()) {
      if (!IsHeaderCorruption(read.status())) {
        // The file exists but could not be read (EIO or a vanished
        // listing entry). Never conflate this with "no durable state" or
        // with a droppable torn header: surface it and leave the
        // directory untouched.
        return read.status();
      }
      // The segment's own header is unusable — it carries no state at
      // all. A final segment in that condition is a crash during segment
      // creation: drop it. Anywhere else it is a hole in the chain.
      if (!is_last) {
        return Status::DataLoss("corrupt non-final wal segment " +
                                chain[i].path + ": " +
                                read.status().message());
      }
      result.truncated_tail = true;
      result.truncated_detail =
          "unusable final segment: " + read.status().message();
      StatusOr<uint64_t> size = env->GetFileSize(chain[i].path);
      result.truncated_bytes = size.ok() ? *size : 0;
      if (options.repair) env->RemoveFile(chain[i].path);
      if (!seeded && i == 0) {
        return Status::NotFound("no durable state in " + dir +
                                " (only a torn segment header)");
      }
      chain.pop_back();
      break;
    }
    if (read->header.start_seq != chain[i].start_seq) {
      return Status::DataLoss(
          chain[i].path + ": file name says start_seq " +
          std::to_string(chain[i].start_seq) + " but header says " +
          std::to_string(read->header.start_seq));
    }
    reads.push_back(std::move(read).value());
  }

  std::set<uint64_t> aborted;
  for (const WalReadResult& read : reads) {
    for (const WalRecord& record : read.records) {
      if (record.type == WalRecordType::kEpochAbort) {
        aborted.insert(record.epoch);
        result.max_epoch = std::max(result.max_epoch, record.epoch);
      }
    }
  }

  for (size_t i = 0; i < reads.size(); ++i) {
    const bool is_last = i + 1 == reads.size();
    const WalReadResult& read = reads[i];
    if (read.header.start_seq != result.next_seq) {
      std::ostringstream msg;
      msg << "wal chain gap: expected a segment starting at seq "
          << result.next_seq << ", found " << chain[i].path << " starting at "
          << read.header.start_seq;
      return Status::DataLoss(msg.str());
    }
    if (!seeded && i == 0) {
      result.mod = MovingObjectDatabase(read.header.dim,
                                        read.header.start_tau);
    } else if (read.header.dim != result.mod.dim()) {
      return Status::DataLoss(chain[i].path +
                              ": dimension mismatch with state");
    }

    for (size_t r = 0; r < read.records.size(); ++r) {
      const WalRecord& record = read.records[r];
      switch (record.type) {
        case WalRecordType::kUpdate: {
          const Status applied = result.mod.Apply(record.update);
          if (applied.ok()) {
            ++result.replayed_updates;
          } else {
            // Log-before-apply: the record was appended, then the apply
            // failed; it fails identically now. Not an error.
            ++result.skipped_updates;
          }
          ++result.next_seq;
          break;
        }
        case WalRecordType::kUpdateBatch: {
          // One group commit, atomic on disk: the frame either survived
          // whole (replay every update, in commit order) or was dropped
          // whole with the torn tail — seq never lands inside a batch.
          for (const Update& update : record.batch) {
            const Status applied = result.mod.Apply(update);
            if (applied.ok()) {
              ++result.replayed_updates;
            } else {
              ++result.skipped_updates;
            }
            ++result.next_seq;
          }
          break;
        }
        case WalRecordType::kShardBatch: {
          result.max_epoch = std::max(result.max_epoch, record.epoch);
          if (aborted.count(record.epoch) > 0) {
            // The batch was applied nowhere (a sibling shard failed to
            // log it); seq never advanced past it on the live server
            // either.
            break;
          }
          for (const Update& update : record.batch) {
            const Status applied = result.mod.Apply(update);
            if (applied.ok()) {
              ++result.replayed_updates;
            } else {
              ++result.skipped_updates;
            }
            ++result.next_seq;
          }
          result.epoch_marks.push_back(
              EpochMark{record.epoch, record.participants, read.offsets[r],
                        is_last});
          break;
        }
        case WalRecordType::kEpochFloor:
          result.epoch_floor = std::max(result.epoch_floor, record.epoch);
          result.max_epoch = std::max(result.max_epoch, record.epoch);
          break;
        case WalRecordType::kEpochAbort:
          break;  // Collected chain-wide above.
        case WalRecordType::kRegisterQuery:
          // Upsert: segment heads re-journal live queries, so a
          // registration may be seen once per rotation.
          live[record.query.id] = record.query;
          max_query_id = std::max(max_query_id, record.query.id);
          break;
        case WalRecordType::kRemoveQuery:
          live.erase(record.removed_id);
          max_query_id = std::max(max_query_id, record.removed_id);
          break;
      }
    }

    if (read.torn_tail) {
      if (!is_last) {
        return Status::DataLoss("corrupt non-final wal segment " +
                                chain[i].path + ": " + read.torn_detail);
      }
      result.truncated_tail = true;
      result.truncated_detail = read.torn_detail;
      result.truncated_bytes = read.file_bytes - read.valid_bytes;
      if (options.repair && result.truncated_bytes > 0) {
        MODB_RETURN_IF_ERROR(
            env->TruncateFile(chain[i].path, read.valid_bytes));
      }
    }
    result.active_wal_path = chain[i].path;
  }

  if (seeded && chain.empty()) {
    // Snapshot with no WAL: the snapshot alone is the state.
    result.next_seq = result.snapshot_seq;
  }

  result.aborted_epochs.assign(aborted.begin(), aborted.end());
  result.next_query_id = max_query_id + 1;
  result.live_queries.reserve(live.size());
  for (auto& [id, query] : live) {
    result.live_queries.push_back(std::move(query));
  }
  obs::ModbMetrics& metrics = obs::M();
  metrics.recovery_runs->Increment();
  metrics.recovery_replayed_updates->Increment(result.replayed_updates);
  metrics.recovery_skipped_updates->Increment(result.skipped_updates);
  if (result.truncated_tail) metrics.recovery_torn_tails->Increment();
  return result;
}

}  // namespace modb
