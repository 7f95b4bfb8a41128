#ifndef MODB_DURABILITY_WAL_H_
#define MODB_DURABILITY_WAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "trajectory/trajectory.h"
#include "trajectory/update.h"

namespace modb {

// Binary, CRC32c-framed, append-only update log. The MOD evolves purely
// through Definition 3's three update operations, so the database state is
// a fold over this log; engines are never persisted (Theorem 5's cheap
// re-initialization makes rebuilding a sweep from the recovered MOD an
// O(N log N) non-event).
//
// Segment layout (little-endian; see docs/INTERNALS.md "Durability"):
//
//   header:  magic "MODBWAL1" | u32 version | u32 dim
//            | u64 start_seq | f64 start_tau           (32 bytes)
//   record:  u32 payload_len | u32 crc32c(payload) | payload
//
// `start_seq` is the number of update records ever applied before this
// segment began; snapshots are cut exactly at segment boundaries, so a
// snapshot at seq S pairs with the segment whose start_seq == S. Query
// registrations are journaled in-stream (and re-journaled at the head of
// each fresh segment, with the removal of the highest id handed out when
// it is no longer live), so a segment plus its base snapshot is
// self-contained, query ids included.

inline constexpr size_t kWalHeaderBytes = 32;

// When appends become durable.
enum class SyncPolicy {
  kNone,         // Rely on the OS page cache (process-crash safe only).
  kEveryRecord,  // fsync after every record (power-loss safe, slow).
};

struct WalOptions {
  SyncPolicy sync = SyncPolicy::kNone;
};

enum class WalRecordType : uint8_t {
  kUpdate = 1,
  kRegisterQuery = 2,
  kRemoveQuery = 3,
  // One Commit()'s updates in a single CRC frame: the batch is the atomic
  // durability unit — a torn tail can drop a whole batch, never split one.
  kUpdateBatch = 4,
  // A shard's slice of one cross-shard commit: like kUpdateBatch but
  // stamped with the commit's global epoch and the set of participating
  // shard indices. Epoch stamp and updates share ONE frame, so a torn
  // tail can never separate a batch from its epoch. Sharded recovery uses
  // these stamps to compute the consistent cut across shards.
  kShardBatch = 5,
  // Epoch low-water mark, written at the head of a fresh segment when the
  // shard has epoch state: every epoch <= the floor was durable on this
  // shard when the previous segment was sealed (checkpoints only rotate
  // after an all-shard fsync barrier). Solves "the checkpoint pruned the
  // segments that mentioned epoch e" in the presence computation.
  kEpochFloor = 6,
  // Compensation record: the named epoch's kShardBatch on THIS shard must
  // be skipped during replay — a sibling shard failed to log it, so the
  // batch was applied nowhere. Lets later healthy commits append after an
  // orphaned epoch without forcing rollback at reopen.
  kEpochAbort = 7,
};

// Query ids live in queries/query_server.h; redeclared here to keep the
// WAL layer independent of the server layer.
using WalQueryId = int64_t;

// A journaled standing-query registration. Only the squared-Euclidean
// g-distance is journalable (it is defined entirely by its query
// trajectory); richer distances need application-level re-registration.
struct LoggedQuery {
  WalQueryId id = 0;
  bool is_knn = true;
  std::string gdist_key;
  Trajectory query;        // The g-distance's query trajectory.
  uint64_t k = 1;          // is_knn only.
  double threshold = 0.0;  // !is_knn only.
};

// One decoded WAL record (tagged by `type`).
struct WalRecord {
  WalRecordType type = WalRecordType::kUpdate;
  Update update;            // kUpdate.
  LoggedQuery query;        // kRegisterQuery.
  WalQueryId removed_id = 0;  // kRemoveQuery.
  std::vector<Update> batch;  // kUpdateBatch / kShardBatch, in commit order.
  uint64_t epoch = 0;         // kShardBatch / kEpochFloor / kEpochAbort.
  // kShardBatch: indices of every shard the commit touched (sorted).
  std::vector<uint32_t> participants;
};

struct WalSegmentHeader {
  size_t dim = 0;
  uint64_t start_seq = 0;
  double start_tau = 0.0;
};

// A reusable encode buffer of fully framed records, written to the file
// with one Append (and at most one fsync) by WalWriter::AppendBatch.
// Clear() keeps the capacity, so a writer that restages one batch per
// flush encodes without allocating in steady state. The Env copies or
// writes the bytes before Append returns, so the buffer is free to
// restage as soon as AppendBatch does.
//
// Framing granularity is the durability contract: AddUpdates() puts one
// commit's updates into a single kUpdateBatch frame (atomic on disk),
// AddUpdate() keeps the one-frame-per-update layout for commits of one.
// The codec encodes whatever it is given; shapes are checked upstream
// (CheckUpdateDim, DurableQueryServer's registration check).
class WalBatch {
 public:
  // One kUpdate frame (legacy layout; recovery sees it as today).
  void AddUpdate(const Update& update);
  // One kUpdateBatch frame holding all of `updates` (empty: no-op).
  void AddUpdates(const std::vector<Update>& updates);
  // One kShardBatch frame: `updates` stamped with the cross-shard commit's
  // epoch and participant set. Unlike AddUpdates, an empty `updates` still
  // emits the frame — the epoch stamp itself is the durability evidence.
  void AddShardBatch(uint64_t epoch, const std::vector<uint32_t>& participants,
                     const std::vector<Update>& updates);
  // One kEpochFloor / kEpochAbort frame.
  void AddEpochFloor(uint64_t epoch);
  void AddEpochAbort(uint64_t epoch);
  // One kRegisterQuery / kRemoveQuery frame (registrations ride along in
  // the same group flush).
  void AddRegisterQuery(const LoggedQuery& query);
  void AddRemoveQuery(WalQueryId id);

  void Clear();
  bool empty() const { return frames_.empty(); }
  // Framed records / Definition-3 updates / bytes buffered so far.
  size_t records() const { return records_; }
  size_t updates() const { return updates_; }
  uint64_t bytes() const { return frames_.size(); }
  const std::string& frames() const { return frames_; }

 private:
  void Frame();  // Wraps scratch_ (one payload) into frames_.

  std::string frames_;
  std::string scratch_;
  size_t records_ = 0;
  size_t updates_ = 0;
};

// Appends records to one segment file. Move-only (owns the file handle).
// All I/O goes through the Env; `env == nullptr` means Env::Default().
class WalWriter {
 public:
  // Creates `path` (failing if it exists) and writes a fresh header. On
  // failure the partially written file is removed (best effort), so a
  // retry is not blocked by a leftover.
  static StatusOr<WalWriter> Create(const std::string& path,
                                    const WalSegmentHeader& header,
                                    WalOptions options = {},
                                    Env* env = nullptr);

  // Opens an existing segment for append; validates the header. The file
  // must end on a record boundary — recovery repairs torn tails before
  // reopening a segment for append.
  static StatusOr<WalWriter> OpenForAppend(const std::string& path,
                                           WalOptions options = {},
                                           Env* env = nullptr);

  WalWriter(WalWriter&& other) noexcept = default;
  WalWriter& operator=(WalWriter&& other) noexcept = default;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  // Appends every frame in `batch` with ONE file append, then applies the
  // sync policy once for the whole batch — this is what amortizes fsyncs
  // across a group commit. It is the only way records reach the segment:
  // a single record is a one-frame batch, written with the same one
  // append and sync-policy step.
  //
  // Failure atomicity: on any I/O failure `bytes()` and the unsynced count
  // keep their pre-call values (the file may hold a torn prefix of the
  // batch, never a recorded position inside it), the failure sticks, and
  // every later append/sync fails with kFailedPrecondition — appending
  // past a torn frame would corrupt the log. A caller that wants to keep
  // mutating must fail-stop instead (see DurableQueryServer's degraded
  // mode).
  Status AppendBatch(const WalBatch& batch);

  // Flushes the write buffer and fsyncs the file.
  Status Sync();

  // Flushes and closes the file, surfacing a buffered-write error that
  // would otherwise first appear (and be swallowed) at destruction. A
  // failed final flush marks the writer sticky-unhealthy exactly like a
  // mid-stream fsync failure: the durable prefix is unknowable.
  // Idempotent; the destructor calls it and drops the Status.
  Status Close();

  // Non-OK after the first failed append/sync (the sticky failure).
  const Status& health() const { return health_; }

  const std::string& path() const { return path_; }
  const WalSegmentHeader& header() const { return header_; }
  // Current segment size in bytes (header + records appended so far).
  uint64_t bytes() const { return bytes_; }
  // Bytes appended since the last successful Sync (0: everything durable
  // under the configured policy).
  uint64_t unsynced_bytes() const { return unsynced_bytes_; }

 private:
  WalWriter(std::string path, std::unique_ptr<WritableFile> file,
            WalSegmentHeader header, WalOptions options, uint64_t bytes)
      : path_(std::move(path)),
        file_(std::move(file)),
        header_(header),
        options_(options),
        bytes_(bytes) {}

  std::string path_;
  std::unique_ptr<WritableFile> file_;
  WalSegmentHeader header_;
  WalOptions options_;
  uint64_t bytes_ = 0;
  uint64_t unsynced_bytes_ = 0;
  Status health_;
};

// Result of scanning one segment. The scan stops cleanly at the first
// record whose framing is inconsistent (short read, oversized length, or
// CRC mismatch): everything before it is returned, and `torn_tail` marks
// where the valid prefix ends.
struct WalReadResult {
  WalSegmentHeader header;
  std::vector<WalRecord> records;
  // Byte offset of each record's frame start (parallel to `records`).
  // Sharded reopen uses these to truncate a rolled-back epoch's frame and
  // everything after it.
  std::vector<uint64_t> offsets;
  bool torn_tail = false;
  std::string torn_detail;   // Why the scan stopped, when torn.
  uint64_t valid_bytes = 0;  // Offset one past the last valid record.
  uint64_t file_bytes = 0;   // Total file size observed.
};

// Scans a segment. Only a missing/unreadable file or an invalid *header*
// is a Status error; record corruption is reported via `torn_tail`, never
// as a failure. The error code distinguishes the cases: kNotFound (no
// such file), kUnavailable (the file exists but reading it failed — NOT
// evidence of an empty database), kInvalidArgument (corrupt header: the
// segment carries no usable state at all).
StatusOr<WalReadResult> ReadWalSegment(const std::string& path,
                                       Env* env = nullptr);

// Canonical segment file name for a start sequence ("wal-<20-digit-seq>.log").
std::string WalFileName(uint64_t start_seq);
// Parses a segment file name back to its start sequence; nullopt if the
// name is not a WAL segment.
std::optional<uint64_t> ParseWalFileName(const std::string& name);

// Payload codecs, exposed for tests (framing is WalWriter/ReadWalSegment's
// job). Encoding appends to `out`.
void EncodeUpdatePayload(const Update& update, std::string* out);
void EncodeUpdateBatchPayload(const std::vector<Update>& updates,
                              std::string* out);
void EncodeShardBatchPayload(uint64_t epoch,
                             const std::vector<uint32_t>& participants,
                             const std::vector<Update>& updates,
                             std::string* out);
void EncodeEpochFloorPayload(uint64_t epoch, std::string* out);
void EncodeEpochAbortPayload(uint64_t epoch, std::string* out);
void EncodeRegisterQueryPayload(const LoggedQuery& query, std::string* out);
void EncodeRemoveQueryPayload(WalQueryId id, std::string* out);
StatusOr<WalRecord> DecodeWalPayload(const std::string& payload, size_t dim);

}  // namespace modb

#endif  // MODB_DURABILITY_WAL_H_
