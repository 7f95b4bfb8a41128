#include "durability/wal.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "durability/crc32c.h"
#include "obs/modb_metrics.h"
#include "obs/trace.h"

namespace modb {
namespace {

constexpr char kMagic[8] = {'M', 'O', 'D', 'B', 'W', 'A', 'L', '1'};
constexpr uint32_t kVersion = 1;
// Corruption guard: no legitimate payload is anywhere near this large, so
// a garbage length field fails fast instead of driving a huge allocation.
constexpr uint32_t kMaxPayloadBytes = 4u << 20;
// Sanity cap mirroring the text serializer's: dimensions beyond this are
// always corruption, and each vector allocates O(dim).
constexpr uint32_t kMaxDim = 4096;

// ---- little-endian primitive codec ----------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutVec(std::string* out, const Vec& v) {
  PutU32(out, static_cast<uint32_t>(v.dim()));
  for (size_t i = 0; i < v.dim(); ++i) PutF64(out, v[i]);
}

// Bounded forward reader over a byte buffer; every Get* returns false on
// underrun and the caller converts that into a clean Status.
struct Cursor {
  const unsigned char* p;
  const unsigned char* end;

  bool GetU8(uint8_t* v) {
    if (end - p < 1) return false;
    *v = *p++;
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (end - p < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p[i]) << (8 * i);
    p += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (end - p < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p[i]) << (8 * i);
    p += 8;
    return true;
  }
  bool GetI64(int64_t* v) {
    uint64_t raw = 0;
    if (!GetU64(&raw)) return false;
    *v = static_cast<int64_t>(raw);
    return true;
  }
  bool GetF64(double* v) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool GetString(std::string* s) {
    uint32_t len = 0;
    if (!GetU32(&len)) return false;
    if (static_cast<size_t>(end - p) < len || len > kMaxPayloadBytes) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(p), len);
    p += len;
    return true;
  }
  bool GetVec(Vec* v, size_t expect_dim) {
    uint32_t dim = 0;
    if (!GetU32(&dim) || dim != expect_dim || dim > kMaxDim) return false;
    Vec result(dim);
    for (size_t i = 0; i < dim; ++i) {
      if (!GetF64(&result[i])) return false;
    }
    *v = std::move(result);
    return true;
  }
};

void PutTrajectory(std::string* out, const Trajectory& trajectory) {
  PutF64(out, trajectory.end_time());
  PutU32(out, static_cast<uint32_t>(trajectory.pieces().size()));
  for (const LinearPiece& piece : trajectory.pieces()) {
    PutF64(out, piece.start);
    PutVec(out, piece.origin);
    PutVec(out, piece.velocity);
  }
}

Status GetTrajectory(Cursor* in, size_t dim, Trajectory* out) {
  double end_time = 0.0;
  uint32_t pieces = 0;
  if (!in->GetF64(&end_time) || !in->GetU32(&pieces) || pieces == 0 ||
      pieces > kMaxPayloadBytes / 16) {
    return Status::InvalidArgument("truncated trajectory");
  }
  Trajectory trajectory;
  for (uint32_t i = 0; i < pieces; ++i) {
    double start = 0.0;
    Vec origin, velocity;
    if (!in->GetF64(&start) || !in->GetVec(&origin, dim) ||
        !in->GetVec(&velocity, dim)) {
      return Status::InvalidArgument("truncated trajectory piece");
    }
    if (trajectory.empty()) {
      trajectory =
          Trajectory::Linear(start, std::move(origin), std::move(velocity));
    } else {
      const Vec expected = trajectory.pieces().back().PositionAt(start);
      if (!expected.AlmostEquals(origin, 1e-6)) {
        return Status::InvalidArgument("discontinuous trajectory in record");
      }
      MODB_RETURN_IF_ERROR(trajectory.AddTurn(start, std::move(velocity)));
    }
  }
  if (end_time != kInf) {
    MODB_RETURN_IF_ERROR(trajectory.Terminate(end_time));
  }
  *out = std::move(trajectory);
  return Status::Ok();
}

std::string EncodeHeader(const WalSegmentHeader& header) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kVersion);
  PutU32(&out, static_cast<uint32_t>(header.dim));
  PutU64(&out, header.start_seq);
  PutF64(&out, header.start_tau);
  MODB_CHECK(out.size() == kWalHeaderBytes);
  return out;
}

Status DecodeHeader(const std::string& bytes, WalSegmentHeader* header) {
  if (bytes.size() < kWalHeaderBytes) {
    return Status::InvalidArgument("wal header truncated");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad wal magic");
  }
  Cursor in{reinterpret_cast<const unsigned char*>(bytes.data()) +
                sizeof(kMagic),
            reinterpret_cast<const unsigned char*>(bytes.data()) +
                kWalHeaderBytes};
  uint32_t version = 0, dim = 0;
  uint64_t start_seq = 0;
  double start_tau = 0.0;
  if (!in.GetU32(&version) || !in.GetU32(&dim) || !in.GetU64(&start_seq) ||
      !in.GetF64(&start_tau)) {
    return Status::InvalidArgument("wal header truncated");
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported wal version " +
                                   std::to_string(version));
  }
  if (dim == 0 || dim > kMaxDim) {
    return Status::InvalidArgument("wal header has implausible dim");
  }
  header->dim = dim;
  header->start_seq = start_seq;
  header->start_tau = start_tau;
  return Status::Ok();
}

Env* Resolve(Env* env) { return env != nullptr ? env : Env::Default(); }

// Body of one Definition-3 update, shared between the kUpdate payload and
// each entry of a kUpdateBatch payload.
void PutUpdateBody(std::string* out, const Update& update) {
  PutU8(out, static_cast<uint8_t>(update.kind));
  PutI64(out, update.oid);
  PutF64(out, update.time);
  switch (update.kind) {
    case UpdateKind::kNew:
      PutVec(out, update.position);
      PutVec(out, update.velocity);
      break;
    case UpdateKind::kChdir:
      PutVec(out, update.velocity);
      break;
    case UpdateKind::kTerminate:
      break;
  }
}

Status GetUpdateBody(Cursor* in, size_t dim, Update* update) {
  uint8_t kind = 0;
  if (!in->GetU8(&kind) || kind > 2) {
    return Status::InvalidArgument("bad update kind");
  }
  update->kind = static_cast<UpdateKind>(kind);
  if (!in->GetI64(&update->oid) || !in->GetF64(&update->time)) {
    return Status::InvalidArgument("truncated update record");
  }
  switch (update->kind) {
    case UpdateKind::kNew:
      if (!in->GetVec(&update->position, dim) ||
          !in->GetVec(&update->velocity, dim)) {
        return Status::InvalidArgument("truncated new() record");
      }
      break;
    case UpdateKind::kChdir:
      if (!in->GetVec(&update->velocity, dim)) {
        return Status::InvalidArgument("truncated chdir() record");
      }
      break;
    case UpdateKind::kTerminate:
      break;
  }
  return Status::Ok();
}

}  // namespace

// ---- payload codecs --------------------------------------------------------

void EncodeUpdatePayload(const Update& update, std::string* out) {
  PutU8(out, static_cast<uint8_t>(WalRecordType::kUpdate));
  PutUpdateBody(out, update);
}

void EncodeUpdateBatchPayload(const std::vector<Update>& updates,
                              std::string* out) {
  PutU8(out, static_cast<uint8_t>(WalRecordType::kUpdateBatch));
  PutU32(out, static_cast<uint32_t>(updates.size()));
  for (const Update& update : updates) PutUpdateBody(out, update);
}

void EncodeShardBatchPayload(uint64_t epoch,
                             const std::vector<uint32_t>& participants,
                             const std::vector<Update>& updates,
                             std::string* out) {
  PutU8(out, static_cast<uint8_t>(WalRecordType::kShardBatch));
  PutU64(out, epoch);
  PutU32(out, static_cast<uint32_t>(participants.size()));
  for (const uint32_t shard : participants) PutU32(out, shard);
  PutU32(out, static_cast<uint32_t>(updates.size()));
  for (const Update& update : updates) PutUpdateBody(out, update);
}

void EncodeEpochFloorPayload(uint64_t epoch, std::string* out) {
  PutU8(out, static_cast<uint8_t>(WalRecordType::kEpochFloor));
  PutU64(out, epoch);
}

void EncodeEpochAbortPayload(uint64_t epoch, std::string* out) {
  PutU8(out, static_cast<uint8_t>(WalRecordType::kEpochAbort));
  PutU64(out, epoch);
}

void EncodeRegisterQueryPayload(const LoggedQuery& query, std::string* out) {
  PutU8(out, static_cast<uint8_t>(WalRecordType::kRegisterQuery));
  PutU8(out, query.is_knn ? 1 : 0);
  PutI64(out, query.id);
  PutU64(out, query.k);
  PutF64(out, query.threshold);
  PutString(out, query.gdist_key);
  PutString(out, "euclid2");
  PutTrajectory(out, query.query);
}

void EncodeRemoveQueryPayload(WalQueryId id, std::string* out) {
  PutU8(out, static_cast<uint8_t>(WalRecordType::kRemoveQuery));
  PutI64(out, id);
}

StatusOr<WalRecord> DecodeWalPayload(const std::string& payload, size_t dim) {
  Cursor in{reinterpret_cast<const unsigned char*>(payload.data()),
            reinterpret_cast<const unsigned char*>(payload.data()) +
                payload.size()};
  uint8_t type = 0;
  if (!in.GetU8(&type)) return Status::InvalidArgument("empty payload");
  WalRecord record;
  switch (static_cast<WalRecordType>(type)) {
    case WalRecordType::kUpdate: {
      record.type = WalRecordType::kUpdate;
      MODB_RETURN_IF_ERROR(GetUpdateBody(&in, dim, &record.update));
      break;
    }
    case WalRecordType::kUpdateBatch: {
      record.type = WalRecordType::kUpdateBatch;
      uint32_t count = 0;
      // The smallest update body is 17 bytes (kind+oid+time), so any
      // plausible count fits the payload cap; a garbage count fails here
      // instead of driving a huge reserve.
      if (!in.GetU32(&count) || count == 0 ||
          count > kMaxPayloadBytes / 17) {
        return Status::InvalidArgument("bad update batch count");
      }
      record.batch.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        MODB_RETURN_IF_ERROR(GetUpdateBody(&in, dim, &record.batch[i]));
      }
      break;
    }
    case WalRecordType::kShardBatch: {
      record.type = WalRecordType::kShardBatch;
      uint32_t participant_count = 0;
      if (!in.GetU64(&record.epoch) || record.epoch == 0 ||
          !in.GetU32(&participant_count) || participant_count == 0 ||
          participant_count > 256) {
        return Status::InvalidArgument("bad shard batch stamp");
      }
      record.participants.resize(participant_count);
      for (uint32_t i = 0; i < participant_count; ++i) {
        if (!in.GetU32(&record.participants[i])) {
          return Status::InvalidArgument("truncated shard participant list");
        }
      }
      uint32_t count = 0;
      if (!in.GetU32(&count) || count > kMaxPayloadBytes / 17) {
        return Status::InvalidArgument("bad shard batch count");
      }
      record.batch.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        MODB_RETURN_IF_ERROR(GetUpdateBody(&in, dim, &record.batch[i]));
      }
      break;
    }
    case WalRecordType::kEpochFloor: {
      record.type = WalRecordType::kEpochFloor;
      if (!in.GetU64(&record.epoch) || record.epoch == 0) {
        return Status::InvalidArgument("bad epoch floor record");
      }
      break;
    }
    case WalRecordType::kEpochAbort: {
      record.type = WalRecordType::kEpochAbort;
      if (!in.GetU64(&record.epoch) || record.epoch == 0) {
        return Status::InvalidArgument("bad epoch abort record");
      }
      break;
    }
    case WalRecordType::kRegisterQuery: {
      record.type = WalRecordType::kRegisterQuery;
      uint8_t is_knn = 0;
      std::string gdist_name;
      if (!in.GetU8(&is_knn) || !in.GetI64(&record.query.id) ||
          !in.GetU64(&record.query.k) || !in.GetF64(&record.query.threshold) ||
          !in.GetString(&record.query.gdist_key) ||
          !in.GetString(&gdist_name)) {
        return Status::InvalidArgument("truncated query record");
      }
      record.query.is_knn = is_knn != 0;
      if (gdist_name != "euclid2") {
        return Status::InvalidArgument("unjournalable g-distance: " +
                                       gdist_name);
      }
      MODB_RETURN_IF_ERROR(GetTrajectory(&in, dim, &record.query.query));
      if (record.query.is_knn && record.query.k == 0) {
        return Status::InvalidArgument("journaled knn with k == 0");
      }
      break;
    }
    case WalRecordType::kRemoveQuery: {
      record.type = WalRecordType::kRemoveQuery;
      if (!in.GetI64(&record.removed_id)) {
        return Status::InvalidArgument("truncated remove record");
      }
      break;
    }
    default:
      return Status::InvalidArgument("unknown record type " +
                                     std::to_string(type));
  }
  if (in.p != in.end) {
    return Status::InvalidArgument("trailing bytes in payload");
  }
  return record;
}

// ---- WalBatch --------------------------------------------------------------

void WalBatch::Frame() {
  MODB_CHECK(scratch_.size() <= kMaxPayloadBytes);
  PutU32(&frames_, static_cast<uint32_t>(scratch_.size()));
  PutU32(&frames_, Crc32c(scratch_.data(), scratch_.size()));
  frames_.append(scratch_);
  ++records_;
}

void WalBatch::AddUpdate(const Update& update) {
  scratch_.clear();
  EncodeUpdatePayload(update, &scratch_);
  Frame();
  ++updates_;
}

void WalBatch::AddUpdates(const std::vector<Update>& updates) {
  if (updates.empty()) return;
  scratch_.clear();
  EncodeUpdateBatchPayload(updates, &scratch_);
  Frame();
  updates_ += updates.size();
}

void WalBatch::AddShardBatch(uint64_t epoch,
                             const std::vector<uint32_t>& participants,
                             const std::vector<Update>& updates) {
  scratch_.clear();
  EncodeShardBatchPayload(epoch, participants, updates, &scratch_);
  Frame();
  updates_ += updates.size();
}

void WalBatch::AddEpochFloor(uint64_t epoch) {
  scratch_.clear();
  EncodeEpochFloorPayload(epoch, &scratch_);
  Frame();
}

void WalBatch::AddEpochAbort(uint64_t epoch) {
  scratch_.clear();
  EncodeEpochAbortPayload(epoch, &scratch_);
  Frame();
}

void WalBatch::AddRegisterQuery(const LoggedQuery& query) {
  scratch_.clear();
  EncodeRegisterQueryPayload(query, &scratch_);
  Frame();
}

void WalBatch::AddRemoveQuery(WalQueryId id) {
  scratch_.clear();
  EncodeRemoveQueryPayload(id, &scratch_);
  Frame();
}

void WalBatch::Clear() {
  frames_.clear();  // Keeps capacity: steady-state flushes reallocate nothing.
  records_ = 0;
  updates_ = 0;
}

// ---- WalWriter -------------------------------------------------------------

StatusOr<WalWriter> WalWriter::Create(const std::string& path,
                                      const WalSegmentHeader& header,
                                      WalOptions options, Env* env) {
  env = Resolve(env);
  if (header.dim == 0 || header.dim > kMaxDim) {
    return Status::InvalidArgument("wal dim out of range");
  }
  // Exclusive: fail rather than clobber an existing segment.
  StatusOr<std::unique_ptr<WritableFile>> file =
      env->NewWritableFile(path, WriteMode::kCreateExclusive);
  MODB_RETURN_IF_ERROR(file.status());
  const std::string encoded = EncodeHeader(header);
  WalWriter writer(path, std::move(file).value(), header, options,
                   encoded.size());
  // The header must be durable before any record claims to be: a segment
  // whose header is torn is unusable in its entirety.
  Status wrote = writer.file_->Append(encoded);
  if (wrote.ok()) wrote = writer.file_->Sync();
  if (!wrote.ok()) {
    // Don't leave a headerless file blocking the exclusive-create retry.
    writer.file_->Close();
    writer.file_.reset();
    env->RemoveFile(path);
    return wrote;
  }
  return writer;
}

StatusOr<WalWriter> WalWriter::OpenForAppend(const std::string& path,
                                             WalOptions options, Env* env) {
  env = Resolve(env);
  std::string bytes;
  MODB_RETURN_IF_ERROR(env->ReadFileToString(path, &bytes));
  WalSegmentHeader header;
  MODB_RETURN_IF_ERROR(DecodeHeader(bytes, &header));
  StatusOr<std::unique_ptr<WritableFile>> file =
      env->NewWritableFile(path, WriteMode::kAppend);
  MODB_RETURN_IF_ERROR(file.status());
  return WalWriter(path, std::move(file).value(), header, options,
                   bytes.size());
}

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Close() {
  if (file_ == nullptr) return Status::Ok();
  const Status closed = file_->Close();
  file_.reset();
  if (!closed.ok() && health_.ok()) {
    // The final buffered flush failed: some suffix of the acknowledged
    // appends never reached the file, and (like a failed fsync) there is
    // no way to tell which. The writer must report sticky-unhealthy so a
    // holder that consults health() after Close treats the segment as
    // ending at the last durable record, not at bytes().
    health_ = closed;
    obs::M().wal_failures->Increment();
  }
  return closed;
}

Status WalWriter::AppendBatch(const WalBatch& batch) {
  MODB_CHECK(file_ != nullptr);
  if (batch.empty()) return Status::Ok();
  if (!health_.ok()) {
    return Status::FailedPrecondition(
        "wal writer on " + path_ +
        " refused append after earlier failure: " + health_.ToString());
  }
  obs::TraceSpan span(obs::SpanName::kWalAppend, obs::kTraceNoId,
                      std::numeric_limits<double>::quiet_NaN(),
                      batch.bytes());
  const Status written = file_->Append(batch.frames());
  if (!written.ok()) {
    // Whole-batch atomicity on the byte counter: the file may hold a torn
    // prefix of the batch, but bytes_ keeps its pre-batch value so no
    // caller records a position inside (or past) the failed batch.
    health_ = written;
    obs::M().wal_failures->Increment();
    return written;
  }
  bytes_ += batch.bytes();
  unsynced_bytes_ += batch.bytes();
  obs::ModbMetrics& metrics = obs::M();
  metrics.wal_appends->Increment(batch.records());
  metrics.wal_append_bytes->Increment(batch.bytes());
  switch (options_.sync) {
    case SyncPolicy::kNone:
      break;
    case SyncPolicy::kEveryRecord:
      // Per the group-commit contract this is ONE fsync for the whole
      // batch — the policy names the durability guarantee (every
      // acknowledged record is synced when its append returns), not a
      // sync count.
      MODB_RETURN_IF_ERROR(Sync());
      break;
  }
  return Status::Ok();
}

Status WalWriter::Sync() {
  MODB_CHECK(file_ != nullptr);
  if (!health_.ok()) {
    return Status::FailedPrecondition(
        "wal writer on " + path_ +
        " refused sync after earlier failure: " + health_.ToString());
  }
  obs::TraceSpan span(obs::SpanName::kWalSync, obs::kTraceNoId,
                      std::numeric_limits<double>::quiet_NaN(),
                      unsynced_bytes_);
  const Status synced = file_->Sync();
  if (!synced.ok()) {
    // A failed fsync leaves the durable prefix unknowable; the writer is
    // done (and DurableQueryServer fail-stops into read-only mode).
    health_ = synced;
    obs::M().wal_failures->Increment();
    return synced;
  }
  unsynced_bytes_ = 0;
  obs::M().wal_syncs->Increment();
  return Status::Ok();
}

// ---- ReadWalSegment --------------------------------------------------------

StatusOr<WalReadResult> ReadWalSegment(const std::string& path, Env* env) {
  std::string bytes;
  MODB_RETURN_IF_ERROR(Resolve(env)->ReadFileToString(path, &bytes));
  WalReadResult result;
  result.file_bytes = bytes.size();
  MODB_RETURN_IF_ERROR(DecodeHeader(bytes, &result.header));
  size_t offset = kWalHeaderBytes;
  result.valid_bytes = offset;

  const auto torn = [&](std::string why) {
    result.torn_tail = true;
    result.torn_detail = std::move(why);
  };

  while (offset < bytes.size()) {
    if (bytes.size() - offset < 8) {
      torn("short frame header at offset " + std::to_string(offset));
      break;
    }
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data()) + offset;
    uint32_t len = 0, crc = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<uint32_t>(p[i]) << (8 * i);
    for (int i = 0; i < 4; ++i) {
      crc |= static_cast<uint32_t>(p[4 + i]) << (8 * i);
    }
    if (len > kMaxPayloadBytes) {
      torn("implausible record length at offset " + std::to_string(offset));
      break;
    }
    if (bytes.size() - offset - 8 < len) {
      torn("short record body at offset " + std::to_string(offset));
      break;
    }
    const std::string payload = bytes.substr(offset + 8, len);
    if (Crc32c(payload.data(), payload.size()) != crc) {
      torn("crc mismatch at offset " + std::to_string(offset));
      break;
    }
    StatusOr<WalRecord> record = DecodeWalPayload(payload, result.header.dim);
    if (!record.ok()) {
      // The frame checksummed correctly but the payload is malformed —
      // treat like any other torn tail: the valid prefix ends here.
      torn("undecodable payload at offset " + std::to_string(offset) + ": " +
           record.status().message());
      break;
    }
    result.records.push_back(std::move(record).value());
    result.offsets.push_back(offset);
    offset += 8 + len;
    result.valid_bytes = offset;
  }
  return result;
}

std::string WalFileName(uint64_t start_seq) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "wal-%020" PRIu64 ".log", start_seq);
  return buffer;
}

std::optional<uint64_t> ParseWalFileName(const std::string& name) {
  if (name.size() != 4 + 20 + 4 || name.rfind("wal-", 0) != 0 ||
      name.substr(name.size() - 4) != ".log") {
    return std::nullopt;
  }
  uint64_t seq = 0;
  for (size_t i = 4; i < 24; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

}  // namespace modb
