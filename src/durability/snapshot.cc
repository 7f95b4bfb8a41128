#include "durability/snapshot.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "durability/wal.h"
#include "obs/modb_metrics.h"
#include "trajectory/serialization.h"

namespace modb {

std::string SnapshotManager::FileName(uint64_t seq) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "snapshot-%020" PRIu64 ".mod", seq);
  return buffer;
}

std::optional<uint64_t> SnapshotManager::ParseFileName(
    const std::string& name) {
  if (name.size() != 9 + 20 + 4 || name.rfind("snapshot-", 0) != 0 ||
      name.substr(name.size() - 4) != ".mod") {
    return std::nullopt;
  }
  uint64_t seq = 0;
  for (size_t i = 9; i < 29; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

Status SnapshotManager::Write(const MovingObjectDatabase& mod,
                              uint64_t seq) const {
  const std::string final_path = dir_ + "/" + FileName(seq);
  const std::string tmp_path = final_path + ".tmp";
  const std::string bytes = ModToString(mod);

  StatusOr<std::unique_ptr<WritableFile>> file =
      env_->NewWritableFile(tmp_path, WriteMode::kTruncate);
  MODB_RETURN_IF_ERROR(file.status());
  Status wrote = (*file)->Append(bytes);
  if (wrote.ok()) wrote = (*file)->Sync();
  // A buffered-write error can first surface at close; it must fail the
  // snapshot, not be swallowed.
  const Status closed = (*file)->Close();
  if (wrote.ok()) wrote = closed;
  if (!wrote.ok()) {
    // Abandon the tmp sibling; the previous snapshot/segment layout is
    // untouched, so the checkpoint is retryable.
    env_->RemoveFile(tmp_path);
    return wrote;
  }
  MODB_RETURN_IF_ERROR(env_->RenameFile(tmp_path, final_path));
  MODB_RETURN_IF_ERROR(env_->SyncDir(dir_));
  obs::ModbMetrics& metrics = obs::M();
  metrics.snapshot_writes->Increment();
  metrics.snapshot_write_bytes->Increment(bytes.size());
  return Status::Ok();
}

StatusOr<std::vector<SnapshotInfo>> SnapshotManager::List(
    const std::string& dir, Env* env) {
  if (env == nullptr) env = Env::Default();
  std::vector<SnapshotInfo> snapshots;
  StatusOr<std::vector<std::string>> children = env->GetChildren(dir);
  if (!children.ok()) {
    // Missing directory: nothing persisted yet. Anything else (EIO,
    // EACCES) must surface — an unreadable directory is not an empty one.
    if (children.status().code() == StatusCode::kNotFound) return snapshots;
    return children.status();
  }
  for (const std::string& name : *children) {
    const std::optional<uint64_t> seq = ParseFileName(name);
    if (seq.has_value()) {
      snapshots.push_back(SnapshotInfo{*seq, dir + "/" + name});
    }
  }
  std::sort(snapshots.begin(), snapshots.end(),
            [](const SnapshotInfo& a, const SnapshotInfo& b) {
              return a.seq < b.seq;
            });
  return snapshots;
}

Status SnapshotManager::Prune() const {
  StatusOr<std::vector<SnapshotInfo>> snapshots = List(dir_, env_);
  MODB_RETURN_IF_ERROR(snapshots.status());
  StatusOr<std::vector<std::string>> children = env_->GetChildren(dir_);
  MODB_RETURN_IF_ERROR(children.status());
  // Stray temporaries from interrupted writes are garbage by definition.
  for (const std::string& name : *children) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      env_->RemoveFile(dir_ + "/" + name);
    }
  }
  if (snapshots->size() > options_.retain) {
    const size_t drop = snapshots->size() - options_.retain;
    for (size_t i = 0; i < drop; ++i) {
      env_->RemoveFile((*snapshots)[i].path);
    }
    snapshots->erase(snapshots->begin(),
                     snapshots->begin() + static_cast<ptrdiff_t>(drop));
  }
  if (snapshots->empty()) return Status::Ok();
  // Segments entirely before the oldest retained snapshot can never be
  // replayed again (recovery always starts at a retained snapshot's seq,
  // and snapshots sit exactly on segment boundaries).
  const uint64_t floor_seq = snapshots->front().seq;
  for (const std::string& name : *children) {
    const std::optional<uint64_t> start = ParseWalFileName(name);
    if (start.has_value() && *start < floor_seq) {
      env_->RemoveFile(dir_ + "/" + name);
    }
  }
  return Status::Ok();
}

}  // namespace modb
