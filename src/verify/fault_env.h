#ifndef MODB_VERIFY_FAULT_ENV_H_
#define MODB_VERIFY_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"

namespace modb {

// What the injected operation fails with.
enum class FaultKind {
  kEio,         // kUnavailable, applicable to every operation.
  kEnospc,      // kUnavailable, write-side operations only.
  kShortWrite,  // Append writes ~half its bytes, then fails (torn frame).
  kSyncFail,    // Sync / SyncDir report failure (durable prefix unknown).
};

const char* FaultKindName(FaultKind kind);

// One planned fault: fail the `fail_op`-th operation (1-based, counted
// across every Env and file-handle entry point) with `kind`. fail_op == 0
// counts operations without injecting anything — the matrix driver's
// reference run. The fault is one-shot: if operation `fail_op` is not
// applicable to `kind` (say, kSyncFail lands on GetChildren), nothing is
// injected and the run must behave exactly like the reference.
struct FaultPlan {
  uint64_t fail_op = 0;
  FaultKind kind = FaultKind::kEio;
};

// An Env that forwards to a base Env (Env::Default() if null) while
// counting operations, injecting the planned fault, and tracking the
// synced prefix of every written file so power loss can be emulated:
// DropUnsyncedData() truncates each file to the bytes that had been
// fsynced when the plug was pulled. Thread-safe: the op counter and file
// tables are mutex-guarded, since a sharded server's pool tasks do I/O
// off the harness thread. The *op numbering* is only deterministic when
// at most one thread performs I/O at a time.
class FaultInjectionEnv : public Env {
 public:
  explicit FaultInjectionEnv(Env* base = nullptr);

  // Installs a plan and resets ops_seen()/injected().
  void SetPlan(const FaultPlan& plan);
  uint64_t ops_seen() const;
  // True once the planned fault actually fired.
  bool injected() const;

  // Power loss: truncates every file written through this env to its
  // last-synced size. Call with no handles open (the harness destroys the
  // server first). Returns the first truncation error.
  Status DropUnsyncedData();

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override;
  StatusOr<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override;
  StatusOr<std::vector<std::string>> GetChildren(
      const std::string& dir) override;
  StatusOr<uint64_t> GetFileSize(const std::string& path) override;
  Status CreateDirs(const std::string& dir) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Status SyncDir(const std::string& dir) override;

 private:
  friend class FaultWritableFile;
  friend class FaultSequentialFile;

  // Which fault kinds an operation is eligible for (kEio always applies).
  enum OpTraits : unsigned {
    kReadOp = 1u << 0,   // Only kEio applies.
    kWriteOp = 1u << 1,  // kEnospc also applies.
    kSyncOp = 1u << 2,   // kSyncFail also applies.
    kAppendOp = 1u << 3,  // kShortWrite also applies (implies kWriteOp).
  };

  static bool Applicable(FaultKind kind, unsigned traits);
  // Counts one operation; true when the planned fault fires *here* (sets
  // the injected flag and `*kind`). Short writes act before failing, so
  // the caller applies the fault itself.
  bool NextOp(unsigned traits, FaultKind* kind);
  Status InjectedStatus(FaultKind kind, const std::string& what);

  struct FileState {
    uint64_t appended = 0;  // Bytes pushed through the handle (+ base size).
    uint64_t synced = 0;    // Bytes covered by the last successful Sync.
  };

  void RecordOpen(const std::string& path, WriteMode mode);
  void RecordAppend(const std::string& path, uint64_t n);
  void RecordSync(const std::string& path);

  Env* base_;
  mutable std::mutex mu_;  // Guards everything below.
  FaultPlan plan_;
  uint64_t ops_seen_ = 0;
  bool injected_ = false;
  std::map<std::string, FileState> files_;
};

}  // namespace modb

#endif  // MODB_VERIFY_FAULT_ENV_H_
