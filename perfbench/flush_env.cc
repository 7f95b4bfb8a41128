#include "perfbench/flush_env.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace modb::perfbench {
namespace {

class FlushOnSyncFile : public WritableFile {
 public:
  explicit FlushOnSyncFile(std::unique_ptr<WritableFile> base)
      : base_(std::move(base)) {}

  Status Append(const char* data, size_t n) override {
    return base_->Append(data, n);
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override { return base_->Flush(); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
};

class FlushEnv : public Env {
 public:
  explicit FlushEnv(Env* base) : base_(base) {}

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override {
    StatusOr<std::unique_ptr<WritableFile>> file =
        base_->NewWritableFile(path, mode);
    if (!file.ok()) return file.status();
    return std::unique_ptr<WritableFile>(
        std::make_unique<FlushOnSyncFile>(std::move(*file)));
  }
  StatusOr<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    return base_->NewSequentialFile(path);
  }
  StatusOr<std::vector<std::string>> GetChildren(
      const std::string& dir) override {
    return base_->GetChildren(dir);
  }
  StatusOr<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  Status CreateDirs(const std::string& dir) override {
    return base_->CreateDirs(dir);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status SyncDir(const std::string&) override { return Status::Ok(); }

 private:
  Env* base_;
};

}  // namespace

Env* FlushOnlyEnv() {
  static FlushEnv env(Env::Default());
  return &env;
}

}  // namespace modb::perfbench
