#include "crash_vfs.h"

namespace xbench {

using xarch::Status;
using xarch::StatusOr;

namespace {

class CrashFile final : public xarch::vfs::WritableFile {
 public:
  CrashFile(std::unique_ptr<xarch::vfs::WritableFile> base, CrashVfs* vfs,
            std::string path)
      : base_(std::move(base)), vfs_(vfs), path_(std::move(path)) {}

  Status Append(std::string_view data) override {
    if (vfs_->down()) return CrashVfs::Down();
    XARCH_RETURN_NOT_OK(base_->Append(data));
    return vfs_->OnAppend(path_, data.size());
  }
  Status Sync() override {
    XARCH_RETURN_NOT_OK(vfs_->OnSync(path_));
    return base_->Sync();
  }
  Status Truncate(uint64_t size) override {
    if (vfs_->down()) return CrashVfs::Down();
    XARCH_RETURN_NOT_OK(base_->Truncate(size));
    return vfs_->OnTruncate(path_, size);
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<xarch::vfs::WritableFile> base_;
  CrashVfs* vfs_;
  std::string path_;
};

}  // namespace

StatusOr<std::unique_ptr<xarch::vfs::WritableFile>> CrashVfs::OpenWritable(
    const std::string& path, xarch::vfs::WriteMode mode) {
  if (down_) return Down();
  uint64_t existing = 0;
  if (mode == xarch::vfs::WriteMode::kAppend) {
    XARCH_ASSIGN_OR_RETURN(bool exists, base_->Exists(path));
    if (exists) {
      XARCH_ASSIGN_OR_RETURN(existing, base_->FileSize(path));
    }
  }
  XARCH_ASSIGN_OR_RETURN(auto file, base_->OpenWritable(path, mode));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Bytes that were on disk before this open are durable; a truncating
    // open starts an empty, not yet durable file.
    files_[path] = FileState{existing, existing};
  }
  return std::unique_ptr<xarch::vfs::WritableFile>(
      new CrashFile(std::move(file), this, path));
}

Status CrashVfs::OnAppend(const std::string& path, size_t n) {
  bytes_written_ += n;
  std::lock_guard<std::mutex> lock(mu_);
  files_[path].size += n;
  return Status::OK();
}

Status CrashVfs::OnSync(const std::string& path) {
  if (down_) return Down();
  if (armed_.exchange(false)) {
    down_ = true;
    return Down();
  }
  ++fsyncs_;
  std::lock_guard<std::mutex> lock(mu_);
  FileState& f = files_[path];
  f.durable = f.size;
  return Status::OK();
}

Status CrashVfs::OnTruncate(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  FileState& f = files_[path];
  f.size = size;
  if (f.durable > size) f.durable = size;
  return Status::OK();
}

Status CrashVfs::Rename(const std::string& from, const std::string& to) {
  if (down_) return Down();
  XARCH_RETURN_NOT_OK(base_->Rename(from, to));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it != files_.end()) {
    files_[to] = it->second;
    files_.erase(it);
  } else {
    files_.erase(to);
  }
  return Status::OK();
}

Status CrashVfs::Remove(const std::string& path) {
  if (down_) return Down();
  XARCH_RETURN_NOT_OK(base_->Remove(path));
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(path);
  return Status::OK();
}

Status CrashVfs::Truncate(const std::string& path, uint64_t size) {
  if (down_) return Down();
  XARCH_RETURN_NOT_OK(base_->Truncate(path, size));
  return OnTruncate(path, size);
}

Status CrashVfs::RemoveTree(const std::string& path) {
  if (down_) return Down();
  XARCH_RETURN_NOT_OK(base_->RemoveTree(path));
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = files_.begin(); it != files_.end();) {
    it = it->first.rfind(path, 0) == 0 ? files_.erase(it) : std::next(it);
  }
  return Status::OK();
}

StatusOr<uint64_t> CrashVfs::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t discarded = 0;
  for (auto& [path, f] : files_) {
    if (f.size <= f.durable) continue;
    XARCH_ASSIGN_OR_RETURN(bool exists, base_->Exists(path));
    if (!exists) continue;
    XARCH_RETURN_NOT_OK(base_->Truncate(path, f.durable));
    discarded += f.size - f.durable;
    f.size = f.durable;
  }
  down_ = false;
  armed_ = false;
  return discarded;
}

}  // namespace xbench
