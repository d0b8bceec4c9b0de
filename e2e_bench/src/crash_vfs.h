// A Vfs wrapper that counts what the durable store writes and can simulate
// a machine crash: every byte no Sync covered is discarded.
#ifndef XARCH_E2E_BENCH_CRASH_VFS_H_
#define XARCH_E2E_BENCH_CRASH_VFS_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "vfs/vfs.h"

namespace xbench {

/// \brief Forwards to a base Vfs and tracks, per file, its current size
/// and the size the last Sync made durable.
///
/// ArmCrash() makes the next Sync fail without syncing: the machine went
/// down during that write, so the write is never acknowledged. From then
/// on every write fails until Crash() runs, which truncates each file
/// back to its durable size — the bytes the page cache held are lost.
/// Renames count as durable once done (the snapshot writer syncs the
/// directory right after). Crash() then accepts writes again, for the
/// reopen.
class CrashVfs final : public xarch::vfs::Vfs {
 public:
  explicit CrashVfs(xarch::vfs::Vfs* base) : base_(base) {}

  void ArmCrash() { armed_ = true; }
  /// Discards unsynced bytes; returns how many were discarded.
  xarch::StatusOr<uint64_t> Crash();

  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t fsyncs() const { return fsyncs_; }

  std::string name() const override { return "crash(" + base_->name() + ")"; }
  xarch::StatusOr<std::unique_ptr<xarch::vfs::ReadableFile>> OpenReadable(
      const std::string& path) override {
    return base_->OpenReadable(path);
  }
  xarch::StatusOr<std::unique_ptr<xarch::vfs::RandomAccessFile>>
  OpenRandomAccess(const std::string& path) override {
    return base_->OpenRandomAccess(path);
  }
  xarch::StatusOr<std::unique_ptr<xarch::vfs::WritableFile>> OpenWritable(
      const std::string& path, xarch::vfs::WriteMode mode) override;
  xarch::StatusOr<std::unique_ptr<xarch::vfs::MappedFile>> Map(
      const std::string& path) override {
    return base_->Map(path);
  }
  xarch::StatusOr<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  xarch::Status Rename(const std::string& from, const std::string& to) override;
  xarch::Status Remove(const std::string& path) override;
  xarch::StatusOr<bool> Exists(const std::string& path) override {
    return base_->Exists(path);
  }
  xarch::StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  xarch::Status Truncate(const std::string& path, uint64_t size) override;
  xarch::Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  xarch::Status RemoveTree(const std::string& path) override;
  xarch::StatusOr<std::vector<std::string>> List(const std::string& dir) override {
    return base_->List(dir);
  }
  xarch::Status SyncDir(const std::string& path) override {
    if (down_) return Down();
    return base_->SyncDir(path);
  }

  // Called by the wrapped files.
  xarch::Status OnAppend(const std::string& path, size_t n);
  xarch::Status OnSync(const std::string& path);
  xarch::Status OnTruncate(const std::string& path, uint64_t size);
  bool down() const { return down_; }
  static xarch::Status Down() { return xarch::Status::IoError("simulated crash"); }

 private:
  struct FileState {
    uint64_t size = 0;
    uint64_t durable = 0;
  };

  xarch::vfs::Vfs* base_;
  std::mutex mu_;
  std::map<std::string, FileState> files_;
  std::atomic<bool> armed_{false};
  std::atomic<bool> down_{false};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> fsyncs_{0};
};

}  // namespace xbench

#endif  // XARCH_E2E_BENCH_CRASH_VFS_H_
