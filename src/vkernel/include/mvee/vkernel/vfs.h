// In-memory virtual filesystem shared by all variants.
//
// File *content* is a shared resource (the real kernel's filesystem is shared
// between the variants' processes too); each variant process has its own file
// descriptor table on top (fd_table.h). Open flags follow a small subset of
// POSIX semantics: create, truncate, append, read/write.
//
// Concurrency (docs/DESIGN.md §7): the path/inode namespace is striped into
// lock-striped buckets selected by path hash, and every thread keeps a small
// direct-mapped open-file handle cache so the open() of a hot path (the http
// server's document, a bench blob) takes no lock at all. Unlink bumps a
// generation the caches validate against.

#ifndef MVEE_VKERNEL_VFS_H_
#define MVEE_VKERNEL_VFS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mvee/vkernel/vobject.h"

namespace mvee {

// Open flags (bitmask). Deliberately not the raw POSIX values — the vkernel
// has its own stable ABI.
struct VOpenFlags {
  static constexpr int64_t kRead = 1 << 0;
  static constexpr int64_t kWrite = 1 << 1;
  static constexpr int64_t kCreate = 1 << 2;
  static constexpr int64_t kTruncate = 1 << 3;
  static constexpr int64_t kAppend = 1 << 4;
};

// A regular file: byte vector + lock. Thread-safe at the operation level.
class VFile : public VObject {
 public:
  // Reads up to `size` bytes at `offset`; returns bytes read (0 at EOF).
  int64_t ReadAt(uint64_t offset, uint8_t* out, uint64_t size) const;
  // Writes `size` bytes at `offset`, growing the file as needed; returns size.
  int64_t WriteAt(uint64_t offset, const uint8_t* data, uint64_t size);
  // Appends and returns the offset the data landed at.
  uint64_t Append(const uint8_t* data, uint64_t size);
  uint64_t Size() const;
  void Truncate();
  // Snapshot of the contents (for tests and output comparison).
  std::vector<uint8_t> Contents() const;

 private:
  mutable std::mutex mutex_;
  std::vector<uint8_t> data_;
};

struct VStat {
  uint64_t size = 0;
  uint64_t inode = 0;
};

// Path -> file map. Flat namespace (no directories); paths are opaque keys.
class Vfs {
 public:
  Vfs();

  // Returns the file, creating it if `create`. nullptr if absent and !create.
  VRef<VFile> Open(const std::string& path, bool create);
  bool Exists(const std::string& path) const;
  // Returns negative errno or 0.
  int64_t Stat(const std::string& path, VStat* out) const;
  // Returns negative errno or 0.
  int64_t Unlink(const std::string& path);
  // Pre-populates a file (test/bench fixture helper).
  void PutFile(const std::string& path, std::vector<uint8_t> contents);
  size_t FileCount() const;

 private:
  // Stripe count: power of two, sized so unrelated paths rarely share a
  // lock. Cache-line padded so stripe locks never false-share.
  static constexpr size_t kStripes = 16;

  struct Entry {
    VRef<VFile> file;
    uint64_t inode = 0;
  };
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    std::map<std::string, Entry> files;
  };

  Stripe& StripeFor(const std::string& path);
  const Stripe& StripeFor(const std::string& path) const;
  VRef<VFile> OpenSlow(const std::string& path, bool create);

  // Identifies this instance in the thread-local handle caches (instances
  // can be destroyed and reallocated at the same address).
  const uint64_t vfs_id_;
  // Bumped by Unlink (the only absent-making transition); handle-cache
  // entries stamped with an older generation are dead.
  std::atomic<uint64_t> generation_{1};
  std::atomic<uint64_t> next_inode_{1};
  Stripe stripes_[kStripes];
};

}  // namespace mvee

#endif  // MVEE_VKERNEL_VFS_H_
