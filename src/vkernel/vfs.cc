#include "mvee/vkernel/vfs.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "mvee/util/hash.h"

namespace mvee {

namespace {

// Per-thread open-file handle cache: direct-mapped by path hash. A hit
// resolves a hot path (http document, bench blob) to its VFile with zero
// locks and zero map lookups. Entries are validated against the owning Vfs
// instance id and its unlink generation; the held VRef legitimately keeps an
// unlinked file's contents alive (POSIX: open handles survive unlink).
// Retention is bounded: a stale entry drops its reference the next time its
// slot is probed, so a thread pins at most kHandleCacheSlots files — and
// only until its next vkernel open.
struct HandleCacheEntry {
  uint64_t vfs_id = 0;
  uint64_t generation = 0;
  uint64_t path_hash = 0;
  std::string path;
  VRef<VFile> file;
};

constexpr size_t kHandleCacheSlots = 16;  // power of two

thread_local std::array<HandleCacheEntry, kHandleCacheSlots> tls_handle_cache;

std::atomic<uint64_t> next_vfs_id{1};

}  // namespace

int64_t VFile::ReadAt(uint64_t offset, uint8_t* out, uint64_t size) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (offset >= data_.size()) {
    return 0;
  }
  const uint64_t available = data_.size() - offset;
  const uint64_t n = std::min(size, available);
  std::memcpy(out, data_.data() + offset, n);
  return static_cast<int64_t>(n);
}

int64_t VFile::WriteAt(uint64_t offset, const uint8_t* data, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (offset + size > data_.size()) {
    data_.resize(offset + size);
  }
  std::memcpy(data_.data() + offset, data, size);
  return static_cast<int64_t>(size);
}

uint64_t VFile::Append(const uint8_t* data, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t offset = data_.size();
  data_.insert(data_.end(), data, data + size);
  return offset;
}

uint64_t VFile::Size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_.size();
}

void VFile::Truncate() {
  std::lock_guard<std::mutex> lock(mutex_);
  data_.clear();
}

std::vector<uint8_t> VFile::Contents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_;
}

Vfs::Vfs() : vfs_id_(next_vfs_id.fetch_add(1, std::memory_order_relaxed)) {}

Vfs::Stripe& Vfs::StripeFor(const std::string& path) {
  return stripes_[FnvHash(path) & (kStripes - 1)];
}

const Vfs::Stripe& Vfs::StripeFor(const std::string& path) const {
  return stripes_[FnvHash(path) & (kStripes - 1)];
}

VRef<VFile> Vfs::Open(const std::string& path, bool create) {
  const uint64_t hash = FnvHash(path);
  HandleCacheEntry& cached = tls_handle_cache[hash & (kHandleCacheSlots - 1)];
  const uint64_t generation = generation_.load(std::memory_order_acquire);
  if (cached.vfs_id == vfs_id_ && cached.generation == generation &&
      cached.path_hash == hash && cached.path == path) {
    return cached.file;
  }
  // Stale entry (other instance, unlinked generation, different path): drop
  // its reference NOW, not at overwrite time — a cached VRef must not pin a
  // dead Vfs's file bodies any longer than the next probe of this slot.
  cached.file.Reset();
  cached.vfs_id = 0;
  VRef<VFile> file = OpenSlow(path, create);
  if (file != nullptr) {
    cached.vfs_id = vfs_id_;
    cached.generation = generation;
    cached.path_hash = hash;
    cached.path = path;
    cached.file = file;
  }
  return file;
}

VRef<VFile> Vfs::OpenSlow(const std::string& path, bool create) {
  Stripe& stripe = StripeFor(path);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.files.find(path);
  if (it != stripe.files.end()) {
    return it->second.file;
  }
  if (!create) {
    return nullptr;
  }
  Entry entry;
  entry.file = MakeVRef<VFile>();
  entry.inode = next_inode_.fetch_add(1, std::memory_order_relaxed);
  VRef<VFile> file = entry.file;
  stripe.files.emplace(path, std::move(entry));
  return file;
}

bool Vfs::Exists(const std::string& path) const {
  const Stripe& stripe = StripeFor(path);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  return stripe.files.count(path) != 0;
}

int64_t Vfs::Stat(const std::string& path, VStat* out) const {
  const Stripe& stripe = StripeFor(path);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.files.find(path);
  if (it == stripe.files.end()) {
    return -ENOENT;
  }
  out->size = it->second.file->Size();
  out->inode = it->second.inode;
  return 0;
}

int64_t Vfs::Unlink(const std::string& path) {
  Stripe& stripe = StripeFor(path);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.files.find(path);
  if (it == stripe.files.end()) {
    return -ENOENT;
  }
  stripe.files.erase(it);
  // Invalidate every thread's handle cache: a later open of this path must
  // miss (and, with create, produce a fresh file), not resurrect this one.
  generation_.fetch_add(1, std::memory_order_release);
  return 0;
}

void Vfs::PutFile(const std::string& path, std::vector<uint8_t> contents) {
  auto file = Open(path, /*create=*/true);
  file->Truncate();
  if (!contents.empty()) {
    file->Append(contents.data(), contents.size());
  }
}

size_t Vfs::FileCount() const {
  size_t count = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    count += stripe.files.size();
  }
  return count;
}

}  // namespace mvee
