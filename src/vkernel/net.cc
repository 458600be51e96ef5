#include "mvee/vkernel/net.h"

#include <algorithm>
#include <cerrno>

namespace mvee {

int64_t ByteStream::Read(uint8_t* out, uint64_t size) {
  uint64_t n = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    readable_.wait(lock, [&] { return !buffer_.empty() || closed_; });
    if (buffer_.empty()) {
      return 0;
    }
    n = std::min<uint64_t>(size, buffer_.size());
    for (uint64_t i = 0; i < n; ++i) {
      out[i] = buffer_.front();
      buffer_.pop_front();
    }
    writable_.notify_all();
  }
  NotifySink();  // Space freed: peers polling for kOut.
  return static_cast<int64_t>(n);
}

int64_t ByteStream::Write(const uint8_t* data, uint64_t size) {
  uint64_t written = 0;
  while (written < size) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      writable_.wait(lock, [&] { return buffer_.size() < capacity_ || closed_; });
      if (closed_) {
        return -ECONNRESET;
      }
      const uint64_t room = capacity_ - buffer_.size();
      const uint64_t n = std::min(room, size - written);
      buffer_.insert(buffer_.end(), data + written, data + written + n);
      written += n;
      readable_.notify_all();
    }
    NotifySink();  // Data available: peers parked in poll.
  }
  return static_cast<int64_t>(written);
}

void ByteStream::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    readable_.notify_all();
    writable_.notify_all();
  }
  NotifySink();
}

bool ByteStream::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

bool ByteStream::Readable() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Data available, or EOF readable immediately (Read returns 0).
  return !buffer_.empty() || closed_;
}

bool ByteStream::Writable() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Space available, or the write fails immediately (-ECONNRESET): either
  // way a Write would not block — POSIX poll reports closed sockets as
  // writable so callers discover the error.
  return buffer_.size() < capacity_ || closed_;
}

int64_t VListener::PushConnection(VRef<VConnection> conn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || pending_.size() >= static_cast<size_t>(backlog_)) {
      return -ECONNREFUSED;
    }
    pending_.push_back(std::move(conn));
  }
  waitq_.Notify();  // Accepters parked on the listener's queue.
  return 0;
}

VRef<VConnection> VListener::TryAccept(bool* closed) {
  VRef<VConnection> conn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    *closed = closed_;
    if (pending_.empty()) {
      return nullptr;
    }
    conn = std::move(pending_.front());
    pending_.pop_front();
  }
  waitq_.Notify();
  return conn;
}

bool VListener::HasPending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !pending_.empty() || closed_;
}

void VListener::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  waitq_.Notify();
}

int64_t VirtualNetwork::Listen(uint16_t port, int backlog, VRef<VListener>* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (listeners_.count(port) != 0) {
    return -EADDRINUSE;
  }
  auto listener = MakeVRef<VListener>(backlog, registry_);
  *out = listener;
  listeners_[port] = std::move(listener);
  return 0;
}

VRef<VConnection> VirtualNetwork::Connect(uint16_t port) {
  VRef<VListener> listener;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = listeners_.find(port);
    if (it == listeners_.end()) {
      return nullptr;
    }
    listener = it->second;
  }
  auto conn = MakeVRef<VConnection>(registry_);
  if (listener->PushConnection(conn) != 0) {
    return nullptr;
  }
  return conn;
}

void VirtualNetwork::CloseAll() {
  std::map<uint16_t, VRef<VListener>> listeners;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    listeners.swap(listeners_);
  }
  for (auto& [port, listener] : listeners) {
    listener->Close();
  }
}

void VirtualNetwork::CloseListener(uint16_t port) {
  VRef<VListener> listener;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = listeners_.find(port);
    if (it == listeners_.end()) {
      return;
    }
    listener = std::move(it->second);
    listeners_.erase(it);
  }
  listener->Close();
}

}  // namespace mvee
