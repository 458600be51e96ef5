// Virtual TCP-lite network.
//
// The nginx-style use case (paper §5.5) needs a server that accepts
// connections and a wrk-style client generating load. The virtual network
// provides per-port listeners with accept queues and bidirectional byte
// stream connections. Only the master variant executes network I/O; results
// are replicated (accept/connect/send/recv are kReplicated syscalls).
//
// Connections and listeners are waitable: each owns a WaitQueue fired on
// every state change (sys_poll parks on it instead of re-scanning on a sleep
// quantum) and registers in the kernel's WaitRegistry so teardown closes
// everything from one place (waitq.h).

#ifndef MVEE_VKERNEL_NET_H_
#define MVEE_VKERNEL_NET_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>

#include "mvee/vkernel/vobject.h"
#include "mvee/vkernel/waitq.h"

namespace mvee {

// One direction of a connection: a bounded blocking byte stream. `sink` is
// the owning connection's WaitQueue, fired on every state change.
class ByteStream {
 public:
  explicit ByteStream(size_t capacity = 262144, WaitQueue* sink = nullptr)
      : capacity_(capacity), sink_(sink) {}

  // Blocks until data or close. Returns bytes read; 0 on orderly shutdown.
  int64_t Read(uint8_t* out, uint64_t size);
  // Blocks while full. Returns size, or -ECONNRESET if the peer closed.
  int64_t Write(const uint8_t* data, uint64_t size);
  void Close();
  bool closed() const;
  // Readiness queries for sys_poll: a Read would not block / a Write of at
  // least one byte would not block.
  bool Readable() const;
  bool Writable() const;

 private:
  void NotifySink() {
    if (sink_ != nullptr) {
      sink_->Notify();
    }
  }

  const size_t capacity_;
  WaitQueue* const sink_;
  mutable std::mutex mutex_;
  std::condition_variable readable_;
  std::condition_variable writable_;
  std::deque<uint8_t> buffer_;
  bool closed_ = false;
};

// A full-duplex connection: the accept side reads what the connect side
// writes and vice versa.
class VConnection : public VObject, public Waitable {
 public:
  explicit VConnection(WaitRegistry* registry = nullptr)
      : client_to_server_(kStreamCapacity, &waitq_),
        server_to_client_(kStreamCapacity, &waitq_) {
    RegisterWaitable(registry);
  }
  // Unregister while the members a concurrent ShutdownWake touches still
  // exist (see Waitable::UnregisterWaitable).
  ~VConnection() override { UnregisterWaitable(); }

  // Server-side (accepted socket) operations.
  int64_t ServerRead(uint8_t* out, uint64_t size) { return client_to_server_.Read(out, size); }
  int64_t ServerWrite(const uint8_t* data, uint64_t size) {
    return server_to_client_.Write(data, size);
  }
  // Client-side operations.
  int64_t ClientRead(uint8_t* out, uint64_t size) { return server_to_client_.Read(out, size); }
  int64_t ClientWrite(const uint8_t* data, uint64_t size) {
    return client_to_server_.Write(data, size);
  }

  bool ServerReadable() const { return client_to_server_.Readable(); }
  bool ServerWritable() const { return server_to_client_.Writable(); }
  bool ClientReadable() const { return server_to_client_.Readable(); }
  bool ClientWritable() const { return client_to_server_.Writable(); }

  void CloseServerSide() { server_to_client_.Close(); }
  void CloseClientSide() { client_to_server_.Close(); }
  void CloseBoth() {
    client_to_server_.Close();
    server_to_client_.Close();
  }

  WaitQueue* waitq() override { return &waitq_; }
  void ShutdownWake() override { CloseBoth(); }

 private:
  static constexpr size_t kStreamCapacity = 262144;

  WaitQueue waitq_;
  ByteStream client_to_server_;
  ByteStream server_to_client_;
};

// Listening socket: pending-connection queue.
class VListener : public VObject, public Waitable {
 public:
  explicit VListener(int backlog, WaitRegistry* registry = nullptr) : backlog_(backlog) {
    RegisterWaitable(registry);
  }
  // Unregister while the members a concurrent ShutdownWake touches still
  // exist (see Waitable::UnregisterWaitable).
  ~VListener() override { UnregisterWaitable(); }

  // Client side: enqueues a new connection; fails with -ECONNREFUSED if the
  // listener is closed or the backlog is full.
  int64_t PushConnection(VRef<VConnection> conn);
  // Server side, non-blocking: pops a pending connection, or returns nullptr
  // with *closed set when the listener died. Blocking accepts park on
  // waitq() between tries (VirtualKernel::AcceptBlocking).
  VRef<VConnection> TryAccept(bool* closed);
  // sys_poll readiness: a blocking accept would return at once (a pending
  // connection, or the listener closed).
  bool HasPending() const;
  void Close();

  WaitQueue* waitq() override { return &waitq_; }
  void ShutdownWake() override { Close(); }

 private:
  const int backlog_;
  mutable std::mutex mutex_;
  std::deque<VRef<VConnection>> pending_;
  WaitQueue waitq_;
  bool closed_ = false;
};

// Port -> listener registry shared by the whole machine. When constructed by
// a VirtualKernel it carries the kernel's WaitRegistry, which every listener
// and connection it creates registers with.
class VirtualNetwork {
 public:
  explicit VirtualNetwork(WaitRegistry* registry = nullptr) : registry_(registry) {}

  // Returns 0 or -EADDRINUSE.
  int64_t Listen(uint16_t port, int backlog, VRef<VListener>* out);
  // Returns a connected VConnection or nullptr (-ECONNREFUSED semantics).
  VRef<VConnection> Connect(uint16_t port);
  void CloseListener(uint16_t port);
  // Closes every listener and empties the port map. Live connections belong
  // to the WaitRegistry (ShutdownAll closes them); a standalone network
  // (tests) closes only what it tracks.
  void CloseAll();

 private:
  WaitRegistry* const registry_;
  std::mutex mutex_;
  std::map<uint16_t, VRef<VListener>> listeners_;
};

}  // namespace mvee

#endif  // MVEE_VKERNEL_NET_H_
