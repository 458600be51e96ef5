// Unit tests for the virtual kernel substrate: VFS, fd tables, pipes, the
// virtual network, address spaces, futexes, the wait-queue readiness layer,
// and the syscall executor (docs/DESIGN.md §7).

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mvee/monitor/mvee.h"
#include "mvee/vkernel/vkernel.h"

namespace mvee {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// socket + bind + listen on `port` through the syscall executor; returns the
// listening descriptor.
int32_t ListenOn(VirtualKernel& kernel, ProcessState& process, uint16_t port) {
  SyscallRequest socket;
  socket.sysno = Sysno::kSocket;
  const int64_t sfd = kernel.Execute(process, socket).retval;
  EXPECT_GE(sfd, 0);
  SyscallRequest bind;
  bind.sysno = Sysno::kBind;
  bind.arg0 = sfd;
  bind.arg1 = port;
  EXPECT_EQ(kernel.Execute(process, bind).retval, 0);
  SyscallRequest listen;
  listen.sysno = Sysno::kListen;
  listen.arg0 = sfd;
  listen.arg1 = 8;
  EXPECT_EQ(kernel.Execute(process, listen).retval, 0);
  return static_cast<int32_t>(sfd);
}

TEST(VfsTest, OpenCreateReadWrite) {
  Vfs vfs;
  EXPECT_EQ(vfs.Open("absent", /*create=*/false), nullptr);
  auto file = vfs.Open("f", /*create=*/true);
  ASSERT_NE(file, nullptr);
  file->Append(Bytes("hello").data(), 5);
  uint8_t buffer[8] = {};
  EXPECT_EQ(file->ReadAt(0, buffer, 8), 5);
  EXPECT_EQ(std::string(buffer, buffer + 5), "hello");
  EXPECT_EQ(file->ReadAt(5, buffer, 8), 0);  // EOF.
}

TEST(VfsTest, WriteAtGrowsFile) {
  Vfs vfs;
  auto file = vfs.Open("f", true);
  file->WriteAt(10, Bytes("x").data(), 1);
  EXPECT_EQ(file->Size(), 11u);
}

TEST(VfsTest, StatAndUnlink) {
  Vfs vfs;
  vfs.PutFile("a", {1, 2, 3});
  VStat st;
  EXPECT_EQ(vfs.Stat("a", &st), 0);
  EXPECT_EQ(st.size, 3u);
  EXPECT_EQ(vfs.Unlink("a"), 0);
  EXPECT_EQ(vfs.Stat("a", &st), -ENOENT);
  EXPECT_EQ(vfs.Unlink("a"), -ENOENT);
}

// The VFS keeps a per-thread open-file handle cache; an unlink must
// invalidate it so a re-created path resolves to the fresh file, not the
// cached dead one.
TEST(VfsTest, UnlinkInvalidatesHandleCache) {
  Vfs vfs;
  vfs.PutFile("doc", {'o', 'l', 'd'});
  auto cached = vfs.Open("doc", false);  // Warms this thread's cache.
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(vfs.Unlink("doc"), 0);
  auto recreated = vfs.Open("doc", /*create=*/true);
  ASSERT_NE(recreated, nullptr);
  EXPECT_NE(recreated, cached);
  EXPECT_EQ(recreated->Size(), 0u);
  // The old handle's contents stay readable (POSIX: open handles survive
  // unlink).
  EXPECT_EQ(cached->Size(), 3u);
}

TEST(VfsTest, StripedNamespaceCountsAcrossStripes) {
  Vfs vfs;
  for (int i = 0; i < 64; ++i) {
    vfs.PutFile("file_" + std::to_string(i), {static_cast<uint8_t>(i)});
  }
  EXPECT_EQ(vfs.FileCount(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(vfs.Exists("file_" + std::to_string(i)));
  }
}

TEST(FdTableTest, LowestAvailableAllocation) {
  FdTable fds;
  FdEntry entry;
  entry.kind = FdKind::kFile;
  entry.object = MakeVRef<VFile>();
  // 0,1,2 reserved for stdio.
  EXPECT_EQ(fds.Allocate(entry), 3);
  entry.object = MakeVRef<VFile>();
  EXPECT_EQ(fds.Allocate(entry), 4);
  EXPECT_EQ(fds.Close(3), 0);
  // Lowest free slot is reused — the property the paper's §3.1 fd example
  // depends on.
  entry.object = MakeVRef<VFile>();
  EXPECT_EQ(fds.Allocate(std::move(entry)), 3);
}

TEST(FdTableTest, CloseInvalidFd) {
  FdTable fds;
  EXPECT_EQ(fds.Close(99), -EBADF);
  EXPECT_EQ(fds.Close(-1), -EBADF);
  EXPECT_FALSE(fds.Get(99));
}

TEST(FdTableTest, DupCopiesEntry) {
  FdTable fds;
  FdEntry entry;
  entry.kind = FdKind::kFile;
  entry.object = MakeVRef<VFile>();
  entry.path = "p";
  const int32_t fd = fds.Allocate(std::move(entry));
  const int32_t dup = fds.Dup(fd);
  EXPECT_GT(dup, fd);
  EXPECT_EQ(fds.Get(dup).path(), "p");
  // The duplicate shares the object but owns its own reference.
  EXPECT_EQ(fds.Get(dup).object(), fds.Get(fd).object());
  EXPECT_EQ(fds.Dup(1234), -EBADF);
}

TEST(FdTableTest, GenerationTagInvalidatesAcrossReuse) {
  FdTable fds;
  FdEntry entry;
  entry.kind = FdKind::kFile;
  entry.object = MakeVRef<VFile>();
  const int32_t fd = fds.Allocate(std::move(entry));
  const uint32_t domain_before = fds.OrderDomainOf(fd);
  EXPECT_EQ(fds.Close(fd), 0);
  EXPECT_FALSE(fds.Get(fd));
  FdEntry again;
  again.kind = FdKind::kFile;
  again.object = MakeVRef<VFile>();
  EXPECT_EQ(fds.Allocate(std::move(again)), fd);  // Same number...
  EXPECT_TRUE(fds.Get(fd));
  // ...fresh ordering domain: replay clocks never leak across reuse.
  EXPECT_NE(fds.OrderDomainOf(fd), domain_before);
}

TEST(FdTableTest, FullTableReturnsEmfile) {
  FdTable fds;
  std::vector<int32_t> opened;
  for (;;) {
    FdEntry entry;
    entry.kind = FdKind::kFile;
    const int32_t fd = fds.Allocate(std::move(entry));
    if (fd < 0) {
      EXPECT_EQ(fd, -EMFILE);
      break;
    }
    opened.push_back(fd);
  }
  EXPECT_EQ(opened.size(), static_cast<size_t>(FdTable::kMaxFds) - 3);  // minus stdio
  for (const int32_t fd : opened) {
    EXPECT_EQ(fds.Close(fd), 0);
  }
}

TEST(PipeTest, BlockingRoundTrip) {
  VPipe pipe;
  std::thread writer([&] {
    pipe.Write(Bytes("abc").data(), 3);
    pipe.CloseWriteEnd();
  });
  uint8_t buffer[8] = {};
  int64_t n = pipe.Read(buffer, 8);
  EXPECT_EQ(n, 3);
  EXPECT_EQ(pipe.Read(buffer, 8), 0);  // EOF after close.
  writer.join();
}

TEST(PipeTest, WriteToClosedReadEndFails) {
  VPipe pipe;
  pipe.CloseReadEnd();
  EXPECT_EQ(pipe.Write(Bytes("abc").data(), 3), -EPIPE);
}

TEST(PipeTest, BackpressureBlocksWriter) {
  VPipe pipe(/*capacity=*/4);
  ASSERT_EQ(pipe.Write(Bytes("abcd").data(), 4), 4);
  std::atomic<bool> wrote{false};
  std::thread writer([&] {
    pipe.Write(Bytes("e").data(), 1);
    wrote.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(wrote.load());
  uint8_t buffer[4];
  pipe.Read(buffer, 4);
  writer.join();
  EXPECT_TRUE(wrote.load());
}

TEST(NetTest, ListenConnectAcceptEcho) {
  VirtualNetwork network;
  VRef<VListener> listener;
  ASSERT_EQ(network.Listen(8080, 16, &listener), 0);
  EXPECT_EQ(network.Listen(8080, 16, &listener), -EADDRINUSE);

  bool closed = true;
  EXPECT_EQ(listener->TryAccept(&closed), nullptr);  // Nothing pending yet.
  EXPECT_FALSE(closed);
  auto client_conn = network.Connect(8080);
  ASSERT_NE(client_conn, nullptr);
  auto server_conn = listener->TryAccept(&closed);
  ASSERT_EQ(server_conn, client_conn);
  EXPECT_FALSE(closed);

  client_conn->ClientWrite(Bytes("ping").data(), 4);
  uint8_t buffer[8] = {};
  EXPECT_EQ(server_conn->ServerRead(buffer, 8), 4);
  server_conn->ServerWrite(Bytes("pong!").data(), 5);
  EXPECT_EQ(client_conn->ClientRead(buffer, 8), 5);
  EXPECT_EQ(std::string(buffer, buffer + 5), "pong!");
}

TEST(NetTest, ConnectToClosedPortFails) {
  VirtualNetwork network;
  EXPECT_EQ(network.Connect(9999), nullptr);
}

// A blocking accept parked on the listener's wait queue is released by the
// listener closing, with -ECONNABORTED.
TEST(NetTest, CloseAllUnblocksAccept) {
  VirtualKernel kernel;
  ProcessState process(1000, 0x10000, 0x100000);
  const int32_t sfd = ListenOn(kernel, process, 80);
  const uint64_t waits_before = kernel.stats().waitq_waits;
  std::atomic<int64_t> accept_error{1};
  std::thread acceptor([&] {
    int64_t error = 0;
    EXPECT_EQ(kernel.AcceptBlocking(process, sfd, &error), nullptr);
    accept_error.store(error);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (kernel.stats().waitq_waits == waits_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(accept_error.load(), 1);  // Parked, not returned.
  kernel.network().CloseAll();
  acceptor.join();
  EXPECT_EQ(accept_error.load(), -ECONNABORTED);
}

TEST(AddressSpaceTest, BrkQueryAndMove) {
  AddressSpace mem(0x1000, 0x100000);
  uint64_t brk = 0;
  EXPECT_EQ(mem.Brk(0, &brk), 0);
  EXPECT_EQ(brk, 0x1000u);
  EXPECT_EQ(mem.Brk(4096, &brk), 0);
  EXPECT_EQ(brk, 0x2000u);
  EXPECT_EQ(mem.Brk(-4096, &brk), 0);
  EXPECT_EQ(brk, 0x1000u);
  EXPECT_EQ(mem.Brk(-8192, &brk), -ENOMEM);  // Below heap base.
}

TEST(AddressSpaceTest, MmapMunmapMprotect) {
  AddressSpace mem(0x1000, 0x100000);
  uint64_t addr = 0;
  EXPECT_EQ(mem.Mmap(100, VProt::kRead | VProt::kWrite, &addr), 0);
  EXPECT_EQ(addr, 0x100000u);
  EXPECT_EQ(mem.MappingCount(), 1u);
  EXPECT_EQ(mem.ProtOf(addr), VProt::kRead | VProt::kWrite);
  EXPECT_EQ(mem.Mprotect(addr, 100, VProt::kRead), 0);
  EXPECT_EQ(mem.ProtOf(addr), VProt::kRead);
  EXPECT_EQ(mem.Mprotect(addr + 4096, 100, VProt::kRead), -ENOMEM);
  EXPECT_EQ(mem.Munmap(addr, 100), 0);
  EXPECT_EQ(mem.MappingCount(), 0u);
  EXPECT_EQ(mem.Munmap(addr, 100), -EINVAL);
  EXPECT_EQ(mem.Mmap(0, VProt::kRead, &addr), -EINVAL);
}

TEST(AddressSpaceTest, DistinctBasesGiveDistinctAddresses) {
  AddressSpace a(0x1000, 0x100000);
  AddressSpace b(0x5000, 0x500000);
  uint64_t addr_a = 0;
  uint64_t addr_b = 0;
  a.Mmap(4096, VProt::kRead, &addr_a);
  b.Mmap(4096, VProt::kRead, &addr_b);
  EXPECT_NE(addr_a, addr_b);
  // Logical (base-relative) addresses match: the property the monitor's
  // comparison relies on.
  EXPECT_EQ(addr_a - 0x100000, addr_b - 0x500000);
}

// --- Futex table ---

TEST(FutexTest, WakeReleasesWaiter) {
  FutexTable futexes;
  std::atomic<int32_t> word{1};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    EXPECT_EQ(futexes.Wait(0x1234, &word, 1), 0);
    woke.store(true);
  });
  while (futexes.WaiterCount() == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(woke.load());
  EXPECT_EQ(futexes.Wake(0x1234, 1), 1);
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(FutexTest, ValueMismatchReturnsEagain) {
  FutexTable futexes;
  std::atomic<int32_t> word{2};
  EXPECT_EQ(futexes.Wait(0x1, &word, 1), -EAGAIN);
}

TEST(FutexTest, WakeWithNoWaitersReturnsZero) {
  FutexTable futexes;
  EXPECT_EQ(futexes.Wake(0x9, 10), 0);
  // A wake on a never-slept address must not materialize a bucket.
  EXPECT_EQ(futexes.BucketCount(), 0u);
}

TEST(FutexTest, WakeAllReleasesEveryone) {
  FutexTable futexes;
  std::atomic<int32_t> word{5};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] { futexes.Wait(0x7, &word, 5); });
  }
  while (futexes.WaiterCount() < 3) {
    std::this_thread::yield();
  }
  futexes.WakeAll();
  for (auto& t : waiters) {
    t.join();
  }
  EXPECT_EQ(futexes.WaiterCount(), 0u);
}

// A long-running server must not retain one bucket per futex word ever slept
// on: buckets are reclaimed the moment their last waiter is released.
TEST(FutexTest, BucketsReclaimedAtZeroWaiters) {
  FutexTable futexes;
  constexpr int kAddrs = 16;
  std::atomic<int32_t> word{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kAddrs; ++i) {
    waiters.emplace_back([&, i] { futexes.Wait(0x1000 + i * 8, &word, 0); });
  }
  while (futexes.WaiterCount() < kAddrs) {
    std::this_thread::yield();
  }
  EXPECT_EQ(futexes.BucketCount(), static_cast<size_t>(kAddrs));
  for (int i = 0; i < kAddrs; ++i) {
    EXPECT_EQ(futexes.Wake(0x1000 + i * 8, 1), 1);
  }
  for (auto& t : waiters) {
    t.join();
  }
  EXPECT_EQ(futexes.WaiterCount(), 0u);
  EXPECT_EQ(futexes.BucketCount(), 0u) << futexes.DebugString();
}

// --- Syscall executor ---

class VirtualKernelTest : public ::testing::Test {
 protected:
  VirtualKernel kernel_;
  ProcessState process_{1000, 0x10000, 0x100000};

  int64_t Call(SyscallRequest& request) { return kernel_.Execute(process_, request).retval; }
};

TEST_F(VirtualKernelTest, OpenWriteReadRoundTrip) {
  SyscallRequest open;
  open.sysno = Sysno::kOpen;
  open.path = "data.txt";
  open.arg0 = VOpenFlags::kRead | VOpenFlags::kWrite | VOpenFlags::kCreate;
  const int64_t fd = Call(open);
  ASSERT_GE(fd, 3);

  SyscallRequest write;
  write.sysno = Sysno::kWrite;
  write.arg0 = fd;
  const std::string payload = "virtual kernel";
  write.in_data = Bytes(payload);
  EXPECT_EQ(Call(write), static_cast<int64_t>(payload.size()));

  SyscallRequest seek;
  seek.sysno = Sysno::kLseek;
  seek.arg0 = fd;
  seek.arg1 = 0;
  seek.arg2 = 0;  // SEEK_SET
  EXPECT_EQ(Call(seek), 0);

  SyscallRequest read;
  read.sysno = Sysno::kRead;
  read.arg0 = fd;
  std::vector<uint8_t> buffer(payload.size());
  read.out_data = buffer;
  EXPECT_EQ(Call(read), static_cast<int64_t>(payload.size()));
  EXPECT_EQ(std::string(buffer.begin(), buffer.end()), payload);
}

TEST_F(VirtualKernelTest, OpenWithoutCreateFails) {
  SyscallRequest open;
  open.sysno = Sysno::kOpen;
  open.path = "missing";
  open.arg0 = VOpenFlags::kRead;
  EXPECT_EQ(Call(open), -ENOENT);
}

TEST_F(VirtualKernelTest, ReadBadFd) {
  SyscallRequest read;
  read.sysno = Sysno::kRead;
  read.arg0 = 77;
  uint8_t buffer[4];
  read.out_data = buffer;
  EXPECT_EQ(Call(read), -EBADF);
}

TEST_F(VirtualKernelTest, PipePacksTwoFds) {
  SyscallRequest pipe;
  pipe.sysno = Sysno::kPipe;
  const int64_t packed = Call(pipe);
  ASSERT_GE(packed, 0);
  const int32_t rfd = static_cast<int32_t>(packed & 0xffffffff);
  const int32_t wfd = static_cast<int32_t>(packed >> 32);
  EXPECT_NE(rfd, wfd);

  SyscallRequest write;
  write.sysno = Sysno::kWrite;
  write.arg0 = wfd;
  const std::string payload = "xy";  // Outlives the span, unlike a temporary.
  write.in_data = Bytes(payload);
  EXPECT_EQ(Call(write), 2);

  SyscallRequest read;
  read.sysno = Sysno::kRead;
  read.arg0 = rfd;
  uint8_t buffer[4];
  read.out_data = buffer;
  EXPECT_EQ(Call(read), 2);
}

TEST_F(VirtualKernelTest, GetrandomIsDeterministicPerSeed) {
  VirtualKernel kernel_a(7);
  VirtualKernel kernel_b(7);
  ProcessState process_a(1, 0x1000, 0x10000);
  ProcessState process_b(1, 0x1000, 0x10000);
  std::vector<uint8_t> buffer_a(16);
  std::vector<uint8_t> buffer_b(16);
  SyscallRequest request;
  request.sysno = Sysno::kGetrandom;
  request.out_data = buffer_a;
  kernel_a.Execute(process_a, request);
  request.out_data = buffer_b;
  kernel_b.Execute(process_b, request);
  EXPECT_EQ(buffer_a, buffer_b);
}

// Per-thread-set RNG streams: different logical tids draw from independent
// counted streams (no shared lock), and the same tid is reproducible across
// kernels regardless of what other tids drew in between.
TEST_F(VirtualKernelTest, GetrandomStreamsArePerTidAndOrderIndependent) {
  VirtualKernel kernel_a(7);
  VirtualKernel kernel_b(7);
  ProcessState process_a(1, 0x1000, 0x10000);
  ProcessState process_b(1, 0x1000, 0x10000);
  std::vector<uint8_t> tid1_a(16), tid2_a(16), tid1_b(16), noise(16);

  SyscallRequest request;
  request.sysno = Sysno::kGetrandom;
  request.tid = 1;
  request.out_data = tid1_a;
  kernel_a.Execute(process_a, request);
  request.tid = 2;
  request.out_data = tid2_a;
  kernel_a.Execute(process_a, request);

  // Kernel B interleaves tid 2 first; tid 1's stream must be unaffected.
  request.tid = 2;
  request.out_data = noise;
  kernel_b.Execute(process_b, request);
  request.tid = 1;
  request.out_data = tid1_b;
  kernel_b.Execute(process_b, request);

  EXPECT_EQ(tid1_a, tid1_b);
  EXPECT_NE(tid1_a, tid2_a);
}

TEST_F(VirtualKernelTest, ApplyReplicatedEffectAdvancesFileOffset) {
  SyscallRequest open;
  open.sysno = Sysno::kOpen;
  open.path = "f";
  open.arg0 = VOpenFlags::kRead | VOpenFlags::kCreate;
  const int64_t fd = Call(open);
  kernel_.vfs().PutFile("f", {1, 2, 3, 4, 5});

  SyscallRequest read;
  read.sysno = Sysno::kRead;
  read.arg0 = fd;
  uint8_t buffer[3];
  read.out_data = buffer;
  SyscallResult master_result;
  master_result.retval = 3;
  kernel_.ApplyReplicatedEffect(process_, read, master_result);

  SyscallRequest seek;
  seek.sysno = Sysno::kLseek;
  seek.arg0 = fd;
  seek.arg1 = 0;
  seek.arg2 = 1;  // SEEK_CUR
  EXPECT_EQ(Call(seek), 3);
}

TEST_F(VirtualKernelTest, ApplyReplicatedEffectInstallsShadowAcceptFd) {
  SyscallRequest accept;
  accept.sysno = Sysno::kAccept;
  accept.arg0 = 3;
  SyscallResult master_result;
  master_result.retval = 4;
  const int64_t shadow_fd = kernel_.ApplyReplicatedEffect(process_, accept, master_result);
  EXPECT_EQ(shadow_fd, 3);  // First free fd in this fresh process.
}

TEST_F(VirtualKernelTest, ClockMonotonic) {
  SyscallRequest t;
  t.sysno = Sysno::kClockGettime;
  const int64_t first = Call(t);
  const int64_t second = Call(t);
  EXPECT_GE(second, first);
  SyscallRequest tsc;
  tsc.sysno = Sysno::kRdtsc;
  const int64_t tsc1 = Call(tsc);
  const int64_t tsc2 = Call(tsc);
  EXPECT_GT(tsc2, tsc1);
}

TEST_F(VirtualKernelTest, SyscallClassification) {
  EXPECT_EQ(ClassOf(Sysno::kRead), SyscallClass::kReplicated);
  EXPECT_EQ(ClassOf(Sysno::kFutex), SyscallClass::kReplicated);  // §4.1 fn 5.
  EXPECT_EQ(ClassOf(Sysno::kOpen), SyscallClass::kOrdered);
  EXPECT_EQ(ClassOf(Sysno::kMmap), SyscallClass::kOrdered);
  EXPECT_EQ(ClassOf(Sysno::kGettid), SyscallClass::kLocal);
  EXPECT_EQ(ClassOf(Sysno::kExit), SyscallClass::kControl);
  EXPECT_EQ(SensitivityOf(Sysno::kWrite), SyscallSensitivity::kSensitive);
  EXPECT_EQ(SensitivityOf(Sysno::kRead), SyscallSensitivity::kBenign);
}

TEST_F(VirtualKernelTest, ComparableDigestIgnoresLocalAddr) {
  SyscallRequest a;
  a.sysno = Sysno::kMprotect;
  a.logical_addr = 0x1000;
  a.local_addr = 0xAAAA0000;
  SyscallRequest b;
  b.sysno = Sysno::kMprotect;
  b.logical_addr = 0x1000;
  b.local_addr = 0xBBBB0000;  // Different raw address (ASLR).
  EXPECT_EQ(a.ComparableDigest(), b.ComparableDigest());
  b.logical_addr = 0x2000;
  EXPECT_NE(a.ComparableDigest(), b.ComparableDigest());
}

TEST_F(VirtualKernelTest, ComparableDigestCoversPayload) {
  SyscallRequest a;
  a.sysno = Sysno::kWrite;
  a.arg0 = 1;
  const std::string hello = "hello";
  const std::string hello_upper_o = "hellO";
  a.in_data = Bytes(hello);
  SyscallRequest b;
  b.sysno = Sysno::kWrite;
  b.arg0 = 1;
  b.in_data = Bytes(hello_upper_o);
  EXPECT_NE(a.ComparableDigest(), b.ComparableDigest());
}

// --- Wait-queue readiness edges (docs/DESIGN.md §7) ---

class WaitQueueKernelTest : public ::testing::Test {
 protected:
  VirtualKernel kernel_{42};
  ProcessState process_{1000, 0x10000, 0x100000};

  std::pair<int32_t, int32_t> MakePipe() {
    SyscallRequest pipe;
    pipe.sysno = Sysno::kPipe;
    const int64_t packed = kernel_.Execute(process_, pipe).retval;
    EXPECT_GE(packed, 0);
    return {static_cast<int32_t>(packed & 0xffffffff), static_cast<int32_t>(packed >> 32)};
  }

  // One poll entry: (int32 fd, uint8 events), per the sys_poll payload ABI.
  SyscallResult Poll(int32_t fd, uint8_t events, int64_t timeout_ms,
                     std::vector<uint8_t>* payload, std::vector<uint8_t>* revents) {
    payload->resize(5);
    std::memcpy(payload->data(), &fd, sizeof(fd));
    (*payload)[4] = events;
    revents->assign(1, 0);
    SyscallRequest poll;
    poll.sysno = Sysno::kPoll;
    poll.arg0 = 1;
    poll.arg1 = timeout_ms;
    poll.in_data = *payload;
    poll.out_data = *revents;
    return kernel_.Execute(process_, poll);
  }
};

// A poll parked on an idle pipe must be woken by the write itself — no
// timeout, no sleep quantum — and the wakeup must show up in the stats.
TEST_F(WaitQueueKernelTest, PipeWriteWakesParkedPoll) {
  const auto [rfd, wfd] = MakePipe();
  const uint64_t wakeups_before = kernel_.stats().waitq_wakeups;
  const uint64_t waits_before = kernel_.stats().waitq_waits;

  std::atomic<int64_t> poll_result{-1};
  std::thread poller([&] {
    std::vector<uint8_t> payload, revents;
    const SyscallResult result =
        Poll(rfd, PollEvents::kIn, /*timeout_ms=*/-1, &payload, &revents);
    EXPECT_EQ(result.retval, 1);
    EXPECT_EQ(revents[0], PollEvents::kIn);
    poll_result.store(result.retval);
  });

  // Wait until the poller has scanned (not ready) and parked. A fixed sleep
  // raced the poller on a loaded host: the write then landed before the
  // park and the poll returned without a wakeup.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (kernel_.stats().waitq_waits == waits_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(poll_result.load(), -1);

  SyscallRequest write;
  write.sysno = Sysno::kWrite;
  write.arg0 = wfd;
  const std::string payload = "!";
  write.in_data = Bytes(payload);
  EXPECT_EQ(kernel_.Execute(process_, write).retval, 1);
  poller.join();
  EXPECT_EQ(poll_result.load(), 1);
  EXPECT_GT(kernel_.stats().waitq_wakeups, wakeups_before);
  EXPECT_GT(kernel_.stats().waitq_waits, 0u);
}

// fd reuse racing a poll: one thread polls the same descriptor number in a
// loop while another closes and reopens it. The generation-tagged leases
// must keep every scan memory-safe; verdicts may legitimately vary between
// "ready file" and "hangup" depending on what the number points at.
TEST_F(WaitQueueKernelTest, FdReuseAcrossCloseOpenRacingPoll) {
  kernel_.vfs().PutFile("racer", {1, 2, 3});
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> polls{0};

  std::thread poller([&] {
    std::vector<uint8_t> payload, revents;
    while (!stop.load(std::memory_order_relaxed)) {
      // fd 3: the number both the churner's open() and pipe read end land on.
      const SyscallResult result = Poll(3, PollEvents::kIn, /*timeout_ms=*/0,
                                        &payload, &revents);
      ASSERT_GE(result.retval, 0);
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Churn until the poller has interleaved with the close/open cycle a few
  // hundred times (bounded by a deadline so a starved scheduler cannot hang
  // the test). On a one-core host the pacing is what creates the race.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (polls.load(std::memory_order_relaxed) < 300 &&
         std::chrono::steady_clock::now() < deadline) {
    SyscallRequest open;
    open.sysno = Sysno::kOpen;
    open.path = "racer";
    open.arg0 = VOpenFlags::kRead;
    const int64_t fd = kernel_.Execute(process_, open).retval;
    ASSERT_EQ(fd, 3);
    SyscallRequest close;
    close.sysno = Sysno::kClose;
    close.arg0 = fd;
    ASSERT_EQ(kernel_.Execute(process_, close).retval, 0);
  }
  stop.store(true);
  poller.join();
  EXPECT_GT(polls.load(), 0u);
}

// AcceptBlocking with nothing pending must park on the listener's wait queue
// and be released by ShutdownBlockedCalls — the one-registry teardown drain.
TEST_F(WaitQueueKernelTest, ShutdownBlockedCallsWakesAccept) {
  const int32_t sfd = ListenOn(kernel_, process_, 7777);

  std::atomic<int64_t> accept_error{1};
  std::thread acceptor([&] {
    int64_t error = 0;
    auto conn = kernel_.AcceptBlocking(process_, sfd, &error);
    EXPECT_EQ(conn, nullptr);
    accept_error.store(error);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(accept_error.load(), 1);  // Still blocked.
  kernel_.ShutdownBlockedCalls();
  acceptor.join();
  EXPECT_EQ(accept_error.load(), -ECONNABORTED);
}

// The seed kept a grow-forever weak_ptr list of every pipe ever created; the
// wait registry free-lists its slots, so churn must not grow the table.
TEST_F(WaitQueueKernelTest, RegistrySlotsAreReusedUnderPipeChurn) {
  const size_t slots_before = kernel_.wait_registry().SlotCount();
  for (int i = 0; i < 1000; ++i) {
    const auto [rfd, wfd] = MakePipe();
    SyscallRequest close;
    close.sysno = Sysno::kClose;
    close.arg0 = rfd;
    ASSERT_EQ(kernel_.Execute(process_, close).retval, 0);
    close.arg0 = wfd;
    ASSERT_EQ(kernel_.Execute(process_, close).retval, 0);
  }
  // Both descriptors closed => the pipe is destroyed and its slot freed.
  EXPECT_LE(kernel_.wait_registry().SlotCount(), slots_before + 2);
  EXPECT_EQ(kernel_.wait_registry().LiveCount(),
            1u);  // The futex table's own registration.
}

// --- Full MVEE runs over the virtual kernel ---

// Drives files, pipes, poll, getrandom and the network through one 2-variant
// run and returns what the program wrote to sweep_out.
std::string KernelSweepResult() {
  MveeOptions options;
  options.num_variants = 2;
  Mvee mvee(options);
  mvee.kernel().vfs().PutFile("sweep_in", std::vector<uint8_t>(48, 0x5a));
  const Status status = mvee.Run([](VariantEnv& env) {
    std::string out;
    // Files: open/read/lseek/dup/stat/unlink.
    const int64_t fd = env.Open("sweep_in", VOpenFlags::kRead);
    std::vector<uint8_t> buffer(16);
    out += std::to_string(env.Read(fd, buffer)) + ",";
    out += std::to_string(env.Lseek(fd, 0, 0)) + ",";
    const int64_t dup = env.Dup(fd);
    out += std::to_string(dup) + ",";
    out += std::to_string(env.Stat("sweep_in")) + ",";
    env.Close(dup);
    env.Close(fd);
    // Pipes + poll readiness.
    auto [rfd, wfd] = env.Pipe();
    env.Write(wfd, "pipe!");
    VariantEnv::PollFd pfd;
    pfd.fd = static_cast<int32_t>(rfd);
    pfd.events = PollEvents::kIn;
    out += std::to_string(env.Poll({&pfd, 1}, -1)) + ",";
    out += std::to_string(static_cast<int>(pfd.revents)) + ",";
    out += std::to_string(env.Read(rfd, buffer)) + ",";
    env.Close(rfd);
    env.Close(wfd);
    // Randomness: record only the length; the bytes depend on the seed.
    out += std::to_string(env.Getrandom(buffer)) + ",";
    // Network echo through listener/connect/accept.
    const int64_t server = env.Socket();
    env.Bind(server, 9321);
    env.Listen(server, 4);
    const int64_t client = env.Socket();
    out += std::to_string(env.Connect(client, 9321)) + ",";
    const int64_t conn = env.Accept(server);
    env.Send(client, "hello");
    out += std::to_string(env.Recv(conn, buffer)) + ",";
    env.Shutdown(conn);
    env.Shutdown(client);
    env.Shutdown(server);
    const int64_t result = env.Open("sweep_out", VOpenFlags::kWrite | VOpenFlags::kCreate);
    env.Write(result, out);
    env.Close(result);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  auto file = mvee.kernel().vfs().Open("sweep_out", false);
  if (file == nullptr) {
    return "<missing>";
  }
  const auto contents = file->Contents();
  return std::string(contents.begin(), contents.end());
}

// Clean verdict, and the program-visible results match a fixed oracle: read
// 16 bytes, seek to 0, dup onto fd 4, stat 48 bytes, poll one fd ready with
// kIn, read the 5 piped bytes, draw 16 random bytes, connect, receive 5.
TEST(VkernelMveeRunTest, VerdictAndOutputMatchOracle) {
  EXPECT_EQ(KernelSweepResult(), "16,0,4,48,1,1,5,16,0,5,");
}

// Wait-queue wakeups must be visible in the run report when a poll blocks
// across a rendezvous (the "no more spin-polling" acceptance signal).
TEST(VkernelMveeRunTest, ReportExposesWaitQueueWakeups) {
  MveeOptions options;
  options.num_variants = 2;
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    auto [rfd, wfd] = env.Pipe();
    std::vector<ThreadHandle> handles;
    handles.push_back(env.Spawn([rfd = rfd](VariantEnv& wenv) {
      VariantEnv::PollFd pfd;
      pfd.fd = static_cast<int32_t>(rfd);
      pfd.events = PollEvents::kIn;
      wenv.Poll({&pfd, 1}, -1);  // Parks until the writer fires.
      std::vector<uint8_t> buffer(8);
      wenv.Read(rfd, buffer);
    }));
    env.NanosleepNanos(30'000'000);  // Let the poller park first.
    env.Write(wfd, "x");
    env.Join(handles[0]);
    env.Close(rfd);
    env.Close(wfd);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(mvee.report().vkernel_waitq_wakeups, 0u);
}

}  // namespace
}  // namespace mvee
