// Instrumented synchronization primitives.
//
// These are the primitives that variant programs (the synthetic PARSEC /
// SPLASH workloads, the mini web server, and user code) build on. Every
// internal atomic access is an instrumented sync op, so any agent can record
// and replay the full synchronization behaviour. Blocking primitives sleep
// through the SyncContext's futex hook (routed through the monitor as
// sys_futex in MVEE runs) and degrade to spin/yield when no hook is
// installed (native runs). Mutex, CondVar, Semaphore and OnceFlag count
// their registered sleepers in the futex word itself and wake only when
// that count is nonzero, so an uncontended program makes no futex call
// (docs/DESIGN.md §13).

#ifndef MVEE_SYNC_PRIMITIVES_H_
#define MVEE_SYNC_PRIMITIVES_H_

#include <cstdint>

#include "mvee/sync/instrumented.h"

namespace mvee {

// Test-and-set spinlock with sched_yield backoff — the paper's Listing 1
// example of an ad-hoc primitive built from a LOCK CMPXCHG (type i) and a
// plain aligned store (type iii).
class SpinLock {
 public:
  void Lock();
  bool TryLock();
  void Unlock();

  // Registers the lock word for per-variable agent routing under `name`
  // (docs/DESIGN.md §11); no-op under non-adaptive agents.
  void Bind(const char* name) const { state_.Bind(name); }

 private:
  InstrumentedAtomic<int32_t> state_{0};
};

// FIFO ticket lock: two LOCK XADD / aligned-load sync variables.
class TicketLock {
 public:
  void Lock();
  void Unlock();

 private:
  InstrumentedAtomic<int32_t> next_ticket_{0};
  InstrumentedAtomic<int32_t> now_serving_{0};
};

// Futex-based mutex, the pthread_mutex equivalent. Word: bit 0 is "locked",
// the bits above count registered sleepers. Lock's fast path is one CAS
// 0 -> 1; Unlock is one FetchSub and wakes only if a sleeper is registered.
class Mutex {
 public:
  void Lock();
  bool TryLock();
  void Unlock();

  // Registers the mutex word for per-variable agent routing under `name`
  // (docs/DESIGN.md §11); no-op under non-adaptive agents.
  void Bind(const char* name) const { state_.Bind(name); }

  const InstrumentedAtomic<int32_t>& state() const { return state_; }

 private:
  InstrumentedAtomic<int32_t> state_{0};
};

// RAII guard for any lockable. The destructor swallows VariantKilled: when
// the MVEE tears the variants down, an instrumented unlock on the unwind
// path may itself be aborted, and throwing out of a destructor during
// unwinding would terminate the process.
template <typename LockType>
class LockGuard {
 public:
  explicit LockGuard(LockType& lock) : lock_(lock) { lock_.Lock(); }
  ~LockGuard() {
    try {
      lock_.Unlock();
    } catch (...) {
      // MVEE shutdown in progress; the thread unwinds via VariantKilled.
    }
  }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  LockType& lock_;
};

// Condition variable over Mutex. Word: the low 12 bits count registered
// waiters, the bits above are a signal sequence. A waiter registers before
// unlocking and sleeps on the word it registered, so a signal after the
// registration either changes that word or wakes it. Wait may return
// spuriously; callers re-check their predicate.
class CondVar {
 public:
  // Atomically unlocks `mutex`, waits for a signal, relocks.
  void Wait(Mutex& mutex);
  // Both wake only if a waiter is registered.
  void Signal();
  void Broadcast();

 private:
  InstrumentedAtomic<int32_t> word_{0};
};

// Sense-reversing barrier for `participants` threads.
class Barrier {
 public:
  explicit Barrier(int32_t participants) : participants_(participants) {}

  // Returns true for exactly one thread per phase (the "serial" thread).
  bool Arrive();

 private:
  const int32_t participants_;
  InstrumentedAtomic<int32_t> arrived_{0};
  InstrumentedAtomic<int32_t> phase_{0};
};

// Counting semaphore. Word: the low 12 bits count registered waiters, the
// bits above are the permits (at most 2^19 - 1). Release wakes only if a
// waiter is registered.
class Semaphore {
 public:
  explicit Semaphore(int32_t initial);

  void Acquire();
  bool TryAcquire();
  void Release();

 private:
  InstrumentedAtomic<int32_t> word_;
};

// Writer-preference readers/writer lock.
class RwLock {
 public:
  void ReadLock();
  void ReadUnlock();
  void WriteLock();
  void WriteUnlock();

  const InstrumentedAtomic<int32_t>& state() const { return state_; }

 private:
  // >=0: reader count; -1: writer holds it.
  InstrumentedAtomic<int32_t> state_{0};
  InstrumentedAtomic<int32_t> writers_waiting_{0};
};

// One-shot initialization flag. Word: the low two bits are the state, the
// bits above count the callers that slept waiting for Done().
class OnceFlag {
 public:
  // Returns true for the single thread that should run the initializer;
  // other callers spin briefly, then sleep until Done() is called.
  bool Begin();
  void Done();
  // Convenience: runs `fn` exactly once across all callers.
  template <typename Fn>
  void CallOnce(Fn&& fn) {
    if (Begin()) {
      fn();
      Done();
    }
  }

 private:
  InstrumentedAtomic<int32_t> state_{0};  // state: 0 new, 1 running, 2 done
};

// Completion counter: Add(n) before spawning, Done() in each worker,
// Wait() in the coordinator.
class WaitGroup {
 public:
  void Add(int32_t n) { outstanding_.FetchAdd(n); }
  void Done();
  void Wait();

 private:
  InstrumentedAtomic<int32_t> outstanding_{0};
};

}  // namespace mvee

#endif  // MVEE_SYNC_PRIMITIVES_H_
