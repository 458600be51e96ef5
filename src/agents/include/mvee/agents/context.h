// Thread-local sync context.
//
// The instrumented synchronization primitives (src/sync) call the agent
// before and after every atomic access, and sleep through sys_futex when a
// lock is contended. Which agent, which logical thread id, and which futex
// implementation apply depends on the executing variant thread — the variant
// runtime installs a SyncContext in TLS when it starts a thread, exactly the
// role LD_PRELOAD + the self-awareness syscall play in the paper (§4.5).
//
// Outside an MVEE (native runs), no context is installed; primitives fall
// back to the NullAgent and to spinning instead of futex sleeps.

#ifndef MVEE_AGENTS_CONTEXT_H_
#define MVEE_AGENTS_CONTEXT_H_

#include <atomic>
#include <cstdint>

#include "mvee/agents/sync_agent.h"

namespace mvee {

// Futex backend the primitives use to sleep/wake. Implemented by the variant
// runtime (routing through the monitor as sys_futex) and by a process-local
// fallback for native runs.
class FutexHook {
 public:
  virtual ~FutexHook() = default;
  // Sleeps while *word == expected (futex semantics). Returns 0 or -EAGAIN.
  virtual int64_t FutexWait(const std::atomic<int32_t>* word, int32_t expected) = 0;
  // Wakes up to `count` waiters; returns the number woken.
  virtual int64_t FutexWake(const std::atomic<int32_t>* word, int32_t count) = 0;
};

struct SyncContext {
  SyncAgent* agent = nullptr;
  FutexHook* futex = nullptr;
  uint32_t tid = 0;

  // Current thread's context; never nullptr (a static null context with the
  // NullAgent backs threads that are not variant threads).
  static SyncContext* Current();
  // Installs `context` for the current thread; returns the previous one so
  // callers can restore it (RAII wrapper below).
  static SyncContext* Install(SyncContext* context);
};

// Registers `addr` as the sync variable `name` with the current thread's
// agent (adaptive routing, docs/DESIGN.md §11). Call once per variant —
// i.e., from code every variant executes, before the variable's first sync
// op, the paper's registration-at-allocation idiom. A no-op under the kNull
// agent and in native runs.
inline void BindSyncVariable(const char* name, const void* addr) {
  SyncContext::Current()->agent->BindVariable(name, addr);
}

// RAII: installs a context for the current scope.
class ScopedSyncContext {
 public:
  explicit ScopedSyncContext(SyncContext* context) : previous_(SyncContext::Install(context)) {}
  ~ScopedSyncContext() { SyncContext::Install(previous_); }
  ScopedSyncContext(const ScopedSyncContext&) = delete;
  ScopedSyncContext& operator=(const ScopedSyncContext&) = delete;

 private:
  SyncContext* previous_;
};

}  // namespace mvee

#endif  // MVEE_AGENTS_CONTEXT_H_
