#include "mvee/sync/primitives.h"

#include <thread>

#include "mvee/util/spin.h"

namespace mvee {

namespace {

// Sleeps through the context's futex hook if present, else yields. `word`
// is the raw atomic behind an InstrumentedAtomic (the kernel recheck is not
// a variant sync op).
void FutexSleep(const std::atomic<int32_t>* word, int32_t expected) {
  SyncContext* ctx = SyncContext::Current();
  if (ctx->futex != nullptr) {
    ctx->futex->FutexWait(word, expected);
  } else {
    std::this_thread::yield();
  }
}

void FutexNotify(const std::atomic<int32_t>* word, int32_t count) {
  SyncContext* ctx = SyncContext::Current();
  if (ctx->futex != nullptr) {
    ctx->futex->FutexWake(word, count);
  }
}

// Mutex word: bit 0 is "locked", the bits above count registered sleepers
// (docs/DESIGN.md §13).
constexpr int32_t kMutexLocked = 1;
constexpr int32_t kMutexSleeper = 2;

// CondVar and Semaphore words: the low kWaiterBits count registered waiters;
// the bits above hold the condvar's sequence or the semaphore's permits.
constexpr int kWaiterBits = 12;
constexpr int32_t kWaiter = 1;
constexpr int32_t kWaiterMask = (1 << kWaiterBits) - 1;
constexpr int32_t kSequence = 1 << kWaiterBits;
constexpr int32_t kPermit = 1 << kWaiterBits;

// OnceFlag word: the low two bits are the state, the bits above count
// registered sleepers.
constexpr int32_t kOnceRunning = 1;
constexpr int32_t kOnceDone = 2;
constexpr int32_t kOnceStateMask = 3;
constexpr int32_t kOnceSleeper = 4;

// Takes an unlocked mutex whose word is `current` (updated on failure),
// leaving the sleeper count as it is.
bool AcquireUnlocked(InstrumentedAtomic<int32_t>& state, int32_t& current) {
  while ((current & kMutexLocked) == 0) {
    if (state.CompareExchange(current, current | kMutexLocked)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void SpinLock::Lock() {
  for (;;) {
    int32_t expected = 0;
    if (state_.CompareExchange(expected, 1)) {
      return;
    }
    std::this_thread::yield();  // Listing 1's sched_yield().
  }
}

bool SpinLock::TryLock() {
  int32_t expected = 0;
  return state_.CompareExchange(expected, 1);
}

void SpinLock::Unlock() {
  state_.Store(0);  // Listing 1's plain store — a type (iii) sync op.
}

void TicketLock::Lock() {
  const int32_t ticket = next_ticket_.FetchAdd(1);
  SpinWait waiter;
  while (now_serving_.Load() != ticket) {
    waiter.Pause();
  }
}

void TicketLock::Unlock() { now_serving_.FetchAdd(1); }

void Mutex::Lock() {
  int32_t current = 0;
  if (state_.CompareExchange(current, kMutexLocked)) {
    return;  // Uncontended fast path: no syscall, like glibc.
  }
  if (AcquireUnlocked(state_, current)) {
    return;  // Unlocked, but sleepers are registered.
  }
  // Contended: register once, then sleep on the word the registration left.
  current = state_.FetchAdd(kMutexSleeper) + kMutexSleeper;
  for (;;) {
    if ((current & kMutexLocked) == 0) {
      // Acquire and deregister in one CAS.
      if (state_.CompareExchange(current, (current - kMutexSleeper) | kMutexLocked)) {
        return;
      }
      continue;  // CompareExchange updated `current`.
    }
    FutexSleep(state_.raw(), current);
    current = state_.Load();
  }
}

bool Mutex::TryLock() {
  int32_t current = 0;
  return state_.CompareExchange(current, kMutexLocked) || AcquireUnlocked(state_, current);
}

void Mutex::Unlock() {
  if (state_.FetchSub(kMutexLocked) != kMutexLocked) {
    FutexNotify(state_.raw(), 1);  // A sleeper is registered.
  }
}

void CondVar::Wait(Mutex& mutex) {
  // Register before unlocking: a signaller that takes the mutex afterwards
  // is ordered after the registration on this word and sees the waiter.
  const int32_t registered = word_.FetchAdd(kWaiter) + kWaiter;
  mutex.Unlock();
  FutexSleep(word_.raw(), registered);
  word_.FetchSub(kWaiter);
  mutex.Lock();
}

void CondVar::Signal() {
  if ((word_.FetchAdd(kSequence) & kWaiterMask) != 0) {
    FutexNotify(word_.raw(), 1);
  }
}

void CondVar::Broadcast() {
  if ((word_.FetchAdd(kSequence) & kWaiterMask) != 0) {
    FutexNotify(word_.raw(), 1 << 30);
  }
}

bool Barrier::Arrive() {
  const int32_t my_phase = phase_.Load();
  const int32_t position = arrived_.FetchAdd(1);
  if (position + 1 == participants_) {
    // Last arriver: reset and release the phase.
    arrived_.Store(0);
    phase_.FetchAdd(1);
    FutexNotify(phase_.raw(), 1 << 30);
    return true;
  }
  SpinWait waiter;
  while (phase_.Load() == my_phase) {
    FutexSleep(phase_.raw(), my_phase);
    waiter.Pause();
  }
  return false;
}

Semaphore::Semaphore(int32_t initial) : word_(initial * kPermit) {}

void Semaphore::Acquire() {
  if (TryAcquire()) {
    return;
  }
  // No permit: register once, then sleep on the word the registration left.
  int32_t current = word_.FetchAdd(kWaiter) + kWaiter;
  for (;;) {
    if (current >= kPermit) {
      // Take a permit and deregister in one CAS.
      if (word_.CompareExchange(current, current - kPermit - kWaiter)) {
        return;
      }
      continue;  // CompareExchange updated `current`.
    }
    FutexSleep(word_.raw(), current);
    current = word_.Load();
  }
}

bool Semaphore::TryAcquire() {
  int32_t current = word_.Load();
  while (current >= kPermit) {
    if (word_.CompareExchange(current, current - kPermit)) {
      return true;
    }
  }
  return false;
}

void Semaphore::Release() {
  if ((word_.FetchAdd(kPermit) & kWaiterMask) != 0) {
    FutexNotify(word_.raw(), 1);
  }
}

void RwLock::ReadLock() {
  SpinWait waiter;
  for (;;) {
    if (writers_waiting_.Load() == 0) {
      // Admit only from a non-negative count. A blind FetchAdd/FetchSub
      // back-off would briefly move a writer's -1 to 0: a second writer
      // could then enter, and a WriteUnlock landing in that window would
      // leave -1 behind with no holder.
      int32_t current = state_.Load();
      if (current >= 0 && state_.CompareExchange(current, current + 1)) {
        return;
      }
    }
    waiter.Pause();
  }
}

void RwLock::ReadUnlock() { state_.FetchSub(1); }

void RwLock::WriteLock() {
  writers_waiting_.FetchAdd(1);
  SpinWait waiter;
  for (;;) {
    int32_t expected = 0;
    if (state_.CompareExchange(expected, -1)) {
      writers_waiting_.FetchSub(1);
      return;
    }
    waiter.Pause();
  }
}

void RwLock::WriteUnlock() { state_.Store(0); }

bool OnceFlag::Begin() {
  int32_t current = 0;
  if (state_.CompareExchange(current, kOnceRunning)) {
    return true;
  }
  // Spin through a short initializer, then register and sleep until Done().
  SpinWait waiter;
  while ((current & kOnceStateMask) != kOnceDone && waiter.Spinning()) {
    waiter.Pause();
    current = state_.Load();
  }
  if ((current & kOnceStateMask) == kOnceDone) {
    return false;
  }
  current = state_.FetchAdd(kOnceSleeper) + kOnceSleeper;
  while ((current & kOnceStateMask) != kOnceDone) {
    FutexSleep(state_.raw(), current);
    current = state_.Load();
  }
  return false;
}

void OnceFlag::Done() {
  // Sleepers never deregister: Done runs once, and after it only the state
  // bits are read.
  if ((state_.FetchAdd(kOnceDone - kOnceRunning) & ~kOnceStateMask) != 0) {
    FutexNotify(state_.raw(), 1 << 30);
  }
}

void WaitGroup::Done() {
  if (outstanding_.FetchSub(1) == 1) {
    FutexNotify(outstanding_.raw(), 1 << 30);
  }
}

void WaitGroup::Wait() {
  SpinWait waiter;
  for (;;) {
    const int32_t current = outstanding_.Load();
    if (current == 0) {
      return;
    }
    FutexSleep(outstanding_.raw(), current);
    waiter.Pause();
  }
}

}  // namespace mvee
