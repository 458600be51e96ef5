// Spin-wait helper with progressive backoff.
//
// Replay agents and the monitor's syscall-ordering clock wait "in a tight
// loop" (paper §4.1). On the test machines used here (few cores) a pure
// PAUSE loop would livelock threads that hold the resource being waited for,
// so SpinWait escalates: PAUSE -> yield -> short sleep.

#ifndef MVEE_UTIL_SPIN_H_
#define MVEE_UTIL_SPIN_H_

#include <chrono>
#include <cstdint>
#include <thread>

namespace mvee {

class SpinWait {
 public:
  // Issues one wait step and escalates the backoff level.
  void Pause() {
    ++spins_;
    if (spins_ < kSpinLimit) {
      CpuRelax();
    } else if (spins_ < kYieldLimit) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  void Reset() { spins_ = 0; }

  // True until Pause() leaves its busy-spin phase. A caller with a futex
  // word to sleep on sleeps from then on instead of yielding.
  bool Spinning() const { return spins_ < kSpinLimit; }

  uint64_t spins() const { return spins_; }

 private:
  static constexpr uint64_t kSpinLimit = 64;
  static constexpr uint64_t kYieldLimit = 4096;

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

  uint64_t spins_ = 0;
};

// Amortized replay-deadline tracking for spin loops.
//
// Calling steady_clock::now() on every spin iteration puts a vDSO call (and
// on some kernels a real syscall) in the replay hot path; the deadline only
// exists to catch multi-second stalls from uninstrumented sync ops (§5.5), so
// millisecond precision is wasted there. Expired() consults the clock only
// every kCheckInterval pause steps of the accompanying SpinWait — the common
// wait that ends within the first interval never reads the clock at all —
// and arms the deadline lazily on the first check.
class DeadlineGate {
 public:
  static constexpr uint64_t kCheckInterval = 1024;  // power of two

  explicit DeadlineGate(std::chrono::milliseconds budget) : budget_(budget) {}

  // True once the budget has elapsed. Call with the SpinWait driving the
  // loop; a Reset() of that waiter re-syncs the check phase but keeps the
  // armed deadline.
  bool Expired(const SpinWait& waiter) {
    if ((waiter.spins() & (kCheckInterval - 1)) != 0) {
      return false;
    }
    return ExpiredNow();
  }

  // Unconditional check for callers that left the spin loop (e.g. parked
  // waiters, whose SpinWait no longer advances); arms lazily like Expired.
  bool ExpiredNow() {
    const auto now = std::chrono::steady_clock::now();
    if (!armed_) {
      armed_ = true;
      deadline_ = now + budget_;
      return false;
    }
    return now > deadline_;
  }

 private:
  const std::chrono::milliseconds budget_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point deadline_;
};

}  // namespace mvee

#endif  // MVEE_UTIL_SPIN_H_
