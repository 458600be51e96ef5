// The slave-side replay wait every agent runtime shares (docs/DESIGN.md §8).
//
// A replaying slave thread waits in up to two phases per sync op: for its
// own ring's front entry, then for that entry's turn (a WoC/PVO local clock,
// the TO sequence ratchet, a PO predecessor's consumed-watermark). Every
// phase of one op runs through one ReplayWait, so the op's stall is counted
// once however many phases wait, one deadline covers the whole op, and an
// aborted run or an excised variant unwinds the waiter before the deadline
// is even consulted.

#ifndef MVEE_AGENTS_REPLAY_WAIT_H_
#define MVEE_AGENTS_REPLAY_WAIT_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "mvee/agents/sync_agent.h"
#include "mvee/util/spin.h"
#include "mvee/util/variant_killed.h"

namespace mvee {

class ReplayWait {
 public:
  // `stats` (nullable) gets the op's stall in `variant`'s shard for `tid`;
  // `kind` and `tid` prefix the on_stall report.
  ReplayWait(const AgentControl& control, uint32_t variant, std::chrono::milliseconds deadline,
             AgentStats* stats, const char* kind, uint32_t tid)
      : control_(control),
        variant_(variant),
        stats_(stats),
        kind_(kind),
        tid_(tid),
        deadline_(deadline) {}

  // Returns once ready() holds. Throws VariantKilled when the run aborts or
  // the variant is excised, or — after calling on_stall with
  // describe()'s account of the awaited value — when the op's deadline
  // expires. describe() runs only on expiry. Inline throughout, so an op
  // whose turn has come pays one check and keeps its state in registers.
  template <typename Ready, typename Describe>
  void Until(Ready&& ready, Describe&& describe) {
    if (ready()) [[likely]] {
      return;
    }
    waiter_.Reset();
    do {
      if (control_.should_unwind(variant_)) {
        throw VariantKilled{};
      }
      if (!stalled_) {
        stalled_ = true;
        if (stats_ != nullptr) {
          stats_->shard(variant_, tid_).replay_stalls.Add();
        }
      }
      if (deadline_.Expired(waiter_)) {
        Expire(control_, kind_, tid_, describe());
      }
      waiter_.Pause();
    } while (!ready());
  }

 private:
  [[noreturn, gnu::cold, gnu::noinline]] static void Expire(const AgentControl& control,
                                                             const char* kind, uint32_t tid,
                                                             const std::string& awaited) {
    if (control.on_stall) {
      control.on_stall(std::string(kind) + " replay deadline (" + awaited + ", tid " +
                       std::to_string(tid) + ")");
    }
    throw VariantKilled{};
  }

  const AgentControl& control_;
  const uint32_t variant_;
  AgentStats* const stats_;
  const char* const kind_;
  const uint32_t tid_;
  DeadlineGate deadline_;
  SpinWait waiter_;
  bool stalled_ = false;
};

}  // namespace mvee

#endif  // MVEE_AGENTS_REPLAY_WAIT_H_
