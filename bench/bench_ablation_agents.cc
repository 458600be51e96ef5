// Ablations over the design choices docs/DESIGN.md §5 calls out:
//   1. wall-of-clocks wall size: clock_count 1 -> TO-like full serialization,
//      large walls -> fewer hash collisions, less spurious serialization
//      (§4.5's m-to-1 collision discussion);
//   2. sync-buffer capacity: producer backpressure when the master runs far
//      ahead of the slaves;
//   3. partial-order lookahead window: scan cost vs stall avoidance.

#include <cstdio>

#include "bench/common.h"

namespace {

using namespace mvee;
using namespace mvee::bench;

double RunWithConfig(const WorkloadConfig& config, double scale, AgentKind agent,
                     size_t clock_count, size_t buffer_capacity,
                     size_t po_window = 1 << 12, uint64_t* replay_stalls = nullptr) {
  MveeOptions options;
  options.num_variants = 2;
  options.agent = agent;
  options.enable_aslr = false;
  options.rendezvous_timeout = std::chrono::milliseconds(120000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(120000);
  options.agent_config.clock_count = clock_count;
  options.agent_config.buffer_capacity = buffer_capacity;
  options.agent_config.po_window = po_window;
  Mvee mvee(options);
  const bool ok = mvee.Run(MakeWorkloadProgram(config, scale)).ok();
  if (replay_stalls != nullptr) {
    *replay_stalls = mvee.report().replay_stalls;
  }
  return ok ? mvee.report().wall_seconds : -1.0;
}

}  // namespace

int main() {
  using namespace mvee;
  using namespace mvee::bench;
  SetLogLevel(LogLevel::kError);

  const double scale = BenchScale(2.0);
  const WorkloadConfig* contended = FindWorkload("fluidanimate");
  const WorkloadConfig* queued = FindWorkload("radiosity");

  PrintHeader("Ablation 1: wall-of-clocks wall size (fluidanimate stand-in)");
  const NativeRun native = RunNative(*contended, scale);
  std::printf("native: %.3fs\n", native.seconds);
  for (size_t clocks : {1UL, 16UL, 256UL, 4096UL, 65536UL}) {
    const double seconds =
        RunWithConfig(*contended, scale, AgentKind::kWallOfClocks, clocks, 1 << 16);
    std::printf("clock_count=%-6zu  %.3fs  (%.2fx native)%s\n", clocks, seconds,
                native.seconds > 0 ? seconds / native.seconds : 0,
                clocks == 1 ? "   <- degenerates toward total-order" : "");
    std::fflush(stdout);
  }

  PrintHeader("Ablation 2: sync buffer capacity (radiosity stand-in, WoC)");
  const NativeRun native_q = RunNative(*queued, scale);
  std::printf("native: %.3fs\n", native_q.seconds);
  for (size_t capacity : {1UL << 6, 1UL << 10, 1UL << 14, 1UL << 16}) {
    const double seconds =
        RunWithConfig(*queued, scale, AgentKind::kWallOfClocks, 4096, capacity);
    std::printf("buffer_capacity=%-6zu  %.3fs  (%.2fx native)\n", capacity, seconds,
                native_q.seconds > 0 ? seconds / native_q.seconds : 0);
    std::fflush(stdout);
  }

  PrintHeader("Ablation 3: agent comparison on the same kernels");
  for (const auto* config : {contended, queued}) {
    const NativeRun base = RunNative(*config, scale);
    std::printf("%-14s native=%.3fs", config->name, base.seconds);
    for (AgentKind agent : {AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                            AgentKind::kWallOfClocks, AgentKind::kPerVariableOrder}) {
      const double seconds = RunWithConfig(*config, scale, agent, 4096, 1 << 16);
      std::printf("  %s=%.2fx", AgentKindName(agent),
                  base.seconds > 0 ? seconds / base.seconds : 0);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  PrintHeader("Ablation 4: WoC hash collisions vs per-variable private clocks");
  // Per-variable-order is WoC's collision-free limit (one preallocated clock
  // per sync variable). The gap between the two at a given wall size is the
  // cost of the paper's m-to-1 hash collisions (§4.5, last paragraph).
  for (const auto* config : {contended, queued}) {
    const NativeRun base = RunNative(*config, scale);
    std::printf("%-14s native=%.3fs\n", config->name, base.seconds);
    for (size_t clocks : {16UL, 256UL, 4096UL}) {
      const double woc = RunWithConfig(*config, scale, AgentKind::kWallOfClocks, clocks, 1 << 16);
      const double pvo =
          RunWithConfig(*config, scale, AgentKind::kPerVariableOrder, clocks, 1 << 16);
      std::printf("  clock_count=%-6zu  woc=%.2fx  per-variable=%.2fx  collision-cost=%+.1f%%\n",
                  clocks, base.seconds > 0 ? woc / base.seconds : 0,
                  base.seconds > 0 ? pvo / base.seconds : 0,
                  pvo > 0 ? (woc / pvo - 1.0) * 100.0 : 0.0);
      std::fflush(stdout);
    }
  }

  PrintHeader("Ablation 5: partial-order lookahead window (streamcluster stand-in)");
  // The paper: "the agents in the slave threads have to scan a window ... in
  // the buffer to look ahead" (§4.5). Window 1 degenerates to total-order
  // replay; large windows buy stall-freedom with scan cost and staleness.
  // (A moderate-sync-rate kernel: on the heaviest stand-ins, window <= 4
  // serializes ~1M ops through spin handoffs and trips the replay deadline
  // on this host — the PO scalability pathology in its purest form.)
  // The master-side window gate (GateOnReplayWindow, docs/DESIGN.md §8)
  // bounds record run-ahead against the slaves' min replayed prefix, which
  // is how po_window is enforced on the ticketed recording path.
  {
    const WorkloadConfig* moderate = FindWorkload("streamcluster");
    const NativeRun base = RunNative(*moderate, scale);
    std::printf("native: %.3fs\n", base.seconds);
    for (size_t window : {1UL, 4UL, 64UL, 1024UL, 4096UL}) {
      uint64_t stalls = 0;
      const double seconds = RunWithConfig(*moderate, scale, AgentKind::kPartialOrder,
                                           4096, 1 << 16, window, &stalls);
      if (seconds < 0) {
        std::printf("po_window=%-6zu  TIMEOUT (replay deadline; TO-like serialization "
                    "too slow at this op rate)\n", window);
      } else {
        std::printf("po_window=%-6zu  %.3fs  (%.2fx native)  replay_stalls=%llu%s\n", window,
                    seconds, base.seconds > 0 ? seconds / base.seconds : 0,
                    static_cast<unsigned long long>(stalls),
                    window == 1 ? "   <- degenerates toward total-order" : "");
      }
      std::fflush(stdout);
    }
  }

  PrintHeader("Ablation 6: synchronization model — lockstep vs loose (VARAN-style, §2)");
  for (const char* name : {"ferret", "streamcluster"}) {
    const WorkloadConfig* config = FindWorkload(name);
    const NativeRun base = RunNative(*config, scale);
    std::printf("%-14s native=%.3fs", config->name, base.seconds);
    for (SyncModel model : {SyncModel::kLockstep, SyncModel::kLoose}) {
      MveeOptions options;
      options.num_variants = 2;
      options.agent = AgentKind::kWallOfClocks;
      options.sync_model = model;
      options.enable_aslr = false;
      options.rendezvous_timeout = std::chrono::milliseconds(120000);
      options.agent_config.replay_deadline = std::chrono::milliseconds(120000);
      Mvee mvee(options);
      const bool ok = mvee.Run(MakeWorkloadProgram(*config, scale)).ok();
      std::printf("  %s=%.2fx%s", model == SyncModel::kLockstep ? "lockstep" : "loose",
                  ok && base.seconds > 0 ? mvee.report().wall_seconds / base.seconds : 0.0,
                  ok ? "" : "(FAIL)");
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  return 0;
}
