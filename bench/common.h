// Shared helpers for the benchmark harnesses (one binary per paper table /
// figure — see docs/DESIGN.md §4).

#ifndef MVEE_BENCH_COMMON_H_
#define MVEE_BENCH_COMMON_H_

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mvee/agents/sync_agent.h"
#include "mvee/monitor/mvee.h"
#include "mvee/monitor/native.h"
#include "mvee/util/log.h"
#include "mvee/workloads/workload.h"

namespace mvee {
namespace bench {

// Scale factor for the workload volumes. The paper machine runs the full
// PARSEC/SPLASH inputs for minutes each; the harness defaults to a scale
// that finishes the full sweep in a few minutes on one core. Override with
// MVEE_BENCH_SCALE=0.05 etc.
inline double BenchScale(double fallback = 0.02) {
  if (const char* env = std::getenv("MVEE_BENCH_SCALE")) {
    const double value = std::atof(env);
    if (value > 0) {
      return value;
    }
  }
  return fallback;
}

// Positive-integer knob from the environment (thread counts, iteration
// budgets); unset/zero/garbage falls back.
inline int64_t EnvInt(const char* name, int64_t fallback) {
  if (const char* env = std::getenv(name)) {
    const int64_t value = std::atoll(env);
    if (value > 0) {
      return value;
    }
  }
  return fallback;
}

// Thread-safe sync-op counting agent for native rate measurements (Table 2).
class RateCountingAgent final : public SyncAgent {
 public:
  void BeforeSyncOp(uint32_t, const void*) override {}
  void AfterSyncOp(uint32_t, const void*) override {
    ops_.fetch_add(1, std::memory_order_relaxed);
  }
  AgentRole role() const override { return AgentRole::kMaster; }
  const char* name() const override { return "rate-counting"; }
  uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> ops_{0};
};

struct NativeRun {
  double seconds = 0.0;
  uint64_t syscalls = 0;
  uint64_t sync_ops = 0;
};

// Runs a workload natively (no MVEE) and reports wall time + rates.
inline NativeRun RunNative(const WorkloadConfig& config, double scale) {
  NativeRunner runner;
  RateCountingAgent agent;
  runner.set_agent(&agent);
  const auto start = std::chrono::steady_clock::now();
  runner.Run(MakeWorkloadProgram(config, scale));
  const auto end = std::chrono::steady_clock::now();
  NativeRun result;
  result.seconds = std::chrono::duration_cast<std::chrono::duration<double>>(end - start).count();
  result.syscalls = runner.counters().total;
  result.sync_ops = agent.ops();
  return result;
}

struct MveeRun {
  double seconds = 0.0;
  bool ok = false;
  MveeReport report;
};

// Runs a workload under the MVEE with `variants` variants and `agent`.
inline MveeRun RunUnderMvee(const WorkloadConfig& config, double scale, uint32_t variants,
                            AgentKind agent) {
  MveeOptions options;
  options.num_variants = variants;
  options.agent = agent;
  options.enable_aslr = false;  // Matches the paper's performance runs (§5.1).
  // Generous for legitimate replay lag at bench scale, short enough that a
  // pathological agent stall (PO on the atomic-heavy stand-ins) does not
  // dominate the sweep's wall time.
  options.rendezvous_timeout = std::chrono::milliseconds(30000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(30000);
  options.agent_config.buffer_capacity = 1 << 16;
  Mvee mvee(options);
  MveeRun result;
  result.ok = mvee.Run(MakeWorkloadProgram(config, scale)).ok();
  result.report = mvee.report();
  result.seconds = result.report.wall_seconds;
  return result;
}

// --- Machine-readable output -----------------------------------------------
//
// Benches that measure per-agent throughput append AgentBenchResult records
// and flush them to BENCH_agents.json so the perf trajectory is diffable
// across commits (CI archives the file; regressions show up as rate drops).

struct AgentBenchResult {
  std::string kind;            // AgentKindName(...)
  std::string mode;            // e.g. "cached" / "record-sharded-8t"
  double ops_per_sec = 0.0;    // master record-path sync ops per second
  uint64_t record_stalls = 0;
  uint64_t replay_stalls = 0;
};

// Where a machine-readable bench result file lands: the working directory by
// default, or MVEE_BENCH_JSON_DIR if set.
inline std::string ResolveBenchJsonPath(const std::string& filename) {
  if (const char* dir = std::getenv("MVEE_BENCH_JSON_DIR")) {
    return std::string(dir) + "/" + filename;
  }
  return filename;
}

// Writes `entries` as a JSON array to `path` (default: BENCH_agents.json in
// the working directory; override the directory with MVEE_BENCH_JSON_DIR).
inline void WriteAgentsJson(const std::vector<AgentBenchResult>& entries,
                            const std::string& filename = "BENCH_agents.json") {
  const std::string path = ResolveBenchJsonPath(filename);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "WriteAgentsJson: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(file, "{\n  \"agents\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const AgentBenchResult& entry = entries[i];
    std::fprintf(file,
                 "    {\"kind\": \"%s\", \"mode\": \"%s\", \"ops_per_sec\": %.1f, "
                 "\"record_stalls\": %llu, \"replay_stalls\": %llu}%s\n",
                 entry.kind.c_str(), entry.mode.c_str(), entry.ops_per_sec,
                 static_cast<unsigned long long>(entry.record_stalls),
                 static_cast<unsigned long long>(entry.replay_stalls),
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("wrote %s (%zu entries)\n", path.c_str(), entries.size());
}

// Appends `entries` to an existing BENCH_agents.json (splicing them into the
// "agents" array), so several bench binaries can contribute to one archived
// file. Falls back to WriteAgentsJson when the file is missing or does not
// end with the writer's "  ]\n}" footer.
inline void AppendAgentsJson(const std::vector<AgentBenchResult>& entries,
                             const std::string& filename = "BENCH_agents.json") {
  const std::string path = ResolveBenchJsonPath(filename);
  std::string existing;
  if (std::FILE* file = std::fopen(path.c_str(), "r")) {
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      existing.append(buffer, n);
    }
    std::fclose(file);
  }
  const size_t close = existing.rfind("\n  ]");
  if (close == std::string::npos) {
    WriteAgentsJson(entries, filename);
    return;
  }
  // Comma-separate from the previous entry unless the array is still empty
  // (the last non-whitespace character before the splice point is '[').
  size_t last = close;
  while (last > 0 && std::isspace(static_cast<unsigned char>(existing[last - 1]))) {
    --last;
  }
  const bool array_empty = last > 0 && existing[last - 1] == '[';
  std::string spliced;
  for (size_t i = 0; i < entries.size(); ++i) {
    const AgentBenchResult& entry = entries[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n    {\"kind\": \"%s\", \"mode\": \"%s\", \"ops_per_sec\": %.1f, "
                  "\"record_stalls\": %llu, \"replay_stalls\": %llu}",
                  (i == 0 && array_empty) ? "" : ",", entry.kind.c_str(), entry.mode.c_str(),
                  entry.ops_per_sec, static_cast<unsigned long long>(entry.record_stalls),
                  static_cast<unsigned long long>(entry.replay_stalls));
    spliced += line;
  }
  existing.insert(close, spliced);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "AppendAgentsJson: cannot open %s\n", path.c_str());
    return;
  }
  std::fwrite(existing.data(), 1, existing.size(), file);
  std::fclose(file);
  std::printf("appended %zu entries to %s\n", entries.size(), path.c_str());
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace mvee

#endif  // MVEE_BENCH_COMMON_H_
