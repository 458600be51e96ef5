// Protected-server throughput + latency percentiles for the readiness-driven
// event loop (docs/DESIGN.md §10), measured open-loop so the percentiles are
// free of coordinated omission.
//
// Cells (each one full server run + open-loop load):
//   - native event-loop            (no MVEE: the bare-metal context)
//   - MVEE event-loop, 2 variants
//   - MVEE event-loop, 3 variants  (breadth: scaling one variant up)
//
// Load is `conns` keep-alive connections carrying RPC requests each. Latency
// is measured from each request's intended send time, so accept-backlog
// queueing counts against the server. Results go to BENCH_server.json. The
// bench exits nonzero when a cell does not serve its full load.
//
// Knobs:
//   MVEE_BENCH_SERVER_CONNS        connections                   (default 1000)
//   MVEE_BENCH_SERVER_RPC          requests per connection       (default 2)
//   MVEE_BENCH_SERVER_RATE         connection arrivals/s         (default 20000)
//   MVEE_BENCH_SERVER_THREADS      server pool threads           (default 8)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "mvee/server/http_server.h"
#include "mvee/server/wrk.h"

namespace {

using namespace mvee;
using mvee::bench::EnvInt;

struct CellResult {
  std::string mode;
  uint32_t variants = 0;  // 0 = native.
  uint32_t connections = 0;
  uint32_t requests_per_conn = 0;
  bool ok = false;
  uint64_t responses_ok = 0;
  uint64_t responses_non2xx = 0;
  uint64_t responses_truncated = 0;
  uint64_t connect_retries = 0;
  double seconds = 0.0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

ServerConfig CellServerConfig(uint16_t port, uint32_t pool_threads, uint32_t budget) {
  ServerConfig config;
  config.port = port;
  config.pool_threads = pool_threads;
  config.page_bytes = 4096;  // §5.5 serves a 4 KiB static page.
  config.connection_budget = budget;
  return config;
}

// Runs `serve` (a blocking server run) while the open-loop client drives it;
// the readiness probe consumes the extra accept slot in the budget.
template <typename ServeFn>
OpenLoopResult DriveOpenLoop(VirtualKernel& kernel, const OpenLoopOptions& load,
                             ServeFn serve) {
  OpenLoopResult result;
  std::thread client([&] {
    VRef<VConnection> probe;
    while ((probe = kernel.network().Connect(load.port)) == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    probe->CloseClientSide();
    result = RunWrkOpenLoop(kernel, load);
  });
  serve();
  client.join();
  return result;
}

CellResult Summarize(const std::string& mode, uint32_t variants,
                     const OpenLoopOptions& load, const OpenLoopResult& run, bool ok) {
  CellResult cell;
  cell.mode = mode;
  cell.variants = variants;
  cell.connections = load.connections;
  cell.requests_per_conn = load.requests_per_conn;
  cell.ok = ok;
  cell.responses_ok = run.responses_ok;
  cell.responses_non2xx = run.responses_non2xx;
  cell.responses_truncated = run.responses_truncated;
  cell.connect_retries = run.connect_retries;
  cell.seconds = run.seconds;
  cell.rps = run.RequestsPerSecond();
  cell.p50_us = static_cast<double>(run.PercentileNanos(0.50)) / 1000.0;
  cell.p99_us = static_cast<double>(run.PercentileNanos(0.99)) / 1000.0;
  cell.p999_us = static_cast<double>(run.PercentileNanos(0.999)) / 1000.0;
  return cell;
}

CellResult RunNativeCell(uint16_t port, uint32_t pool_threads, const OpenLoopOptions& load) {
  NativeRunner runner;
  ServerConfig config = CellServerConfig(port, pool_threads, load.connections + 1);
  bool ok = false;
  const OpenLoopResult run = DriveOpenLoop(runner.kernel(), load, [&] {
    ok = runner.Run(MakeServerProgram(config)).ok();
  });
  return Summarize("native-event-loop", 0, load, run, ok);
}

CellResult RunMveeCell(const std::string& mode, uint16_t port, uint32_t variants,
                       uint32_t pool_threads, const OpenLoopOptions& load) {
  MveeOptions options;
  options.num_variants = variants;
  options.agent = AgentKind::kWallOfClocks;
  options.enable_aslr = false;  // Matches the paper's performance runs (§5.1).
  options.rendezvous_timeout = std::chrono::milliseconds(60000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(60000);
  options.blocked_call_timeout = std::chrono::milliseconds(60000);
  Mvee mvee(options);

  ServerConfig config = CellServerConfig(port, pool_threads, load.connections + 1);
  bool ok = false;
  const OpenLoopResult run = DriveOpenLoop(mvee.kernel(), load, [&] {
    ok = mvee.Run(MakeServerProgram(config)).ok();
  });
  return Summarize(mode, variants, load, run, ok);
}

void WriteServerJson(const std::vector<CellResult>& cells) {
  const std::string path = bench::ResolveBenchJsonPath("BENCH_server.json");
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "WriteServerJson: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(file, "{\n  \"server\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    std::fprintf(
        file,
        "    {\"mode\": \"%s\", \"variants\": %u, \"connections\": %u, "
        "\"requests_per_conn\": %u, \"ok\": %s, \"responses_ok\": %llu, "
        "\"responses_non2xx\": %llu, \"responses_truncated\": %llu, "
        "\"connect_retries\": %llu, \"seconds\": %.3f, \"rps\": %.1f, "
        "\"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f}%s\n",
        cell.mode.c_str(), cell.variants, cell.connections, cell.requests_per_conn,
        cell.ok ? "true" : "false", static_cast<unsigned long long>(cell.responses_ok),
        static_cast<unsigned long long>(cell.responses_non2xx),
        static_cast<unsigned long long>(cell.responses_truncated),
        static_cast<unsigned long long>(cell.connect_retries), cell.seconds, cell.rps,
        cell.p50_us, cell.p99_us, cell.p999_us, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  std::printf("wrote %s (%zu cells)\n", path.c_str(), cells.size());
}

void PrintCell(const CellResult& cell) {
  std::printf(
      "  %-22s %uv  %5u conns x %u  %8.0f req/s  p50 %8.0fus  p99 %8.0fus  "
      "p999 %8.0fus%s%s\n",
      cell.mode.c_str(), cell.variants, cell.connections, cell.requests_per_conn,
      cell.rps, cell.p50_us, cell.p99_us, cell.p999_us, cell.ok ? "" : "  [RUN FAILED]",
      cell.responses_truncated > 0 ? "  [TRUNCATED]" : "");
}

}  // namespace

int main() {
  using namespace mvee::bench;

  const auto conns = static_cast<uint32_t>(EnvInt("MVEE_BENCH_SERVER_CONNS", 1000));
  const auto rpc = static_cast<uint32_t>(EnvInt("MVEE_BENCH_SERVER_RPC", 2));
  const double rate = static_cast<double>(EnvInt("MVEE_BENCH_SERVER_RATE", 20000));
  const auto pool = static_cast<uint32_t>(EnvInt("MVEE_BENCH_SERVER_THREADS", 8));
  const uint64_t total_requests = static_cast<uint64_t>(conns) * rpc;

  PrintHeader("Protected server under open-loop load: event loop (" + std::to_string(pool) +
              " pool threads, " + std::to_string(total_requests) + " requests/cell)");

  // `conns` keep-alive connections x `rpc` requests.
  OpenLoopOptions base_load;
  base_load.connections = conns;
  base_load.requests_per_conn = rpc;
  base_load.pipeline_depth = 2;
  base_load.arrival_rate = rate;
  base_load.client_threads = 4;

  std::vector<CellResult> cells;

  {
    OpenLoopOptions load = base_load;
    load.port = 9100;
    cells.push_back(RunNativeCell(load.port, pool, load));
    PrintCell(cells.back());
  }
  {
    OpenLoopOptions load = base_load;
    load.port = 9101;
    cells.push_back(RunMveeCell("mvee-event-loop", load.port, 2, pool, load));
    PrintCell(cells.back());
  }
  {
    // Breadth cell: one variant more, a quarter of the volume.
    OpenLoopOptions load = base_load;
    load.port = 9103;
    load.connections = std::max(100u, conns / 4);
    cells.push_back(RunMveeCell("mvee-event-loop", load.port, 3, pool, load));
    PrintCell(cells.back());
  }

  WriteServerJson(cells);

  bool failed = false;
  for (const CellResult& cell : cells) {
    if (!cell.ok || cell.responses_ok + cell.responses_non2xx !=
                        static_cast<uint64_t>(cell.connections) * cell.requests_per_conn) {
      std::fprintf(stderr, "FAIL: cell %s (%uv) did not serve its full load\n",
                   cell.mode.c_str(), cell.variants);
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
