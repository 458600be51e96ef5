// Tests for the nginx-style use case (paper §5.5): native serving, MVEE
// serving with instrumented custom sync ops, divergence with uninstrumented
// custom sync ops under load, and attack detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "mvee/monitor/mvee.h"
#include "mvee/monitor/native.h"
#include "mvee/server/http_server.h"
#include "mvee/server/wrk.h"

namespace mvee {
namespace {

// Runs the server program in `runner_fn` while generating `wrk` load from a
// client thread; returns the wrk result.
template <typename RunFn>
WrkResult ServeAndMeasure(VirtualKernel& kernel, const WrkOptions& wrk_options, RunFn serve) {
  WrkResult result;
  std::thread client([&] {
    // Wait for the listener to appear; the successful probe consumes one
    // accept slot (callers budget for it) and is closed so the worker that
    // receives it sees EOF and serves an empty request.
    VRef<VConnection> probe;
    while ((probe = kernel.network().Connect(wrk_options.port)) == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    probe->CloseClientSide();
    result = RunWrk(kernel, wrk_options);
  });
  serve();
  client.join();
  return result;
}

ServerConfig SmallServer(uint16_t port, bool instrument, bool vuln = false) {
  ServerConfig config;
  config.port = port;
  config.pool_threads = 4;
  config.page_bytes = 512;
  config.instrument_custom_sync = instrument;
  config.enable_vulnerability = vuln;
  return config;
}

TEST(HttpServerTest, NativeServesRequests) {
  NativeRunner runner;
  ServerConfig config = SmallServer(8080, /*instrument=*/true);
  config.connection_budget = 21;  // 20 wrk requests + 1 probe.

  WrkOptions wrk;
  wrk.port = 8080;
  wrk.connections = 4;
  wrk.requests_per_conn = 5;
  wrk.path = "/index.html";

  const WrkResult result = ServeAndMeasure(runner.kernel(), wrk, [&] {
    ASSERT_TRUE(runner.Run(MakeServerProgram(config)).ok());
  });
  EXPECT_EQ(result.responses_ok, 20u);
  EXPECT_GT(result.bytes_received, 20u * 512u);
}

TEST(HttpServerTest, MveeInstrumentedServesWithoutDivergence) {
  MveeOptions options;
  options.num_variants = 2;
  options.agent = AgentKind::kWallOfClocks;
  options.rendezvous_timeout = std::chrono::milliseconds(60000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(60000);
  Mvee mvee(options);

  ServerConfig config = SmallServer(8081, /*instrument=*/true);
  config.connection_budget = 21;

  WrkOptions wrk;
  wrk.port = 8081;
  wrk.connections = 4;
  wrk.requests_per_conn = 5;

  Status status;
  const WrkResult result = ServeAndMeasure(mvee.kernel(), wrk, [&] {
    status = mvee.Run(MakeServerProgram(config));
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.responses_ok, 20u);
}

TEST(HttpServerTest, UninstrumentedCustomSyncDivergesUnderLoad) {
  // §5.5: "if we do not instrument these custom synchronization primitives,
  // nginx does not function correctly when running multiple variants. The
  // server does start up normally, but quickly triggers a divergence when
  // network traffic starts flowing in." Racing request-id updates through
  // the raw spinlock produce mismatching response headers.
  int divergences = 0;
  for (int round = 0; round < 10 && divergences == 0; ++round) {
    MveeOptions options;
    options.num_variants = 2;
    options.agent = AgentKind::kWallOfClocks;
    options.rendezvous_timeout = std::chrono::milliseconds(15000);
    options.agent_config.replay_deadline = std::chrono::milliseconds(15000);
    options.seed = 77 + round;
    Mvee mvee(options);

    ServerConfig config = SmallServer(static_cast<uint16_t>(8090 + round),
                                      /*instrument=*/false);
    config.connection_budget = 41;

    WrkOptions wrk;
    wrk.port = config.port;
    wrk.connections = 8;
    wrk.requests_per_conn = 5;

    Status status;
    ServeAndMeasure(mvee.kernel(), wrk, [&] { status = mvee.Run(MakeServerProgram(config)); });
    if (!status.ok()) {
      ++divergences;
    }
  }
  EXPECT_GT(divergences, 0);
}

TEST(HttpServerTest, AttackSucceedsNatively) {
  // Against a single (unprotected) server instance, the tailored exploit
  // leaks the secret — the baseline the paper establishes before showing
  // the MVEE stops it.
  NativeRunner runner;
  ServerConfig config = SmallServer(8100, /*instrument=*/true, /*vuln=*/true);
  config.connection_budget = 2;  // probe + attack

  AttackResult attack;
  std::thread client([&] {
    VRef<VConnection> probe;
    while ((probe = runner.kernel().network().Connect(8100)) == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    probe->CloseClientSide();
    // The native runner's diversity map is the victim layout the attacker
    // "leaked".
    const uint64_t victim_base = DiversityMap(0, 0x5eedULL, true).map_base();
    attack = RunAttack(runner.kernel(), 8100, victim_base);
  });
  ASSERT_TRUE(runner.Run(MakeServerProgram(config)).ok());
  client.join();
  EXPECT_TRUE(attack.connected);
  EXPECT_TRUE(attack.secret_leaked);
}

TEST(HttpServerTest, MveeDetectsAttackBeforeLeak) {
  // With >= 2 diversified variants, the exploit only matches one variant's
  // layout; the variants' responses differ and the MVEE kills them before
  // the secret is sent (§5.5: "our MVEE detected divergence and shut down
  // all variants before the system could be compromised").
  MveeOptions options;
  options.num_variants = 2;
  options.enable_aslr = true;
  options.agent = AgentKind::kWallOfClocks;
  options.rendezvous_timeout = std::chrono::milliseconds(15000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(15000);
  Mvee mvee(options);

  ServerConfig config = SmallServer(8101, /*instrument=*/true, /*vuln=*/true);
  config.connection_budget = 2;

  AttackResult attack;
  Status status;
  std::thread client([&] {
    VRef<VConnection> probe;
    while ((probe = mvee.kernel().network().Connect(8101)) == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    probe->CloseClientSide();
    // Attacker tailored the payload to the master variant's layout.
    const uint64_t master_base = DiversityMap(0, options.seed, true).map_base();
    attack = RunAttack(mvee.kernel(), 8101, master_base);
  });
  status = mvee.Run(MakeServerProgram(config));
  client.join();

  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDivergence);
  EXPECT_FALSE(attack.secret_leaked);
}

// --- Event-loop conformance (docs/DESIGN.md §10) -----------------------------

// Reads from `conn` until one full response parses out of `in`; returns false
// if the stream closes or produces garbage first. Complete responses are
// erased from the front of `in`, so pipelined follow-ups stay intact.
bool ReadOneResponse(VConnection& conn, std::string& in, HttpResponse* out) {
  uint8_t buffer[4096];
  for (;;) {
    const HttpParseStatus status = TryParseHttpResponse(in, out);
    if (status == HttpParseStatus::kComplete) {
      in.erase(0, out->total_bytes);
      return true;
    }
    if (status == HttpParseStatus::kMalformed) {
      return false;
    }
    const int64_t n = conn.ClientRead(buffer, sizeof(buffer));
    if (n <= 0) {
      return false;
    }
    in.append(reinterpret_cast<const char*>(buffer), static_cast<size_t>(n));
  }
}

bool WriteAll(VConnection& conn, const std::string& data) {
  return conn.ClientWrite(reinterpret_cast<const uint8_t*>(data.data()), data.size()) ==
         static_cast<int64_t>(data.size());
}

// Drains `conn` and reports whether the server actually closed it (as opposed
// to hanging with the connection open).
bool ServerClosed(VConnection& conn, std::string& in) {
  uint8_t buffer[512];
  for (;;) {
    const int64_t n = conn.ClientRead(buffer, sizeof(buffer));
    if (n <= 0) {
      return true;
    }
    in.append(reinterpret_cast<const char*>(buffer), static_cast<size_t>(n));
    if (in.size() > (1u << 20)) {
      return false;
    }
  }
}

// Runs a native event-loop server and a raw-socket client against it.
// `budget` must count the readiness probe.
template <typename ClientFn>
void WithNativeEventServer(uint16_t port, uint32_t budget, ClientFn client_fn) {
  NativeRunner runner;
  ServerConfig config = SmallServer(port, /*instrument=*/true);
  config.connection_budget = budget;
  std::thread client([&] {
    VRef<VConnection> probe;
    while ((probe = runner.kernel().network().Connect(port)) == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    probe->CloseClientSide();
    client_fn(runner.kernel());
  });
  EXPECT_TRUE(runner.Run(MakeServerProgram(config)).ok());
  client.join();
}

TEST(EventLoopTest, KeepAliveReusesOneConnection) {
  WithNativeEventServer(8200, /*budget=*/2, [](VirtualKernel& kernel) {
    auto conn = kernel.network().Connect(8200);
    ASSERT_NE(conn, nullptr);
    std::string in;
    uint64_t last_id = 0;
    // Five sequential requests over the SAME connection: HTTP/1.1 defaults
    // to keep-alive, so the server must not close between them.
    for (int r = 0; r < 5; ++r) {
      ASSERT_TRUE(WriteAll(*conn, "GET /index.html HTTP/1.1\r\nHost: mvee\r\n\r\n"));
      HttpResponse response;
      ASSERT_TRUE(ReadOneResponse(*conn, in, &response)) << "request " << r;
      EXPECT_EQ(response.status, 200);
      EXPECT_EQ(response.body.size(), 512u);
      EXPECT_GT(response.request_id, last_id);
      last_id = response.request_id;
    }
    conn->CloseClientSide();
  });
}

TEST(EventLoopTest, PipelinedRequestsAnsweredInOrder) {
  WithNativeEventServer(8201, /*budget=*/2, [](VirtualKernel& kernel) {
    auto conn = kernel.network().Connect(8201);
    ASSERT_NE(conn, nullptr);
    // Four requests in a single write; the responses must come back complete
    // and in order, with consecutive request ids (this is the only live
    // connection, so the ids show per-connection FIFO handling).
    std::string burst;
    for (int r = 0; r < 4; ++r) {
      burst += "GET /index.html HTTP/1.1\r\nHost: mvee\r\n\r\n";
    }
    ASSERT_TRUE(WriteAll(*conn, burst));
    std::string in;
    std::vector<uint64_t> ids;
    for (int r = 0; r < 4; ++r) {
      HttpResponse response;
      ASSERT_TRUE(ReadOneResponse(*conn, in, &response)) << "response " << r;
      EXPECT_EQ(response.status, 200);
      ids.push_back(response.request_id);
    }
    for (size_t i = 1; i < ids.size(); ++i) {
      EXPECT_EQ(ids[i], ids[i - 1] + 1);
    }
    conn->CloseClientSide();
  });
}

TEST(EventLoopTest, MalformedRequestLineGets400AndClose) {
  WithNativeEventServer(8202, /*budget=*/2, [](VirtualKernel& kernel) {
    auto conn = kernel.network().Connect(8202);
    ASSERT_NE(conn, nullptr);
    ASSERT_TRUE(WriteAll(*conn, "BOGUS\r\n\r\n"));
    std::string in;
    HttpResponse response;
    ASSERT_TRUE(ReadOneResponse(*conn, in, &response));
    EXPECT_EQ(response.status, 400);
    EXPECT_TRUE(ServerClosed(*conn, in));
    conn->CloseClientSide();
  });
}

TEST(EventLoopTest, OversizedHeadersGet413AndClose) {
  WithNativeEventServer(8203, /*budget=*/2, [](VirtualKernel& kernel) {
    auto conn = kernel.network().Connect(8203);
    ASSERT_NE(conn, nullptr);
    // 70 KiB of headers with no terminator: past max_request_bytes the
    // server must answer 413 and close — not hang waiting for the end, and
    // not silently truncate.
    std::string oversized = "GET /index.html HTTP/1.1\r\nX-Junk: ";
    oversized.append(70 * 1024, 'a');
    ASSERT_TRUE(WriteAll(*conn, oversized));
    std::string in;
    HttpResponse response;
    ASSERT_TRUE(ReadOneResponse(*conn, in, &response));
    EXPECT_EQ(response.status, 413);
    EXPECT_TRUE(ServerClosed(*conn, in));
    conn->CloseClientSide();
  });
}

TEST(EventLoopTest, MveeOpenLoopKeepAliveServesAll) {
  // The open-loop harness against a 2-variant MVEE: keep-alive + pipelining
  // through the replicated poll/recv path. Every request must be answered
  // and the ids must be a permutation of 1..N (nothing lost, nothing
  // duplicated across the pool workers).
  MveeOptions options;
  options.num_variants = 2;
  options.agent = AgentKind::kWallOfClocks;
  options.rendezvous_timeout = std::chrono::milliseconds(60000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(60000);
  Mvee mvee(options);

  ServerConfig config = SmallServer(8204, /*instrument=*/true);
  config.connection_budget = 17;  // 16 open-loop connections + 1 probe.

  OpenLoopOptions load;
  load.port = 8204;
  load.connections = 16;
  load.requests_per_conn = 4;
  load.pipeline_depth = 2;
  load.arrival_rate = 4000.0;
  load.client_threads = 2;
  load.collect_request_ids = true;

  Status status;
  OpenLoopResult result;
  std::thread client([&] {
    VRef<VConnection> probe;
    while ((probe = mvee.kernel().network().Connect(8204)) == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    probe->CloseClientSide();
    result = RunWrkOpenLoop(mvee.kernel(), load);
  });
  status = mvee.Run(MakeServerProgram(config));
  client.join();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.responses_ok, 64u);
  EXPECT_EQ(result.responses_non2xx, 0u);
  EXPECT_EQ(result.responses_truncated, 0u);
  EXPECT_EQ(result.latency_ns.Count(), 64u);

  std::vector<uint64_t> ids = result.request_ids;
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), 64u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i + 1) << "request ids are not a permutation of 1..N";
  }
}

TEST(EventLoopTest, MveeDetectsAttackUnderEventLoop) {
  // The §5.5 attack/divergence property must survive the serving-path
  // rewrite.
  MveeOptions options;
  options.num_variants = 2;
  options.enable_aslr = true;
  options.agent = AgentKind::kWallOfClocks;
  options.rendezvous_timeout = std::chrono::milliseconds(15000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(15000);
  Mvee mvee(options);

  ServerConfig config = SmallServer(8205, /*instrument=*/true, /*vuln=*/true);
  config.connection_budget = 2;

  AttackResult attack;
  Status status;
  std::thread client([&] {
    VRef<VConnection> probe;
    while ((probe = mvee.kernel().network().Connect(8205)) == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    probe->CloseClientSide();
    const uint64_t master_base = DiversityMap(0, options.seed, true).map_base();
    attack = RunAttack(mvee.kernel(), 8205, master_base);
  });
  status = mvee.Run(MakeServerProgram(config));
  client.join();

  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDivergence);
  EXPECT_FALSE(attack.secret_leaked);
}

TEST(NgxSpinlockTest, BothModesMutualExclusion) {
  for (bool instrumented : {true, false}) {
    NgxSpinlock lock(instrumented);
    int counter = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 1000; ++i) {
          lock.Lock();
          ++counter;
          lock.Unlock();
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    EXPECT_EQ(counter, 4000);
  }
}

TEST(LayoutTokenTest, DistinctBasesDistinctTokens) {
  EXPECT_NE(LayoutToken(0x1000), LayoutToken(0x2000));
  EXPECT_EQ(LayoutToken(0x1000), LayoutToken(0x1000));
}

}  // namespace
}  // namespace mvee
