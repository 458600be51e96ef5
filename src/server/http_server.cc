#include "mvee/server/http_server.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "mvee/syscall/sysno.h"
#include "mvee/util/hash.h"
#include "mvee/vkernel/vfs.h"

namespace mvee {

void NgxSpinlock::Lock() {
  if (instrumented_) {
    for (;;) {
      int32_t expected = 0;
      if (instrumented_state_.CompareExchange(expected, 1)) {
        return;
      }
      std::this_thread::yield();
    }
  }
  // Stock build: raw compiler atomics, invisible to the sync agent — the
  // §5.5 failure mode.
  for (;;) {
    int32_t expected = 0;
    if (raw_state_.compare_exchange_strong(expected, 1, std::memory_order_acquire)) {
      return;
    }
    std::this_thread::yield();
  }
}

void NgxSpinlock::Unlock() {
  if (instrumented_) {
    instrumented_state_.Store(0);
    return;
  }
  raw_state_.store(0, std::memory_order_release);
}

std::string ServerSecret() { return "SECRET{worker-key-0xdeadbeef-cafebabe}"; }

uint64_t LayoutToken(uint64_t map_base) { return SplitMix64(map_base ^ 0x5eC2e7ULL); }

namespace {

struct ServerState {
  explicit ServerState(const ServerConfig& config)
      : stats_lock(config.instrument_custom_sync) {}

  NgxSpinlock stats_lock;
  ServerStats stats;
};

// The CVE-2013-2028 stand-in. A request "/vuln" carries a binary payload
// after the headers:
//   [64 filler bytes][8-byte layout token]
// The "stack buffer" is 64 bytes; the token overflows into the response
// selector. A selector matching this variant's own layout token redirects
// the response to the secret (a successful hijack); any other value yields
// a corrupted-but-benign response. An attacker can only tailor the token to
// ONE variant's layout — the others produce different bytes and the MVEE's
// send() comparison catches it (§5.5).
std::string HandleVuln(VariantEnv& env, const std::string& request,
                       const std::string& static_page) {
  const size_t body_start = request.find("\r\n\r\n");
  std::string payload =
      body_start == std::string::npos ? "" : request.substr(body_start + 4);

  char stack_buffer[64];
  uint64_t response_selector = 0;  // "Adjacent" to the buffer on the stack.
  // The bug: memcpy without a length check.
  const size_t n = payload.size();
  for (size_t i = 0; i < n; ++i) {
    if (i < sizeof(stack_buffer)) {
      stack_buffer[i] = payload[i];
    } else if (i - sizeof(stack_buffer) < sizeof(response_selector)) {
      // Overflow: bytes land in the selector (simulated adjacency).
      reinterpret_cast<char*>(&response_selector)[i - sizeof(stack_buffer)] = payload[i];
    }
  }
  (void)stack_buffer;

  if (response_selector == LayoutToken(env.diversity().map_base())) {
    return ServerSecret();  // Control-flow hijack succeeded in this variant.
  }
  if (response_selector != 0) {
    return "corrupted:" + std::to_string(response_selector & 0xffff);
  }
  return static_page;
}

// --- Readiness-driven event loop (docs/DESIGN.md §10) ------------------------
//
// The only serve path. One acceptor thread polls the listener and hands
// accepted fds to the pool workers over vkernel pipes (4-byte records,
// deterministic round-robin).
// Each worker multiplexes its handoff pipe plus all of its live connections
// through sys_poll, parsing HTTP/1.1 keep-alive and pipelined requests out of
// a bounded per-connection buffer. Under the MVEE this is deterministic
// because fd numbers are identical across variants (ordered allocation +
// shadow-fd checks), poll revents / recv payloads / pipe reads are all
// replicated from the master, and so every variant takes identical branches.

// Poll slice for both the acceptor and the workers. Finite so an idle server
// still makes a fresh syscall every slice (keeping the blocked-call watchdog
// fed); readiness wakes a parked poll immediately via the wait queues, so the
// slice length never adds serving latency.
constexpr int64_t kPollSliceMs = 500;
constexpr size_t kRecvChunk = 4096;

struct ParsedRequest {
  std::string path;
  std::string version;  // "HTTP/1.0" or "HTTP/1.1".
  bool keep_alive = false;
  size_t content_length = 0;
  size_t total_bytes = 0;  // Request line + headers + body.
};

enum class ParseStatus { kNeedMore, kComplete, kBadRequest, kTooLarge };

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view TrimSpaces(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// Tries to parse one complete request from the front of `in`. `max_bytes`
// bounds the whole request (line + headers + body): headers that never
// terminate inside the cap and bodies that exceed it are kTooLarge (→ 413),
// grammar violations are kBadRequest (→ 400).
ParseStatus ParseRequest(const std::string& in, size_t max_bytes, ParsedRequest* out) {
  const size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return in.size() > max_bytes ? ParseStatus::kTooLarge : ParseStatus::kNeedMore;
  }
  const size_t body_start = head_end + 4;
  if (body_start > max_bytes) {
    return ParseStatus::kTooLarge;
  }

  const size_t line_end = in.find("\r\n");
  const std::string_view line(in.data(), line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                                   : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || line.find(' ', sp2 + 1) != std::string_view::npos) {
    return ParseStatus::kBadRequest;
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (method.empty() || path.empty() || path.front() != '/' ||
      (version != "HTTP/1.0" && version != "HTTP/1.1")) {
    return ParseStatus::kBadRequest;
  }

  size_t content_length = 0;
  std::string connection;
  size_t pos = line_end + 2;
  while (pos < head_end) {
    const size_t eol = std::min(in.find("\r\n", pos), head_end);
    const std::string_view header(in.data() + pos, eol - pos);
    const size_t colon = header.find(':');
    if (colon == std::string_view::npos) {
      return ParseStatus::kBadRequest;
    }
    const std::string_view key = TrimSpaces(header.substr(0, colon));
    const std::string_view value = TrimSpaces(header.substr(colon + 1));
    if (EqualsIgnoreCase(key, "content-length")) {
      if (value.empty()) {
        return ParseStatus::kBadRequest;
      }
      content_length = 0;
      for (char c : value) {
        if (c < '0' || c > '9') {
          return ParseStatus::kBadRequest;
        }
        content_length = content_length * 10 + static_cast<size_t>(c - '0');
        if (content_length > max_bytes) {
          return ParseStatus::kTooLarge;
        }
      }
    } else if (EqualsIgnoreCase(key, "connection")) {
      connection.assign(value);
      for (char& c : connection) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
    }
    pos = eol + 2;
  }

  if (body_start + content_length > max_bytes) {
    return ParseStatus::kTooLarge;
  }
  if (in.size() < body_start + content_length) {
    return ParseStatus::kNeedMore;
  }

  out->path.assign(path);
  out->version.assign(version);
  out->content_length = content_length;
  out->total_bytes = body_start + content_length;
  out->keep_alive =
      version == "HTTP/1.1" ? connection != "close" : connection == "keep-alive";
  return ParseStatus::kComplete;
}

std::string MakeEventResponse(const ParsedRequest& request, const std::string& body,
                              uint64_t request_id) {
  std::string response = request.version + " 200 OK\r\nContent-Length: " +
                         std::to_string(body.size()) +
                         "\r\nX-Request-Id: " + std::to_string(request_id);
  // HTTP/1.1 defaults to keep-alive and HTTP/1.0 to close, so only the
  // non-default cases need an explicit header.
  if (request.keep_alive && request.version == "HTTP/1.0") {
    response += "\r\nConnection: keep-alive";
  } else if (!request.keep_alive && request.version == "HTTP/1.1") {
    response += "\r\nConnection: close";
  }
  response += "\r\n\r\n";
  response += body;
  return response;
}

std::string MakeErrorResponse(int status) {
  const char* reason = status == 413 ? "Payload Too Large" : "Bad Request";
  const std::string body =
      status == 413 ? "request exceeds server limit\n" : "malformed request\n";
  return "HTTP/1.1 " + std::to_string(status) + " " + reason +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n" + body;
}

struct EventConn {
  int64_t fd = -1;
  std::string in;  // Bounded: max_request_bytes plus one recv chunk.
};

// Services one readable connection: drains a recv chunk, then answers every
// complete request already buffered (pipelining), in arrival order. Returns
// false when the connection must be closed (EOF, error response, or a
// non-keep-alive request was answered).
bool ServiceConn(EventConn& conn, ServerState& state, const ServerConfig& config,
                 const std::string& static_page, VariantEnv& env) {
  uint8_t buffer[kRecvChunk];
  const int64_t n = env.Recv(conn.fd, buffer);
  if (n <= 0) {
    return false;  // EOF (e.g. a probe connection) or a dead stream.
  }
  conn.in.append(reinterpret_cast<const char*>(buffer), static_cast<size_t>(n));

  for (;;) {
    ParsedRequest request;
    const ParseStatus status = ParseRequest(conn.in, config.max_request_bytes, &request);
    if (status == ParseStatus::kNeedMore) {
      return true;
    }
    if (status == ParseStatus::kBadRequest || status == ParseStatus::kTooLarge) {
      state.stats_lock.Lock();
      if (status == ParseStatus::kBadRequest) {
        ++state.stats.bad_requests;
      } else {
        ++state.stats.oversized_requests;
      }
      state.stats_lock.Unlock();
      env.Send(conn.fd, MakeErrorResponse(status == ParseStatus::kTooLarge ? 413 : 400));
      return false;
    }

    const std::string raw = conn.in.substr(0, request.total_bytes);
    conn.in.erase(0, request.total_bytes);

    std::string body;
    bool vuln_hit = false;
    if (config.enable_vulnerability && request.path.rfind("/vuln", 0) == 0) {
      body = HandleVuln(env, raw, static_page);
      vuln_hit = true;
    } else {
      body = static_page;
    }

    // Custom-primitive critical section: the request id lands in the
    // response header, so a cross-variant mismatch is externally visible.
    // The yield inside mirrors nginx doing real work under its locks and
    // widens the race window that uninstrumented builds lose on (§5.5).
    state.stats_lock.Lock();
    const uint64_t request_id = ++state.stats.requests_served;
    std::this_thread::yield();
    state.stats.bytes_sent += body.size();
    if (vuln_hit) {
      ++state.stats.vuln_hits;
    }
    state.stats_lock.Unlock();

    env.Send(conn.fd, MakeEventResponse(request, body, request_id));
    if (!request.keep_alive) {
      return false;
    }
  }
}

void EventWorker(std::shared_ptr<ServerState> state, const ServerConfig& config,
                 const std::string& static_page, int64_t pipe_fd, VariantEnv& env) {
  std::vector<EventConn> conns;
  std::string handoff;  // Carry buffer: pipe reads may split the 4-byte records.
  bool pipe_open = true;

  while (pipe_open || !conns.empty()) {
    std::vector<VariantEnv::PollFd> set;
    set.reserve((pipe_open ? 1 : 0) + conns.size());
    if (pipe_open) {
      set.push_back({static_cast<int32_t>(pipe_fd), PollEvents::kIn, 0});
    }
    for (const EventConn& conn : conns) {
      set.push_back({static_cast<int32_t>(conn.fd), PollEvents::kIn, 0});
    }

    if (env.Poll(set, kPollSliceMs) <= 0) {
      continue;  // Timeout heartbeat; re-arm.
    }

    size_t base = 0;
    if (pipe_open) {
      if (set[0].revents != 0) {
        uint8_t buffer[64];
        const int64_t n = env.Read(pipe_fd, buffer);
        if (n <= 0) {
          // Acceptor closed its end: the budget is drained. Finish the live
          // connections, then exit.
          env.Close(pipe_fd);
          pipe_open = false;
        } else {
          handoff.append(reinterpret_cast<const char*>(buffer), static_cast<size_t>(n));
          while (handoff.size() >= sizeof(int32_t)) {
            int32_t fd = -1;
            std::memcpy(&fd, handoff.data(), sizeof(fd));
            handoff.erase(0, sizeof(fd));
            conns.push_back(EventConn{fd, {}});
          }
        }
      }
      base = 1;
    }

    // Only the connections that were in this round's poll set have revents;
    // connections admitted from the pipe above are polled next round.
    const size_t polled = set.size() - base;
    for (size_t i = 0; i < polled; ++i) {
      if (set[base + i].revents == 0) {
        continue;
      }
      EventConn& conn = conns[i];
      if (!ServiceConn(conn, *state, config, static_page, env)) {
        env.Close(conn.fd);
        conn.fd = -1;
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const EventConn& c) { return c.fd < 0; }),
                conns.end());
  }
}

void EventAcceptLoop(const ServerConfig& config, int64_t listen_fd,
                     const std::vector<std::pair<int64_t, int64_t>>& pipes,
                     VariantEnv& env) {
  uint32_t accepted = 0;
  while (accepted < config.connection_budget) {
    VariantEnv::PollFd listener{static_cast<int32_t>(listen_fd), PollEvents::kIn, 0};
    if (env.Poll({&listener, 1}, kPollSliceMs) <= 0) {
      continue;  // Timeout heartbeat.
    }
    const int64_t conn_fd = env.Accept(listen_fd);
    if (conn_fd < 0) {
      break;  // Listener torn down.
    }
    uint8_t record[sizeof(int32_t)];
    const int32_t fd32 = static_cast<int32_t>(conn_fd);
    std::memcpy(record, &fd32, sizeof(fd32));
    env.Write(pipes[accepted % pipes.size()].second,
              std::span<const uint8_t>(record, sizeof(record)));
    ++accepted;
  }
}

void WriteStats(const ServerState& state, VariantEnv& env) {
  // Final stats: lockstep-compared across variants, so any divergence in
  // the served-request accounting is caught here at the latest.
  const std::string stats_line =
      "requests=" + std::to_string(state.stats.requests_served) +
      " bytes=" + std::to_string(state.stats.bytes_sent) +
      " vuln=" + std::to_string(state.stats.vuln_hits) +
      " bad=" + std::to_string(state.stats.bad_requests) +
      " oversized=" + std::to_string(state.stats.oversized_requests) + "\n";
  const int64_t fd = env.Open("result/http_stats",
                              VOpenFlags::kWrite | VOpenFlags::kCreate | VOpenFlags::kTruncate);
  env.Write(fd, stats_line);
  env.Close(fd);
}

}  // namespace

Program MakeServerProgram(const ServerConfig& config) {
  return [config](VariantEnv& env) {
    const std::string static_page(config.page_bytes, 'x');
    auto state = std::make_shared<ServerState>(config);

    const int64_t listen_fd = env.Socket();
    env.Bind(listen_fd, config.port);
    if (env.Listen(listen_fd, config.listen_backlog) != 0) {
      return;  // Port in use (another variant run left it open).
    }

    const uint32_t workers = std::max(1u, config.pool_threads);
    std::vector<std::pair<int64_t, int64_t>> pipes;
    for (uint32_t t = 0; t < workers; ++t) {
      pipes.push_back(env.Pipe());
    }
    std::vector<ThreadHandle> pool;
    for (uint32_t t = 0; t < workers; ++t) {
      const int64_t read_fd = pipes[t].first;
      pool.push_back(env.Spawn([state, config, static_page, read_fd](VariantEnv& wenv) {
        EventWorker(state, config, static_page, read_fd, wenv);
      }));
    }
    EventAcceptLoop(config, listen_fd, pipes, env);
    for (const auto& pipe : pipes) {
      env.Close(pipe.second);  // Workers observe EOF, drain, and exit.
    }
    for (ThreadHandle handle : pool) {
      env.Join(handle);
    }

    env.Shutdown(listen_fd);
    env.Close(listen_fd);
    WriteStats(*state, env);
  };
}

}  // namespace mvee
