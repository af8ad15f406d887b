/// Event-driven serve path tests: the M/M/c admission estimator (Erlang-C
/// math, cold start, shed/recover), the epoll event loop's connection
/// handling (slow-loris dribble, mid-write disconnect, idle connections
/// far beyond the worker pool), per-request BUSY shedding under open-loop
/// saturation, the HTTP/JSON query adapter, client retry pushback,
/// result-cache hits answered on the loop thread (one lookup per request,
/// pipelined bursts, no pool dispatch), and byte-identity of the line
/// protocol across io modes. Runs under the TSan lane
/// (scripts/run_tsan.sh, label `server`).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/facet.h"
#include "datagen/registry.h"
#include "gtest/gtest.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/event_loop.h"
#include "server/http.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace sofos {
namespace {

using server::AdmissionController;
using server::AdmissionOptions;
using server::BlockingClient;
using server::ConnKind;
using server::ErlangC;
using server::EventLoop;
using server::EventLoopOptions;
using server::HttpRequest;
using server::HttpRequestParser;
using server::IoMode;
using server::Reply;
using server::ResultCacheStats;
using server::ServerOptions;
using server::SofosServer;

// ---- Erlang-C -------------------------------------------------------------

TEST(ErlangCTest, KnownValuesAndDomain) {
  // c=1: C(1, a) = a (an M/M/1 arrival queues iff the server is busy).
  EXPECT_NEAR(ErlangC(1, 0.5), 0.5, 1e-9);
  EXPECT_NEAR(ErlangC(1, 0.9), 0.9, 1e-9);
  // No offered load: nobody queues.
  EXPECT_EQ(ErlangC(4, 0.0), 0.0);
  // At/past saturation the formula's domain ends: pinned to 1.
  EXPECT_EQ(ErlangC(2, 2.0), 1.0);
  EXPECT_EQ(ErlangC(2, 5.0), 1.0);
  // c=2, a=1 (rho=0.5): C = (a^2/2!)·(2/(2-a)) / (1 + a + a^2/2!·2/(2-a))
  //                       = 1 / 3.
  EXPECT_NEAR(ErlangC(2, 1.0), 1.0 / 3.0, 1e-9);
  // Monotone in offered load, and more servers queue less.
  EXPECT_LT(ErlangC(4, 1.0), ErlangC(4, 3.0));
  EXPECT_LT(ErlangC(8, 3.0), ErlangC(4, 3.0));
}

// ---- AdmissionController --------------------------------------------------

TEST(AdmissionControllerTest, ColdStartAdmitsWithFallbackHint) {
  AdmissionOptions options;
  options.servers = 2;
  options.fallback_retry_ms = 42;
  AdmissionController controller(options);
  auto decision = controller.Decide(100);  // huge queue, but no model yet
  EXPECT_TRUE(decision.admit);
  EXPECT_EQ(decision.retry_ms, 42);
  EXPECT_EQ(controller.Stats().admitted, 1u);
}

TEST(AdmissionControllerTest, QueueDepthShedsOnceServiceTimeKnown) {
  AdmissionOptions options;
  options.servers = 2;
  options.slo_budget_micros = 10'000.0;  // 10ms
  options.min_retry_ms = 5;
  options.max_retry_ms = 2000;
  options.service_ewma_alpha = 1.0;  // adopt the observation immediately
  AdmissionController controller(options);
  controller.OnComplete(8'000.0);  // S = 8ms

  // Idle: instantaneous wait 0 -> admit.
  EXPECT_TRUE(controller.Decide(0).admit);
  // 2 busy servers + 4 queued: wait = (4+1)*8ms/2 = 20ms > 10ms budget.
  auto shed = controller.Decide(6);
  EXPECT_FALSE(shed.admit);
  EXPECT_NEAR(shed.estimated_wait_micros, 20'000.0, 1.0);
  EXPECT_EQ(shed.retry_ms, 20);  // ceil(20ms), inside [5, 2000]
  // Recovery: the backlog drained -> admitted again.
  EXPECT_TRUE(controller.Decide(1).admit);

  auto stats = controller.Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.estimated_wait.count, 3u);
}

TEST(AdmissionControllerTest, PeekHasNoSideEffects) {
  AdmissionOptions options;
  options.servers = 1;
  options.slo_budget_micros = 1'000.0;
  options.service_ewma_alpha = 1.0;
  AdmissionController controller(options);
  controller.OnComplete(5'000.0);
  EXPECT_FALSE(controller.Peek(10).admit);
  EXPECT_TRUE(controller.Peek(0).admit);
  auto stats = controller.Stats();
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.estimated_wait.count, 0u);
}

TEST(AdmissionControllerTest, RetryHintClampedAndFloored) {
  AdmissionOptions options;
  options.servers = 1;
  options.slo_budget_micros = 1.0;
  options.min_retry_ms = 5;
  options.max_retry_ms = 100;
  options.fallback_retry_ms = 50;
  options.service_ewma_alpha = 1.0;
  AdmissionController controller(options);
  controller.OnComplete(10'000'000.0);  // 10s service: hint would be huge
  auto decision = controller.Decide(4);
  EXPECT_FALSE(decision.admit);
  EXPECT_EQ(decision.retry_ms, 100);  // clamped to max
  // The connection-level hint never drops below the configured floor,
  // even when the load-derived figure is small.
  AdmissionController idle(options);
  EXPECT_EQ(idle.ConnectionRetryHintMs(0), 50);
}

// ---- Loopback fixture -----------------------------------------------------

class EventLoopServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TripleStore store;
    auto spec = datagen::GenerateByName("geopop", datagen::Scale::kTiny, 42,
                                        &store);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto facet = core::Facet::FromSparql(spec->facet_sparql, spec->name,
                                         spec->dim_labels);
    ASSERT_TRUE(facet.ok()) << facet.status().ToString();
    SOFOS_ASSERT_OK(engine_.LoadStore(std::move(store)));
    SOFOS_ASSERT_OK(engine_.SetFacet(std::move(facet).value()));
    SOFOS_ASSERT_OK(engine_.Profile().status());
    core::TripleCountCostModel model;
    SOFOS_ASSERT_OK_AND_ASSIGN(auto selection, engine_.SelectViews(model, 2));
    SOFOS_ASSERT_OK(engine_.MaterializeSelection(selection).status());
  }

  core::SofosEngine engine_;
};

/// Raw loopback socket helper for tests that need byte-level control
/// (partial writes, abrupt close) the BlockingClient hides.
int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one HTTP request and reads until the server closes. A server that
/// never closes times out after 5 s and yields "" instead of hanging.
std::string RawHttp(uint16_t port, const std::string& request) {
  int fd = RawConnect(port);
  if (fd < 0) return "";
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  if (n < 0) response.clear();  // timed out: the server never closed
  ::close(fd);
  return response;
}

std::string UrlEncode(const std::string& in) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (char c : in) {
    unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += c;
    } else {
      out += '%';
      out += hex[u >> 4];
      out += hex[u & 15];
    }
  }
  return out;
}

/// Writes `bytes` from a helper thread (so a burst larger than the socket
/// buffers cannot deadlock against the replies) and reads until `replies`
/// framed line-protocol responses have arrived. Returns the raw bytes.
std::string RawLineExchange(int fd, const std::string& bytes, size_t replies) {
  std::thread sender([fd, &bytes] {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
  });
  std::string got;
  size_t ends = 0;
  size_t scanned = 0;  // "END\n" lines counted up to here
  char buf[8192];
  while (ends < replies) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    got.append(buf, static_cast<size_t>(n));
    size_t at;
    while ((at = got.find("END\n", scanned)) != std::string::npos) {
      if (at == 0 || got[at - 1] == '\n') ++ends;
      scanned = at + 4;
    }
  }
  sender.join();
  return got;
}

/// SPARQL text as one protocol line: the line protocol frames on '\n',
/// and the server normalizes whitespace before keying the cache.
std::string OneLine(std::string sparql) {
  std::replace(sparql.begin(), sparql.end(), '\n', ' ');
  return sparql;
}

/// A reply's execution time differs run to run; a cache hit's is always
/// 0.0. Masks the figure in replies that were not cached, so an executed
/// reply compares equal across servers and a cached one stays exact.
std::string MaskExecMicros(const std::string& reply) {
  if (reply.find("cached=1") != std::string::npos ||
      reply.find("\"cached\":true") != std::string::npos) {
    return reply;
  }
  static const std::regex micros("(micros=|\"micros\":)[0-9.]+");
  return std::regex_replace(reply, micros, "$1X");
}

/// The value of one registry sample, read in process (a METRICS request
/// would itself be a pool task): a counter's or gauge's value, or a
/// histogram's sample count. -1 when absent.
double RegistryValue(core::SofosEngine* engine, const std::string& name) {
  for (const MetricSample& sample : engine->metrics()->Collect()) {
    if (sample.name != name) continue;
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
        return static_cast<double>(sample.counter_value);
      case MetricSample::Kind::kGauge:
        return sample.gauge_value;
      case MetricSample::Kind::kHistogram:
        return static_cast<double>(sample.histogram.count);
    }
  }
  return -1.0;
}

/// Tasks the session pool has started: every request that left the loop
/// thread. Recorded before the task runs, so it is current by the time
/// the task's reply reaches the client.
double PoolTasksStarted(core::SofosEngine* engine) {
  return RegistryValue(engine, "sofos_pool_queue_wait_micros");
}

// ---- Idle-connection capacity (the tentpole's headline claim) -------------

TEST_F(EventLoopServerTest, IdleConnectionsFarBeyondPoolAllServed) {
  ServerOptions options;
  options.max_sessions = 4;
  options.io_threads = 2;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  // 4x max_sessions concurrent connections (the acceptance floor), all
  // held open at once. Thread-per-session would reject everything past
  // max_sessions + queue_capacity; the event loop parks them for the
  // price of a buffer each.
  constexpr int kConnections = 16;
  std::vector<std::unique_ptr<BlockingClient>> clients;
  for (int i = 0; i < kConnections; ++i) {
    auto client = std::make_unique<BlockingClient>();
    SOFOS_ASSERT_OK(client->Connect(server.port()));
    clients.push_back(std::move(client));
  }
  // Connections are registered asynchronously via the loop mailbox;
  // the first roundtrip below forces each one through.

  // /healthz stays green while all of them sit connected...
  std::string health = RawHttp(
      server.http_port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos) << health;

  // ...and every single connection still gets answered.
  std::string sparql = engine_.facet().CanonicalQuerySparql(1);
  std::string expected_body;
  for (int i = 0; i < kConnections; ++i) {
    SOFOS_ASSERT_OK_AND_ASSIGN(auto response,
                               clients[i]->Roundtrip("QUERY " + sparql));
    ASSERT_TRUE(response.ok()) << "conn " << i << ": " << response.header;
    if (i == 0) expected_body = response.BodyText();
    EXPECT_EQ(response.BodyText(), expected_body) << "conn " << i;
  }
  EXPECT_GE(server.open_connections(),
            static_cast<size_t>(4 * options.max_sessions));

  for (auto& client : clients) client->Roundtrip("QUIT");
  server.Stop();
}

// ---- Hostile / unlucky clients --------------------------------------------

TEST_F(EventLoopServerTest, SlowLorisDribbleDoesNotStallOthers) {
  ServerOptions options;
  options.max_sessions = 2;
  options.io_threads = 1;  // one loop: the dribbler and victim share it
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  int loris = RawConnect(server.port());
  ASSERT_GE(loris, 0);
  // Dribble a request one byte at a time, never finishing the line.
  const std::string partial = "STATS";
  std::atomic<bool> done{false};
  std::thread dribbler([&] {
    for (char c : partial) {
      ::send(loris, &c, 1, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // Request still has no terminating newline here.
    while (!done) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });

  // A well-behaved client on the same loop is served while the dribble
  // is in progress.
  BlockingClient victim;
  SOFOS_ASSERT_OK(victim.Connect(server.port()));
  for (int i = 0; i < 5; ++i) {
    SOFOS_ASSERT_OK_AND_ASSIGN(auto response, victim.Roundtrip("STATS"));
    EXPECT_TRUE(response.ok()) << response.header;
  }
  done = true;
  dribbler.join();

  // Completing the dribbled request late still yields a full response:
  // partial input was buffered, not dropped.
  std::string rest = "\n";
  ::send(loris, rest.data(), rest.size(), 0);
  std::string answer;
  char buf[4096];
  ssize_t n;
  while (answer.find("\nEND\n") == std::string::npos &&
         (n = ::recv(loris, buf, sizeof(buf), 0)) > 0) {
    answer.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(answer.rfind("OK STATS", 0), 0u) << answer;
  ::close(loris);

  victim.Roundtrip("QUIT");
  server.Stop();
}

TEST_F(EventLoopServerTest, MidResponseDisconnectIsHarmless) {
  ServerOptions options;
  options.max_sessions = 2;
  options.io_threads = 1;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  std::string sparql = engine_.facet().CanonicalQuerySparql(3);
  // Fire a query and slam the connection shut without reading the
  // response: the loop's write hits a dead socket mid-flush.
  for (int i = 0; i < 8; ++i) {
    int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    std::string request = "QUERY " + sparql + "\n";
    ::send(fd, request.data(), request.size(), 0);
    if (i % 2 == 0) {
      // RST rather than FIN: forces ECONNRESET on the server's send.
      struct linger hard {1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    }
    ::close(fd);
  }

  // The server shrugged it all off: a fresh client gets a clean answer.
  BlockingClient survivor;
  SOFOS_ASSERT_OK(survivor.Connect(server.port()));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto response,
                             survivor.Roundtrip("QUERY " + sparql));
  EXPECT_TRUE(response.ok()) << response.header;
  survivor.Roundtrip("QUIT");
  server.Stop();
}

// ---- Saturation: per-request BUSY, then recovery --------------------------

TEST_F(EventLoopServerTest, OverloadShedsWithBusyThenRecovers) {
  ServerOptions options;
  options.max_sessions = 1;  // one worker: trivial to saturate
  options.io_threads = 1;
  options.enable_cache = false;  // every query pays full execution
  options.admission.slo_budget_micros = 1.0;  // any backlog is over budget
  // Leave only the live queue + EWMA as model inputs: the windowed
  // arrival rate would keep reporting flood-era load for seconds after
  // the flood ends, making the recovery half of this test timing-bound.
  options.enable_telemetry = false;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  std::string sparql = engine_.facet().ToSparql();  // the widest query
  constexpr int kClients = 6, kRequests = 20;
  std::atomic<uint64_t> busy{0}, served{0}, errors{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      BlockingClient client;
      if (!client.Connect(server.port()).ok()) {
        ++errors;
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        auto response = client.Roundtrip("QUERY " + sparql);
        if (!response.ok()) {
          ++errors;
          return;
        }
        if (response->busy()) {
          // Shed responses carry a parseable load-derived hint and leave
          // the connection usable (this same client keeps going).
          EXPECT_NE(response->header.find("retry_ms="), std::string::npos);
          ++busy;
        } else if (response->ok()) {
          ++served;
        }
      }
      client.Roundtrip("QUIT");
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(errors, 0u);
  EXPECT_GT(served, 0u);
  // 6 closed-loop clients against 1 worker with a ~zero SLO budget: the
  // queue model must have shed something.
  EXPECT_GT(busy, 0u);
  EXPECT_EQ(server.admission()->Stats().shed, busy);
  EXPECT_GE(server.metrics().rejected(), busy);

  // Recovery: with the flood gone the backlog is empty, so a plain
  // retry loop gets admitted promptly.
  BlockingClient after;
  SOFOS_ASSERT_OK(after.Connect(server.port()));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto response,
                             after.SendWithRetry("QUERY " + sparql, 10));
  EXPECT_TRUE(response.ok() && !response.busy()) << response.header;
  after.Roundtrip("QUIT");
  server.Stop();
}

TEST_F(EventLoopServerTest, SendWithRetryObeysBusyPushback) {
  ServerOptions options;
  options.max_sessions = 1;
  options.io_threads = 1;
  options.enable_cache = false;
  options.admission.slo_budget_micros = 1.0;
  options.enable_telemetry = false;  // live-queue model only (see above)
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  std::string sparql = engine_.facet().ToSparql();
  std::atomic<bool> stop{false};
  // Background pressure so the foreground client actually sees BUSY.
  std::thread pressure([&] {
    BlockingClient client;
    if (!client.Connect(server.port()).ok()) return;
    while (!stop) {
      if (!client.Roundtrip("QUERY " + sparql).ok()) break;
      // A sliver of think time so admit windows exist at all — a zero
      // think-time closed loop over one worker is busy ~always.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));
  int eventually_ok = 0;
  for (int i = 0; i < 10; ++i) {
    auto response = client.SendWithRetry("QUERY " + sparql, 20);
    if (response.ok() && response->ok()) ++eventually_ok;
  }
  stop = true;
  pressure.join();
  // Retrying with the server's own hint must beat one-shot odds: most
  // requests land even under sustained contention (one-shot sends
  // against a mostly-busy single worker would frequently shed).
  EXPECT_GE(eventually_ok, 8);
  client.Roundtrip("QUIT");
  server.Stop();
}

// ---- HTTP/JSON query adapter ----------------------------------------------

TEST_F(EventLoopServerTest, HttpQuerySharesExecutionAndCache) {
  ServerOptions options;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  std::string sparql = engine_.facet().CanonicalQuerySparql(1);

  // Line protocol first: populates the shared result cache.
  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto line, client.Roundtrip("QUERY " + sparql));
  ASSERT_TRUE(line.ok()) << line.header;
  EXPECT_NE(line.header.find("cached=0"), std::string::npos);

  // GET with the query URL-encoded: same execution path -> cache hit.
  std::string get = RawHttp(server.http_port(),
                            "GET /query?q=" + UrlEncode(sparql) +
                                " HTTP/1.0\r\n\r\n");
  EXPECT_NE(get.find("HTTP/1.0 200"), std::string::npos) << get;
  EXPECT_NE(get.find("\"cached\":true"), std::string::npos) << get;
  EXPECT_NE(get.find("\"bindings\":["), std::string::npos);

  // POST with the raw SPARQL as body: identical answer.
  std::string post = RawHttp(
      server.http_port(),
      "POST /query HTTP/1.0\r\nContent-Length: " +
          std::to_string(sparql.size()) + "\r\n\r\n" + sparql);
  EXPECT_NE(post.find("HTTP/1.0 200"), std::string::npos) << post;
  EXPECT_NE(post.find("\"cached\":true"), std::string::npos) << post;
  // Row count in the JSON matches the line-protocol header's rows=N.
  size_t rows_at = line.header.find("rows=");
  ASSERT_NE(rows_at, std::string::npos);
  std::string rows = line.header.substr(
      rows_at + 5, line.header.find(' ', rows_at) - rows_at - 5);
  EXPECT_NE(post.find("\"rows\":" + rows), std::string::npos) << post;

  // Both surfaces hit the same cache: one miss total, two hits.
  EXPECT_EQ(server.CacheStats().misses, 1u);
  EXPECT_EQ(server.CacheStats().hits, 2u);
  // The adapter is metered on its own endpoint, not as line QUERY.
  using server::Endpoint;
  EXPECT_EQ(server.metrics()
                .ForEndpoint(Endpoint::kHttpQuery)
                .requests.load(std::memory_order_relaxed),
            2u);

  // Error surfaces: missing query and malformed SPARQL.
  std::string empty = RawHttp(server.http_port(),
                              "GET /query HTTP/1.0\r\n\r\n");
  EXPECT_NE(empty.find("HTTP/1.0 400"), std::string::npos);
  std::string bad = RawHttp(server.http_port(),
                            "GET /query?q=NONSENSE HTTP/1.0\r\n\r\n");
  EXPECT_NE(bad.find("HTTP/1.0 400"), std::string::npos) << bad;
  EXPECT_NE(bad.find("\"error\":"), std::string::npos);
  // Non-query paths keep the observability contract (GET only).
  std::string put = RawHttp(server.http_port(),
                            "PUT /query HTTP/1.0\r\n\r\n");
  EXPECT_NE(put.find("HTTP/1.0 405"), std::string::npos);

  client.Roundtrip("QUIT");
  server.Stop();
}

TEST(HttpRequestParserTest, IncrementalParseAndErrors) {
  HttpRequestParser parser(1024);
  HttpRequest request;
  std::string buffer;

  // Head split across arbitrary chunk boundaries.
  buffer = "POST /query HT";
  EXPECT_EQ(parser.Consume(&buffer, &request),
            HttpRequestParser::State::kNeedMore);
  buffer += "TP/1.0\r\nContent-Length: 5\r\n\r\nhe";
  EXPECT_EQ(parser.Consume(&buffer, &request),
            HttpRequestParser::State::kNeedMore);  // body incomplete
  buffer += "llo!extra";
  ASSERT_EQ(parser.Consume(&buffer, &request),
            HttpRequestParser::State::kComplete);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path, "/query");
  EXPECT_EQ(request.body, "hello");
  EXPECT_EQ(buffer, "!extra");  // only the request's bytes were consumed

  // Bare-LF head, lowercased header names.
  buffer = "GET /stats?x=1 HTTP/1.0\nX-Custom: v\n\n";
  ASSERT_EQ(parser.Consume(&buffer, &request),
            HttpRequestParser::State::kComplete);
  EXPECT_EQ(request.params.at("x"), "1");
  EXPECT_EQ(request.headers.at("x-custom"), "v");

  // Oversized head and malformed length are terminal errors.
  HttpRequestParser small(16);
  buffer = std::string(64, 'A');
  EXPECT_EQ(small.Consume(&buffer, &request),
            HttpRequestParser::State::kError);
  HttpRequestParser strict(1024);
  buffer = "POST / HTTP/1.0\r\nContent-Length: nope\r\n\r\n";
  EXPECT_EQ(strict.Consume(&buffer, &request),
            HttpRequestParser::State::kError);
}

// ---- Result-cache hits on the loop thread ---------------------------------

TEST(EventLoopTest, InlineRepliesRunIterativelyWithoutStackGrowth) {
  // Every reply is answered on the spot; the framing loop must walk the
  // pipelined burst iteratively, so every handler call sits at the same
  // stack depth (a recursive walk would deepen by a frame per request).
  uintptr_t lowest = UINTPTR_MAX, highest = 0;  // loop thread only
  EventLoop loop(
      EventLoopOptions{},
      [&](EventLoop*, uint64_t, std::string line) {
        volatile char marker = 0;
        const uintptr_t at = reinterpret_cast<uintptr_t>(&marker);
        lowest = std::min(lowest, at);
        highest = std::max(highest, at);
        Reply reply;
        reply.bytes = line + "\nEND\n";
        return reply;
      },
      [](EventLoop*, uint64_t, HttpRequest) { return Reply{}; },
      /*on_accept=*/nullptr);
  SOFOS_ASSERT_OK(loop.Start());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  loop.AddConnection(fds[0], ConnKind::kLine);

  constexpr int kLines = 2000;
  std::string burst, expected;
  for (int i = 0; i < kLines; ++i) {
    burst += "ping " + std::to_string(i) + "\n";
    expected += "ping " + std::to_string(i) + "\nEND\n";
  }
  std::string got = RawLineExchange(fds[1], burst, kLines);
  EXPECT_TRUE(got == expected) << "got " << got.size() << " bytes, expected "
                               << expected.size();
  loop.Stop();  // joins the loop thread: its writes are visible now
  ::close(fds[1]);
  ASSERT_LE(lowest, highest);
  EXPECT_LT(highest - lowest, 256u) << "handler stack depth varied";
}

TEST_F(EventLoopServerTest, OneCacheLookupPerRequestRepliesMatchThreadMode) {
  // N distinct queries, then the same N again over the line protocol and
  // over HTTP (GET and POST alternating): 3N requests, N misses, 2N hits.
  std::vector<std::string> queries;
  for (uint32_t mask = 0;
       mask <= engine_.facet().FullMask() && queries.size() < 6; ++mask) {
    queries.push_back(engine_.facet().CanonicalQuerySparql(mask));
  }
  const size_t n = queries.size();
  ASSERT_GE(n, 2u);

  auto run = [&](IoMode mode, ResultCacheStats* stats) {
    ServerOptions options;
    options.io_mode = mode;
    SofosServer server(&engine_, options);
    EXPECT_TRUE(server.Start().ok());
    std::vector<std::string> replies;
    int fd = RawConnect(server.port());
    EXPECT_GE(fd, 0);
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& q : queries) {
        replies.push_back(
            RawLineExchange(fd, "QUERY " + OneLine(q) + "\n", 1));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const std::string& q = queries[i];
      replies.push_back(RawHttp(
          server.http_port(),
          i % 2 == 0 ? "GET /query?q=" + UrlEncode(q) + " HTTP/1.0\r\n\r\n"
                     : "POST /query HTTP/1.0\r\nContent-Length: " +
                           std::to_string(q.size()) + "\r\n\r\n" + q));
    }
    RawLineExchange(fd, "QUIT\n", 1);
    ::close(fd);
    *stats = server.CacheStats();
    server.Stop();
    return replies;
  };

  ResultCacheStats event_stats, thread_stats;
  std::vector<std::string> event = run(IoMode::kEventLoop, &event_stats);
  std::vector<std::string> thread =
      run(IoMode::kThreadPerSession, &thread_stats);
  for (const ResultCacheStats* stats : {&event_stats, &thread_stats}) {
    EXPECT_EQ(stats->hits + stats->misses, 3 * n);
    EXPECT_EQ(stats->misses, n);
  }
  ASSERT_EQ(event.size(), 3 * n);
  ASSERT_EQ(thread.size(), 3 * n);
  for (size_t i = 0; i < 3 * n; ++i) {
    const bool repeat = i >= n;
    EXPECT_EQ(MaskExecMicros(event[i]), MaskExecMicros(thread[i]))
        << "reply " << i;
    const bool cached =
        event[i].find(i < 2 * n ? "cached=1" : "\"cached\":true") !=
        std::string::npos;
    EXPECT_EQ(cached, repeat) << event[i];
  }
}

TEST_F(EventLoopServerTest, PipelinedCachedQueriesAnsweredInOrder) {
  ServerOptions options;
  options.io_threads = 1;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  std::vector<std::string> queries;
  for (uint32_t mask = 0; mask < 4; ++mask) {
    queries.push_back(OneLine(engine_.facet().CanonicalQuerySparql(
        mask & engine_.facet().FullMask())));
  }
  int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  // Warm the cache (misses, on the pool), then capture each hit reply.
  std::vector<std::string> hit_reply;
  for (const std::string& q : queries) {
    RawLineExchange(fd, "QUERY " + q + "\n", 1);
    hit_reply.push_back(RawLineExchange(fd, "QUERY " + q + "\n", 1));
    ASSERT_NE(hit_reply.back().find("cached=1"), std::string::npos)
        << hit_reply.back();
  }

  const uint64_t loop_hits = server.metrics().loop_cache_hits();
  const double tasks = PoolTasksStarted(&engine_);
  constexpr size_t kPipelined = 1200;
  std::string burst, expected;
  for (size_t i = 0; i < kPipelined; ++i) {
    burst += "QUERY " + queries[i % queries.size()] + "\n";
    expected += hit_reply[i % queries.size()];
  }
  std::string got = RawLineExchange(fd, burst, kPipelined);
  EXPECT_TRUE(got == expected) << "got " << got.size() << " bytes, expected "
                               << expected.size();
  EXPECT_EQ(server.metrics().loop_cache_hits() - loop_hits, kPipelined);
  EXPECT_EQ(PoolTasksStarted(&engine_), tasks);
  ::close(fd);
  server.Stop();
}

TEST_F(EventLoopServerTest, CachedHttpQueryRepliesThenCloses) {
  ServerOptions options;
  options.io_threads = 1;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());
  const std::string sparql = engine_.facet().CanonicalQuerySparql(1);
  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto warm, client.Roundtrip("QUERY " + sparql));
  ASSERT_TRUE(warm.ok()) << warm.header;

  const uint64_t loop_hits = server.metrics().loop_cache_hits();
  const double tasks = PoolTasksStarted(&engine_);
  // RawHttp reads until EOF, so each call returning at all shows the
  // server closed the connection after the inline reply.
  std::string get = RawHttp(server.http_port(), "GET /query?q=" +
                                                    UrlEncode(sparql) +
                                                    " HTTP/1.0\r\n\r\n");
  EXPECT_EQ(get.rfind("HTTP/1.0 200", 0), 0u) << get;
  EXPECT_NE(get.find("\"cached\":true"), std::string::npos) << get;
  std::string post = RawHttp(
      server.http_port(), "POST /query HTTP/1.0\r\nContent-Length: " +
                              std::to_string(sparql.size()) + "\r\n\r\n" +
                              sparql);
  EXPECT_EQ(post.rfind("HTTP/1.0 200", 0), 0u) << post;
  EXPECT_NE(post.find("\"cached\":true"), std::string::npos) << post;
  EXPECT_EQ(get.substr(get.find("\r\n\r\n")), post.substr(post.find("\r\n\r\n")));

  EXPECT_EQ(server.metrics().loop_cache_hits() - loop_hits, 2u);
  EXPECT_EQ(PoolTasksStarted(&engine_), tasks);
  using server::Endpoint;
  EXPECT_EQ(server.metrics()
                .ForEndpoint(Endpoint::kHttpQuery)
                .requests.load(std::memory_order_relaxed),
            2u);
  // Only the line client remains once the loop has reaped the closes.
  for (int i = 0; i < 200 && server.open_connections() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.open_connections(), 1u);
  client.Roundtrip("QUIT");
  server.Stop();
}

TEST_F(EventLoopServerTest, DisconnectMidInlineReplyLeavesLoopServing) {
  ServerOptions options;
  options.io_threads = 1;  // the victim and the survivor share one loop
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());
  const std::string sparql = OneLine(engine_.facet().ToSparql());  // widest
  BlockingClient survivor;
  SOFOS_ASSERT_OK(survivor.Connect(server.port()));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto warm, survivor.Roundtrip("QUERY " + sparql));
  ASSERT_TRUE(warm.ok()) << warm.header;

  const uint64_t loop_hits = server.metrics().loop_cache_hits();
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += "QUERY " + sparql + "\n";
  for (int round = 0; round < 4; ++round) {
    // A client that pipelines cached queries and never reads: the loop
    // answers on the spot until the socket is full, so it is mid-reply
    // when the client resets the connection.
    int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    size_t sent = 0;
    while (sent < burst.size()) {
      ssize_t n = ::send(fd, burst.data() + sent, burst.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    // Wait until the loop stops answering: the socket is full and the
    // rest of the reply bytes sit in the connection's output buffer.
    uint64_t seen = server.metrics().loop_cache_hits();
    for (int i = 0; i < 200; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const uint64_t now = server.metrics().loop_cache_hits();
      if (now == seen && now > loop_hits) break;
      seen = now;
    }
    struct linger hard {1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd);  // RST: the loop's next write or read fails
  }
  EXPECT_GT(server.metrics().loop_cache_hits(), loop_hits);

  // The loop shrugged it off: the survivor is answered, and the dead
  // connections are gone.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto after, survivor.Roundtrip("QUERY " + sparql));
  EXPECT_TRUE(after.ok()) << after.header;
  EXPECT_EQ(after.BodyText(), warm.BodyText());
  for (int i = 0; i < 200 && server.open_connections() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.open_connections(), 1u);
  survivor.Roundtrip("QUIT");
  server.Stop();
}

TEST_F(EventLoopServerTest, LoopCacheHitCounterGrowsWithoutDispatch) {
  ServerOptions options;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());
  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));
  std::vector<std::string> queries;
  for (uint32_t mask = 0; mask < 3; ++mask) {
    queries.push_back(engine_.facet().CanonicalQuerySparql(mask));
  }
  for (const std::string& q : queries) {
    SOFOS_ASSERT_OK_AND_ASSIGN(auto miss, client.Roundtrip("QUERY " + q));
    ASSERT_TRUE(miss.ok()) << miss.header;
  }

  const std::string kCounter = "sofos_server_loop_cache_hits_total";
  const double hits = RegistryValue(&engine_, kCounter);
  const double tasks = PoolTasksStarted(&engine_);
  ASSERT_GE(hits, 0.0);
  ASSERT_GE(tasks, 0.0);
  constexpr int kRepeats = 5;
  for (int r = 0; r < kRepeats; ++r) {
    for (const std::string& q : queries) {
      SOFOS_ASSERT_OK_AND_ASSIGN(auto hit, client.Roundtrip("QUERY " + q));
      ASSERT_NE(hit.header.find("cached=1"), std::string::npos) << hit.header;
    }
  }
  EXPECT_EQ(RegistryValue(&engine_, kCounter) - hits,
            static_cast<double>(kRepeats * queries.size()));
  EXPECT_EQ(PoolTasksStarted(&engine_), tasks);
  EXPECT_EQ(RegistryValue(&engine_, "sofos_server_inflight_requests"), 0.0);
  // Hits still count as QUERY requests: the queue model's arrival rate.
  using server::Endpoint;
  EXPECT_EQ(server.metrics()
                .ForEndpoint(Endpoint::kQuery)
                .requests.load(std::memory_order_relaxed),
            static_cast<uint64_t>((kRepeats + 1) * queries.size()));
  client.Roundtrip("QUIT");
  server.Stop();
}

// ---- Byte-identity across io modes ----------------------------------------

TEST_F(EventLoopServerTest, IoModesAnswerByteIdentically) {
  // The same scripted session against both io modes: every framed
  // response must match byte for byte (modulo the execution micros
  // figure in uncached QUERY headers).
  std::vector<std::string> script = {
      "QUERY " + engine_.facet().CanonicalQuerySparql(1),
      "QUERY " + engine_.facet().CanonicalQuerySparql(1),  // cache hit
      "QUERY " + engine_.facet().CanonicalQuerySparql(2),
      "EXPLAIN",
      "QUERY",          // usage error
      "NOPE",           // protocol error
      "UPDATE 1 junk",  // strict-parse error
      "HISTORY -1",     // usage error
  };

  auto run = [&](IoMode mode) {
    ServerOptions options;
    options.io_mode = mode;
    options.enable_http = false;
    SofosServer server(&engine_, options);
    EXPECT_TRUE(server.Start().ok());
    BlockingClient client;
    EXPECT_TRUE(client.Connect(server.port()).ok());
    std::vector<std::string> transcript;
    for (const std::string& line : script) {
      auto response = client.Roundtrip(line);
      EXPECT_TRUE(response.ok()) << line;
      if (!response.ok()) break;
      transcript.push_back(MaskExecMicros(response->header) + "\n" +
                           response->BodyText());
    }
    client.Roundtrip("QUIT");
    server.Stop();
    return transcript;
  };

  std::vector<std::string> event = run(IoMode::kEventLoop);
  std::vector<std::string> thread = run(IoMode::kThreadPerSession);
  ASSERT_EQ(event.size(), script.size());
  ASSERT_EQ(thread.size(), script.size());
  for (size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(event[i], thread[i]) << "request: " << script[i];
  }
}

}  // namespace
}  // namespace sofos
