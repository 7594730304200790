// The event-loop serving suite (`ctest -L serving`): keep-alive reuse,
// pipelined requests, close-per-request framing, slow-loris reaping,
// per-request read deadlines, graceful stop() drain, fault injection on the
// event loop, the concurrent-connection cap, status-line reason phrases,
// and the /ei_status "serving" block.
//
// Tests talk raw HTTP over TcpConnection where keep-alive/pipelining
// matters (HttpClient is deliberately one-shot Connection: close).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "common/json.h"
#include "core/edge_node.h"
#include "net/faults.h"
#include "net/http.h"
#include "net/socket.h"

namespace openei::net {
namespace {

using namespace std::chrono_literals;

HttpResponse echo_handler(const HttpRequest& request) {
  HttpResponse response;
  response.body = R"({"path":")" + request.path + R"("})";
  return response;
}

std::string keepalive_get(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Connection: keep-alive\r\n\r\n";
}

/// Reads exactly `count` responses off a keep-alive connection, returning
/// each body.  Fails the test (via exception) on malformed framing.
std::vector<std::string> read_responses(TcpConnection& connection,
                                        std::size_t count) {
  std::vector<std::string> bodies;
  std::string buffer;
  char chunk[4096];
  while (bodies.size() < count) {
    auto head_end = buffer.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      std::size_t n = connection.read_some(chunk, sizeof(chunk));
      if (n == 0) throw IoError("peer closed mid-response-stream");
      buffer.append(chunk, n);
      continue;
    }
    std::string head = buffer.substr(0, head_end);
    auto pos = head.find("Content-Length:");
    if (pos == std::string::npos) {
      throw IoError("response head missing Content-Length: " + head);
    }
    std::size_t body_len = std::stoul(head.substr(pos + 15));
    while (buffer.size() < head_end + 4 + body_len) {
      std::size_t n = connection.read_some(chunk, sizeof(chunk));
      if (n == 0) throw IoError("peer closed mid-body");
      buffer.append(chunk, n);
    }
    bodies.push_back(buffer.substr(head_end + 4, body_len));
    buffer.erase(0, head_end + 4 + body_len);
  }
  return bodies;
}

// NOLINTNEXTLINE(readability-function-cognitive-complexity)
TEST(ServingTest, KeepAliveServesManyRequestsOnOneConnection) {
  HttpServer server(0, echo_handler);
  TcpConnection connection = connect_local(server.port(), 5.0);
  for (int i = 0; i < 5; ++i) {
    connection.write_all(keepalive_get("/req" + std::to_string(i)));
    std::vector<std::string> bodies = read_responses(connection, 1);
    ASSERT_EQ(bodies.size(), 1U);
    EXPECT_NE(bodies[0].find("/req" + std::to_string(i)), std::string::npos);
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1U);
  EXPECT_EQ(stats.requests_served, 5U);
  EXPECT_EQ(stats.keepalive_reuses, 4U);
  server.stop();
}

TEST(ServingTest, PipelinedRequestsAnswerInOrder) {
  HttpServer server(0, echo_handler);
  TcpConnection connection = connect_local(server.port(), 5.0);
  std::string burst;
  for (int i = 0; i < 8; ++i) burst += keepalive_get("/p" + std::to_string(i));
  connection.write_all(burst);  // all eight in one write
  std::vector<std::string> bodies = read_responses(connection, 8);
  ASSERT_EQ(bodies.size(), 8U);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(bodies[i].find("/p" + std::to_string(i)), std::string::npos)
        << "response " << i << " out of order: " << bodies[i];
  }
  server.stop();
}

TEST(ServingTest, RequestSplitAcrossManyTinyWritesStillParses) {
  HttpServer server(0, echo_handler);
  TcpConnection connection = connect_local(server.port(), 5.0);
  std::string wire = keepalive_get("/fragmented");
  for (char byte : wire) {  // one byte per segment — worst-case coalescing
    connection.write_all(&byte, 1);
  }
  std::vector<std::string> bodies = read_responses(connection, 1);
  EXPECT_NE(bodies[0].find("/fragmented"), std::string::npos);
  server.stop();
}

TEST(ServingTest, Http10WithoutKeepAliveHeaderClosesAfterResponse) {
  // Close-per-request framing: the server answers exactly one request, then
  // closes, and drops anything pipelined after the closing request.
  struct Case {
    const char* name;
    std::string wire;
  };
  const std::vector<Case> cases = {
      {"http10_default_close", "GET /old HTTP/1.0\r\nHost: x\r\n\r\n"},
      {"http11_close_then_pipelined",
       "GET /old HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n" +
           keepalive_get("/dropped")},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    HttpServer server(0, echo_handler);
    TcpConnection connection = connect_local(server.port(), 5.0);
    connection.write_all(c.wire);  // one write
    std::vector<std::string> bodies = read_responses(connection, 1);
    EXPECT_NE(bodies[0].find("/old"), std::string::npos);
    connection.set_read_timeout(3.0);
    char byte;
    EXPECT_EQ(connection.read_some(&byte, 1), 0U);  // orderly close, no 2nd
    EXPECT_EQ(server.stats().requests_served, 1U);
    server.stop();
  }
}

TEST(ServingTest, StatusLinesCarryTheirReasonPhrase) {
  // The handler answers with the status named in the path; the raw status
  // line must name it (a missing entry used to go out as "429 Unknown").
  auto status_handler = [](const HttpRequest& request) {
    return HttpResponse::json(std::stoi(request.path.substr(1)), "{}");
  };
  HttpServer server(0, status_handler);
  const std::vector<std::pair<int, std::string>> expected = {
      {200, "OK"},          {201, "Created"},
      {400, "Bad Request"}, {404, "Not Found"},
      {405, "Method Not Allowed"},
      {409, "Conflict"},    {429, "Too Many Requests"},
      {500, "Internal Server Error"},
      {503, "Service Unavailable"}};
  TcpConnection connection = connect_local(server.port(), 5.0);
  std::string burst;
  for (const auto& [status, reason] : expected) {
    burst += keepalive_get("/" + std::to_string(status));
  }
  connection.write_all(burst);
  std::string wire;
  char chunk[4096];
  std::size_t lines = 0;
  while (lines < expected.size()) {
    std::size_t n = connection.read_some(chunk, sizeof(chunk));
    ASSERT_GT(n, 0U) << "peer closed after " << lines << " responses";
    wire.append(chunk, n);
    lines = 0;
    for (auto pos = wire.find("HTTP/1.1 "); pos != std::string::npos;
         pos = wire.find("HTTP/1.1 ", pos + 1)) {
      ++lines;
    }
  }
  for (const auto& [status, reason] : expected) {
    std::string line =
        "HTTP/1.1 " + std::to_string(status) + " " + reason + "\r\n";
    EXPECT_NE(wire.find(line), std::string::npos) << line;
  }
  EXPECT_EQ(wire.find("Unknown"), std::string::npos);
  server.stop();
}

TEST(ServingTest, IdleKeepAliveConnectionIsReaped) {
  HttpServer::Options options;
  options.idle_timeout_s = 0.15;
  HttpServer server(0, echo_handler, options);
  TcpConnection connection = connect_local(server.port(), 5.0);
  // One served request, then silence: the idle reaper must close the conn.
  connection.write_all(keepalive_get("/warm"));
  read_responses(connection, 1);
  connection.set_read_timeout(3.0);
  char byte;
  EXPECT_EQ(connection.read_some(&byte, 1), 0U);
  EXPECT_GE(server.stats().idle_closed, 1U);
  server.stop();
}

TEST(ServingTest, SlowLorisMidRequestHitsReadDeadline) {
  HttpServer::Options options;
  options.read_timeout_s = 0.15;
  options.idle_timeout_s = 30.0;  // only the per-request deadline may fire
  HttpServer server(0, echo_handler, options);
  TcpConnection connection = connect_local(server.port(), 5.0);
  connection.write_all(std::string("GET /loris HTTP/1.1\r\nHos"));  // stall
  connection.set_read_timeout(3.0);
  char byte;
  EXPECT_EQ(connection.read_some(&byte, 1), 0U);
  EXPECT_GE(server.stats().deadline_closed, 1U);
  server.stop();
}

TEST(ServingTest, StopWithMidRequestAndIdleConnectionsReturnsPromptly) {
  auto server = std::make_unique<HttpServer>(0, echo_handler);
  TcpConnection idle = connect_local(server->port(), 5.0);
  TcpConnection mid = connect_local(server->port(), 5.0);
  mid.write_all(std::string("GET /never HTTP/1.1\r\nH"));  // forever partial
  TcpConnection served = connect_local(server->port(), 5.0);
  served.write_all(keepalive_get("/served"));
  read_responses(served, 1);  // response flushed before the stop
  std::this_thread::sleep_for(50ms);

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    server->stop();
    stopped.store(true);
  });
  for (int i = 0; i < 100 && !stopped.load(); ++i) {
    std::this_thread::sleep_for(50ms);
  }
  EXPECT_TRUE(stopped.load()) << "stop() hung on open connections";
  stopper.join();
  server.reset();
}

TEST(ServingTest, EventLoopMaxConnectionsAnswers503Overflow) {
  HttpServer::Options options;
  options.max_connections = 3;
  HttpServer server(0, echo_handler, options);
  std::vector<TcpConnection> held;
  for (int i = 0; i < 3; ++i) {
    held.push_back(connect_local(server.port(), 5.0));
    held.back().write_all(keepalive_get("/hold" + std::to_string(i)));
    read_responses(held.back(), 1);  // proves the conn is registered + alive
  }
  // The 4th connection must be rejected with a 503 and closed.
  HttpClient overflow(server.port(), 5.0);
  HttpResponse response = overflow.get("/overflow");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("capacity"), std::string::npos);
  EXPECT_GE(server.stats().connections_rejected, 1U);
  // Draining one held connection frees a slot.
  held.pop_back();
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(HttpClient(server.port(), 5.0).get("/after").status, 200);
  server.stop();
}

TEST(ServingTest, FaultPlanInjectsOnTheEventLoop) {
  auto plan = std::make_shared<FaultPlan>();
  plan->add(FaultRule{.path_prefix = "/burst",
                      .kind = FaultKind::kErrorBurst,
                      .status = 503});
  plan->add(FaultRule{.path_prefix = "/reset",
                      .kind = FaultKind::kResetMidStream});
  plan->add(FaultRule{.path_prefix = "/slow",
                      .kind = FaultKind::kInjectDelay,
                      .delay_s = 0.6});
  HttpServer::Options options;
  options.faults = plan;
  HttpServer server(0, echo_handler, options);

  EXPECT_EQ(HttpClient(server.port(), 5.0).get("/burst").status, 503);
  EXPECT_THROW(HttpClient(server.port(), 5.0).get("/reset"), IoError);
  // The injected delay rides a blocking offload worker, not the loop: a
  // parallel healthy request must not queue behind it.
  common::Stopwatch wall;
  std::thread slow([&] {
    EXPECT_EQ(HttpClient(server.port(), 5.0).get("/slow").status, 200);
  });
  EXPECT_EQ(HttpClient(server.port(), 5.0).get("/ok").status, 200);
  double healthy_s = wall.elapsed_seconds();
  slow.join();
  // The threshold leaves sanitizer headroom: a healthy roundtrip costs well
  // under 0.45s even under TSan, while queuing behind the fault forces 0.6s+.
  EXPECT_LT(healthy_s, 0.45) << "healthy request queued behind injected delay";
  EXPECT_GE(wall.elapsed_seconds(), 0.6);
  server.stop();
}

TEST(ServingTest, EiStatusReportsServingBlock) {
  core::EdgeNodeConfig config;
  core::EdgeNode node(config);
  std::uint16_t port = node.start_server(0);
  HttpClient client(port, 5.0);
  EXPECT_EQ(client.get("/ei_status").status, 200);  // warm the counters
  HttpResponse status = client.get("/ei_status");
  ASSERT_EQ(status.status, 200);
  common::Json doc = common::Json::parse(status.body);
  const common::Json& serving = doc.at("serving");
  EXPECT_GE(serving.at("connections_accepted").as_int(), 1);
  EXPECT_GE(serving.at("requests_served").as_int(), 1);
  node.stop_server();
  // Stopped server: the block disappears instead of dangling.
  net::HttpResponse direct = node.call("GET", "/ei_status");
  EXPECT_EQ(direct.body.find("\"serving\""), std::string::npos);
}

TEST(ServingTest, ManyConcurrentKeepAliveClientsAllServe) {
  HttpServer server(0, echo_handler);
  constexpr int kClients = 16;
  constexpr int kRequestsEach = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        TcpConnection connection = connect_local(server.port(), 5.0);
        for (int i = 0; i < kRequestsEach; ++i) {
          connection.write_all(
              keepalive_get("/c" + std::to_string(c) + "/r" + std::to_string(i)));
          std::vector<std::string> bodies = read_responses(connection, 1);
          if (bodies.size() != 1 ||
              bodies[0].find("/c" + std::to_string(c)) == std::string::npos) {
            ++failures;
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_served,
            static_cast<std::uint64_t>(kClients) * kRequestsEach);
  EXPECT_EQ(stats.keepalive_reuses,
            static_cast<std::uint64_t>(kClients) * (kRequestsEach - 1));
  server.stop();
}

}  // namespace
}  // namespace openei::net
