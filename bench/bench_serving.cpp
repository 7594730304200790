// HTTP serving bench: the event-loop server under thousands of concurrent
// connections, with and without keep-alive.
//
// The load generator is itself a non-blocking event loop (net::Poller): one
// driver thread multiplexes all of its client connections, so the harness
// can hold 1k+ sockets open without 1k client threads.  Three phases run
// against one event-loop server fronting a fully wired EdgeNode (deployed
// model, ingested sensor data):
//
//   event_loop_close  Connection: close on every request, so each request
//                     pays connect+teardown (what every HttpClient hop pays)
//   event_loop        keep-alive reuse, one request in flight per conn
//   event_loop_pipe   keep-alive + pipelining (depth 8 per connection)
//
// Per phase: req/s and p50/p99/p999 latency, plus the server's own
// ServerStats (keep-alive reuses, peak connections) as cross-evidence.
// Writes BENCH_serving.json for CI to archive.  Two gates exit 1: full runs
// on hosts with at least 4 CPUs must clear the absolute keep-alive floor
// kKeepAliveFloorRps, and --min-keepalive-rps adds a floor for any run.
//
// Usage: bench_serving [--quick] [--out PATH] [--connections N]
//                      [--duration-s S] [--min-keepalive-rps R] [--rate R]
//   --quick               small connection count + short phases (CI smoke)
//   --connections N       concurrent client connections (default 1024)
//   --duration-s S        measured seconds per phase (default 4)
//   --min-keepalive-rps R fail (exit 1) when the keep-alive phase serves
//                         fewer than R req/s (0 = no gate)
//   --rate R              open-loop aggregate arrival rate in req/s for the
//                         keep-alive phase (0 = closed loop)
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/edge_node.h"
#include "net/http.h"
#include "net/poller.h"
#include "net/socket.h"
#include "nn/zoo.h"

namespace openei::bench {
namespace {

using common::Json;
using common::JsonObject;

/// Absolute keep-alive req/s floor for full runs on >= 4 CPUs.  It replaced
/// a ">= 5x the thread-per-connection engine" gate and is stricter than it:
/// on a 4-vCPU AVX-512 Xeon that engine served at most 6.7k req/s over six
/// runs (5x = 33k), while keep-alive serves 146k-227k req/s.
constexpr double kKeepAliveFloorRps = 50000.0;

struct Config {
  bool quick = false;
  std::string out_path = "BENCH_serving.json";
  std::size_t connections = 1024;
  double duration_s = 4.0;
  double min_keepalive_rps = 0.0;
  double open_loop_rate = 0.0;
};

/// Lift RLIMIT_NOFILE to its hard cap so thousands of sockets (client +
/// server side live in this one process) do not hit EMFILE.
void raise_fd_limit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  limit.rlim_cur = limit.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &limit);
}

// ---------------------------------------------------------------------------
// Non-blocking load generator
// ---------------------------------------------------------------------------

struct LoadOptions {
  std::size_t connections = 256;
  std::size_t pipeline = 1;       // requests in flight per connection
  bool keep_alive = true;         // false: reconnect after every response
  double duration_s = 2.0;
  double open_loop_rate = 0.0;    // aggregate req/s target; 0 = closed loop
  std::size_t driver_threads = 2;
};

struct LoadResult {
  std::size_t completed = 0;
  std::size_t errors = 0;
  double wall_s = 0.0;
  double requests_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::size_t index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[index];
}

/// One client connection driven by the poller: pending request bytes out,
/// incremental response scanning in, send-timestamps matched FIFO to
/// response completions for per-request latency.
struct ClientConn {
  net::TcpConnection socket;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  bool in_body = false;            // false = scanning for the next head
  std::size_t body_remaining = 0;
  std::deque<double> send_times;
  double next_send_s = 0.0;        // open-loop pacing

  explicit ClientConn(net::TcpConnection s) : socket(std::move(s)) {}
};

class LoadDriver {
 public:
  LoadDriver(std::uint16_t port, std::string wire_request, LoadOptions options)
      : port_(port),
        wire_request_(std::move(wire_request)),
        options_(options) {}

  LoadResult run() {
    std::size_t threads = std::max<std::size_t>(options_.driver_threads, 1);
    std::vector<std::thread> drivers;
    std::vector<LoadResult> partial(threads);
    std::vector<std::vector<double>> latencies(threads);
    std::size_t base = options_.connections / threads;
    std::size_t extra = options_.connections % threads;
    common::Stopwatch wall;
    for (std::size_t t = 0; t < threads; ++t) {
      std::size_t count = base + (t < extra ? 1 : 0);
      drivers.emplace_back([this, t, count, &partial, &latencies] {
        drive(count, partial[t], latencies[t]);
      });
    }
    for (std::thread& driver : drivers) driver.join();

    LoadResult total;
    total.wall_s = wall.elapsed_seconds();
    std::vector<double> merged;
    for (std::size_t t = 0; t < threads; ++t) {
      total.completed += partial[t].completed;
      total.errors += partial[t].errors;
      merged.insert(merged.end(), latencies[t].begin(), latencies[t].end());
    }
    std::sort(merged.begin(), merged.end());
    total.requests_per_sec =
        total.wall_s > 0.0
            ? static_cast<double>(total.completed) / total.wall_s
            : 0.0;
    total.p50_ms = percentile(merged, 0.50);
    total.p99_ms = percentile(merged, 0.99);
    total.p999_ms = percentile(merged, 0.999);
    return total;
  }

 private:
  std::unique_ptr<ClientConn> open_conn(double now_s) {
    net::TcpConnection socket = net::connect_local(port_, 5.0);
    socket.set_nonblocking(true);
    socket.set_nodelay(true);
    auto conn = std::make_unique<ClientConn>(std::move(socket));
    conn->next_send_s = now_s;
    return conn;
  }

  void queue_request(ClientConn& conn, double now_s) {
    conn.out.append(wire_request_);
    conn.send_times.push_back(now_s);
  }

  /// Returns false when the connection died (peer closed / error).
  bool flush(ClientConn& conn, net::Poller& poller) {
    while (conn.out_off < conn.out.size()) {
      std::ptrdiff_t n;
      try {
        n = conn.socket.write_nonblocking(conn.out.data() + conn.out_off,
                                          conn.out.size() - conn.out_off);
      } catch (const std::exception&) {
        return false;
      }
      if (n < 0) break;  // EAGAIN
      conn.out_off += static_cast<std::size_t>(n);
    }
    if (conn.out_off >= conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    bool want_write = conn.out_off < conn.out.size();
    poller.modify(conn.socket.native_handle(), true, want_write);
    return true;
  }

  /// Scans the input buffer for complete responses; records latency per
  /// completion.  Returns the number completed this call.
  std::size_t consume_responses(ClientConn& conn, std::vector<double>& lat_ms,
                                double now_s) {
    std::size_t completed = 0;
    while (true) {
      if (!conn.in_body) {
        auto head_end = conn.in.find("\r\n\r\n");
        if (head_end == std::string::npos) break;
        std::size_t content_length = 0;
        // The server always sends Content-Length (bench-grade scan).
        auto pos = conn.in.find("Content-Length:");
        if (pos != std::string::npos && pos < head_end) {
          content_length = std::strtoull(conn.in.c_str() + pos + 15, nullptr, 10);
        }
        conn.in.erase(0, head_end + 4);
        conn.body_remaining = content_length;
        conn.in_body = true;
      }
      if (conn.in.size() < conn.body_remaining) break;
      conn.in.erase(0, conn.body_remaining);
      conn.in_body = false;
      ++completed;
      if (!conn.send_times.empty()) {
        lat_ms.push_back((now_s - conn.send_times.front()) * 1e3);
        conn.send_times.pop_front();
      }
    }
    return completed;
  }

  void drive(std::size_t connections, LoadResult& result,
             std::vector<double>& lat_ms) {
    if (connections == 0) return;
    net::Poller poller;
    std::unordered_map<int, std::unique_ptr<ClientConn>> conns;
    common::Stopwatch clock;
    double per_conn_interval =
        options_.open_loop_rate > 0.0
            ? static_cast<double>(options_.connections) / options_.open_loop_rate
            : 0.0;

    auto arm = [&](std::unique_ptr<ClientConn> conn) {
      double now_s = clock.elapsed_seconds();
      for (std::size_t i = 0; i < options_.pipeline; ++i) {
        if (per_conn_interval > 0.0 && i > 0) break;  // open loop: 1 at a time
        queue_request(*conn, now_s);
      }
      int fd = conn->socket.native_handle();
      poller.add(fd, true, true);
      ClientConn& ref = *conn;
      conns.emplace(fd, std::move(conn));
      flush(ref, poller);
    };

    try {
      for (std::size_t i = 0; i < connections; ++i) {
        arm(open_conn(clock.elapsed_seconds()));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "load driver: connect failed: %s\n", e.what());
      ++result.errors;
    }

    std::vector<net::Poller::Event> events;
    char chunk[16384];
    while (clock.elapsed_seconds() < options_.duration_s) {
      poller.wait(events, 10);
      double now_s = clock.elapsed_seconds();
      for (const net::Poller::Event& event : events) {
        auto it = conns.find(event.fd);
        if (it == conns.end()) continue;
        ClientConn& conn = *it->second;
        bool dead = event.error;
        if (!dead && event.writable && conn.out_off < conn.out.size()) {
          dead = !flush(conn, poller);
        }
        while (!dead && event.readable) {
          std::ptrdiff_t n;
          try {
            n = conn.socket.read_nonblocking(chunk, sizeof(chunk));
          } catch (const std::exception&) {
            dead = true;
            break;
          }
          if (n < 0) break;
          if (n == 0) {  // server closed (expected for keep_alive=false)
            dead = true;
            break;
          }
          conn.in.append(chunk, static_cast<std::size_t>(n));
          std::size_t completed = consume_responses(conn, lat_ms, now_s);
          result.completed += completed;
          if (completed > 0 && options_.keep_alive) {
            for (std::size_t i = 0; i < completed; ++i) {
              if (per_conn_interval > 0.0) {
                conn.next_send_s += per_conn_interval;
                if (conn.next_send_s > now_s) break;  // paced: not due yet
              }
              queue_request(conn, now_s);
            }
            if (!flush(conn, poller)) {
              dead = true;
              break;
            }
          }
        }
        if (dead) {
          bool mid_response = !conn.send_times.empty() && options_.keep_alive;
          if (mid_response) ++result.errors;
          poller.remove(event.fd);
          conns.erase(event.fd);
          // Reconnect-per-request baseline (or replacing a dropped conn).
          if (clock.elapsed_seconds() < options_.duration_s) {
            try {
              arm(open_conn(clock.elapsed_seconds()));
            } catch (const std::exception&) {
              ++result.errors;
            }
          }
        }
      }
      // Open-loop pacing: fire requests that have come due on idle conns.
      if (per_conn_interval > 0.0) {
        for (auto& [fd, conn] : conns) {
          if (!conn->send_times.empty()) continue;
          if (conn->next_send_s <= now_s) {
            queue_request(*conn, now_s);
            conn->next_send_s = now_s + per_conn_interval;
            flush(*conn, poller);
          }
        }
      }
    }
    for (auto& [fd, conn] : conns) poller.remove(fd);
    conns.clear();
  }

  std::uint16_t port_;
  std::string wire_request_;
  LoadOptions options_;
};

// ---------------------------------------------------------------------------
// Bench phases
// ---------------------------------------------------------------------------

core::EdgeNodeConfig make_node_config() {
  core::EdgeNodeConfig config;
  config.device = hwsim::DeviceProfile{};
  config.device.name = "bench-serving";
  return config;
}

void seed_node(core::EdgeNode& node) {
  common::Rng rng(7);
  node.deploy_model("bench", "detect",
                    nn::zoo::make_mlp("serving_mlp", 8, 3, {4}, rng), 0.9);
  for (int i = 0; i < 16; ++i) {
    node.ingest("cam1", static_cast<double>(i),
                Json(JsonObject{{"frame", Json(i)}}));
  }
}

std::string wire_request(bool keep_alive) {
  std::string out = "GET /ei_data/realtime/cam1?timestamp=15 HTTP/1.1\r\n"
                    "Host: 127.0.0.1\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
  return out;
}

Json result_to_json(const LoadResult& result) {
  return Json(JsonObject{{"completed", Json(result.completed)},
                         {"errors", Json(result.errors)},
                         {"wall_s", Json(result.wall_s)},
                         {"requests_per_sec", Json(result.requests_per_sec)},
                         {"p50_ms", Json(result.p50_ms)},
                         {"p99_ms", Json(result.p99_ms)},
                         {"p999_ms", Json(result.p999_ms)}});
}

Json stats_to_json(const net::ServerStats& stats) {
  return Json(JsonObject{
      {"connections_accepted", Json(stats.connections_accepted)},
      {"requests_served", Json(stats.requests_served)},
      {"keepalive_reuses", Json(stats.keepalive_reuses)},
      {"peak_connections", Json(stats.peak_connections)},
      {"parse_errors", Json(stats.parse_errors)}});
}

void print_row(const char* name, const LoadResult& result) {
  std::printf("%18s %10.0f %9s %9s %9s %7zu\n", name, result.requests_per_sec,
              format_seconds(result.p50_ms / 1e3).c_str(),
              format_seconds(result.p99_ms / 1e3).c_str(),
              format_seconds(result.p999_ms / 1e3).c_str(), result.errors);
}

int run(const Config& config) {
  raise_fd_limit();
  banner("OpenEI serving: event loop, close-per-request vs keep-alive");
  std::size_t host_cpus = std::thread::hardware_concurrency();
  std::size_t connections = config.quick
                                ? std::min<std::size_t>(config.connections, 64)
                                : config.connections;
  double duration_s = config.quick ? std::min(config.duration_s, 1.5)
                                   : config.duration_s;
  std::printf("host CPUs: %zu   connections: %zu   phase duration: %.1fs%s\n",
              host_cpus, connections, duration_s,
              config.quick ? "  [quick]" : "");

  Json report{JsonObject{}};
  report.set("bench", "serving");
  report.set("quick", config.quick);
  report.set("host_cpus", host_cpus);
  report.set("connections", connections);
  report.set("duration_s", duration_s);
  // One driver thread per ~512 connections, bounded by the host.
  std::size_t drivers = std::clamp<std::size_t>(connections / 512 + 1, 1,
                                                std::max<std::size_t>(
                                                    host_cpus / 2, 1));
  report.set("driver_threads", drivers);

  std::printf("\n%18s %10s %9s %9s %9s %7s\n", "phase", "req/s", "p50", "p99",
              "p999", "errors");

  LoadResult close_per_request;
  LoadResult keepalive;
  LoadResult pipelined;
  Json server_stats;
  {
    core::EdgeNode node(make_node_config());
    seed_node(node);
    std::uint16_t port = node.start_server(0, net::HttpServer::Options{});
    LoadOptions load;
    load.connections = connections;
    load.duration_s = duration_s;
    load.driver_threads = drivers;

    // Phase 1: Connection: close, reconnect after every response.
    load.pipeline = 1;
    load.keep_alive = false;
    close_per_request = LoadDriver(port, wire_request(false), load).run();
    print_row("event_loop_close", close_per_request);

    // Phase 2: keep-alive, one request in flight per connection.
    load.keep_alive = true;
    load.open_loop_rate = config.open_loop_rate;
    keepalive = LoadDriver(port, wire_request(true), load).run();
    print_row("event_loop", keepalive);

    // Phase 3: keep-alive + pipelining.
    load.pipeline = 8;
    load.open_loop_rate = 0.0;
    pipelined = LoadDriver(port, wire_request(true), load).run();
    print_row("event_loop_pipe", pipelined);
    server_stats = stats_to_json(node.server_stats());
    node.stop_server();
  }

  // On a 1-2 core CI runner the load driver and the server serialize behind
  // the same CPUs, so the absolute floor only applies where parallelism
  // exists.
  bool floor_gated = host_cpus >= 4 && !config.quick;
  double keepalive_over_close =
      close_per_request.requests_per_sec > 0.0
          ? keepalive.requests_per_sec / close_per_request.requests_per_sec
          : 0.0;
  section("summary");
  std::printf("keep-alive vs close-per-request: %.1fx req/s\n",
              keepalive_over_close);
  std::printf("keep-alive floor: %.0f req/s%s\n", kKeepAliveFloorRps,
              floor_gated ? "" : "  (informational: quick run or <4 cores)");

  report.set("event_loop_close", result_to_json(close_per_request));
  report.set("event_loop_keepalive", result_to_json(keepalive));
  report.set("event_loop_pipelined", result_to_json(pipelined));
  report.set("server_stats", std::move(server_stats));
  report.set("keepalive_over_close", keepalive_over_close);
  report.set("keepalive_floor_rps", kKeepAliveFloorRps);
  report.set("min_keepalive_rps", config.min_keepalive_rps);
  set_host_info(report, floor_gated);

  std::ofstream out(config.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
    return 1;
  }
  out << report.pretty() << "\n";
  std::printf("wrote %s\n", config.out_path.c_str());

  if (config.min_keepalive_rps > 0.0 &&
      keepalive.requests_per_sec < config.min_keepalive_rps) {
    std::fprintf(stderr,
                 "FAIL: keep-alive phase served %.0f req/s, below the %.0f "
                 "req/s floor\n",
                 keepalive.requests_per_sec, config.min_keepalive_rps);
    return 1;
  }
  if (floor_gated && keepalive.requests_per_sec < kKeepAliveFloorRps) {
    std::fprintf(stderr,
                 "FAIL: keep-alive phase served %.0f req/s, below the "
                 "absolute %.0f req/s floor (multi-core, full run)\n",
                 keepalive.requests_per_sec, kKeepAliveFloorRps);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace openei::bench

int main(int argc, char** argv) {
  openei::common::set_log_level(openei::common::LogLevel::kError);
  openei::bench::Config config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      config.out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      config.connections = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--duration-s") == 0 && i + 1 < argc) {
      config.duration_s = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-keepalive-rps") == 0 && i + 1 < argc) {
      config.min_keepalive_rps = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      config.open_loop_rate = std::stod(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_serving [--quick] [--out PATH] "
                   "[--connections N] [--duration-s S] "
                   "[--min-keepalive-rps R] [--rate R]\n");
      return 2;
    }
  }
  return openei::bench::run(config);
}
