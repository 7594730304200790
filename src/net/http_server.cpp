// The HttpServer event loop.
//
// A fixed pool of non-blocking loop threads, each owning a Poller
// (epoll/poll) and a shard of the connections.  A blocking accept thread
// round-robins new connections onto loops through a small inbox + wake
// pipe.  Per connection the loop keeps an incremental RequestParser
// (keep-alive + pipelining) and one output buffer that responses serialize
// into directly; writes that hit EAGAIN re-arm the poller for writability
// (backpressure) instead of blocking the loop.
//
// Routing contract: FaultPlan consulted once per parsed request,
// ParseError → 400, NotFound → 404, anything else → 500, graceful drain on
// stop().
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fcntl.h>
#include <mutex>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "common/logging.h"
#include "net/http.h"
#include "net/poller.h"
#include "net/request_parser.h"

namespace openei::net {

namespace {

constexpr std::size_t kReadChunk = 16384;
/// Per-connection output high-water mark: a peer that pipelines requests
/// without draining responses gets its reads paused, not unbounded memory.
constexpr std::size_t kOutputHighWater = 1U << 20;

const char* reason_for(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

/// Serializes status line + headers + body straight into `out` — the
/// per-connection output buffer on the event loop — with no intermediate
/// wire string.
void append_response(std::string& out, const HttpResponse& response,
                     bool keep_alive) {
  char number[32];
  out.append("HTTP/1.1 ");
  out.append(number, static_cast<std::size_t>(
                         std::snprintf(number, sizeof(number), "%d ",
                                       response.status)));
  out.append(reason_for(response.status));
  out.append("\r\nContent-Type: ");
  out.append(response.content_type);
  out.append("\r\nContent-Length: ");
  out.append(number, static_cast<std::size_t>(
                         std::snprintf(number, sizeof(number), "%zu",
                                       response.body.size())));
  out.append(keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                        : "\r\nConnection: close\r\n\r\n");
  out.append(response.body);
}

/// Exception-to-status mapping for handler errors.
HttpResponse run_handler(const HttpServer::Handler& handler,
                         const HttpRequest& request) {
  try {
    return handler(request);
  } catch (const ParseError& e) {
    return HttpResponse::json(400,
                              std::string(R"({"error":")") + e.what() + "\"}");
  } catch (const NotFound& e) {
    return HttpResponse::json(404,
                              std::string(R"({"error":")") + e.what() + "\"}");
  } catch (const std::exception& e) {
    return HttpResponse::json(500,
                              std::string(R"({"error":")") + e.what() + "\"}");
  }
}

/// Shared monotonic counters; snapshotted into ServerStats.
struct StatCounters {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> reuses{0};
  std::atomic<std::uint64_t> idle_closed{0};
  std::atomic<std::uint64_t> deadline_closed{0};
  std::atomic<std::uint64_t> parse_errors{0};
  std::atomic<std::uint64_t> open{0};
  std::atomic<std::uint64_t> peak{0};

  void bump_peak(std::uint64_t current) {
    std::uint64_t prev = peak.load(std::memory_order_relaxed);
    while (current > prev &&
           !peak.compare_exchange_weak(prev, current,
                                       std::memory_order_relaxed)) {
    }
  }

  ServerStats snapshot() const {
    ServerStats out;
    out.connections_accepted = accepted.load(std::memory_order_relaxed);
    out.connections_rejected = rejected.load(std::memory_order_relaxed);
    out.requests_served = served.load(std::memory_order_relaxed);
    out.keepalive_reuses = reuses.load(std::memory_order_relaxed);
    out.idle_closed = idle_closed.load(std::memory_order_relaxed);
    out.deadline_closed = deadline_closed.load(std::memory_order_relaxed);
    out.parse_errors = parse_errors.load(std::memory_order_relaxed);
    out.open_connections = open.load(std::memory_order_relaxed);
    out.peak_connections = peak.load(std::memory_order_relaxed);
    return out;
  }
};

double now_seconds() {
  return static_cast<double>(common::wall_now_ns()) * 1e-9;
}

/// Blocking write of `response` under a slow fault (dribbled chunks or a
/// single injected delay), then an orderly close.  Runs on the event loop's
/// fault-offload workers, never on a loop thread.
void write_slow_faulted(TcpConnection& connection, const HttpResponse& response,
                        const FaultPlan::Decision& decision) {
  std::string wire;
  append_response(wire, response, /*keep_alive=*/false);
  if (decision.kind == FaultKind::kSlowRead) {
    constexpr std::size_t kChunk = 16;
    std::size_t chunks = (wire.size() + kChunk - 1) / kChunk;
    auto pause = std::chrono::duration<double>(
        decision.delay_s / static_cast<double>(std::max<std::size_t>(chunks, 1)));
    for (std::size_t offset = 0; offset < wire.size(); offset += kChunk) {
      std::this_thread::sleep_for(pause);
      connection.write_all(wire.data() + offset,
                           std::min(kChunk, wire.size() - offset));
    }
  } else {  // kInjectDelay
    std::this_thread::sleep_for(std::chrono::duration<double>(decision.delay_s));
    connection.write_all(wire);
  }
}

std::size_t auto_loop_threads() {
  unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw / 2, 1, 4);
}

}  // namespace

class HttpServer::EventLoop {
 public:
  EventLoop(std::uint16_t port, HttpServer::Handler handler,
            HttpServer::Options options)
      : listener_(port),
        handler_(std::move(handler)),
        options_(std::move(options)) {
    append_response(reject_wire_,
                    HttpResponse::json(
                        503, R"({"error":"server at connection capacity"})"),
                    /*keep_alive=*/false);
    double min_deadline =
        std::min(options_.read_timeout_s, options_.idle_timeout_s);
    tick_ms_ = std::clamp(static_cast<int>(min_deadline * 1e3 / 4.0), 5, 250);
    std::size_t n = options_.event_loop_threads > 0
                        ? options_.event_loop_threads
                        : auto_loop_threads();
    loops_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      loops_.push_back(std::make_unique<Loop>());
      Loop& loop = *loops_.back();
      loop.poller.add(loop.wake_read_fd(), /*want_read=*/true,
                      /*want_write=*/false);
    }
    for (auto& loop : loops_) {
      loop->thread = std::thread([this, loop = loop.get()] { run_loop(*loop); });
    }
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~EventLoop() { stop(); }

  std::uint16_t port() const { return listener_.port(); }

  ServerStats stats() const { return stats_.snapshot(); }

  void stop() {
    if (stopped_.exchange(true)) return;
    running_.store(false, std::memory_order_release);
    listener_.shutdown();
    if (accept_thread_.joinable()) accept_thread_.join();
    for (auto& loop : loops_) loop->wake();
    for (auto& loop : loops_) {
      if (loop->thread.joinable()) loop->thread.join();
    }
    // Fault-offload workers (slow-read dribbles, injected delays) drain last.
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drained_.wait(lock, [this] { return blocking_workers_ == 0; });
  }

 private:
  struct Conn {
    TcpConnection socket;
    RequestParser parser;
    std::string out;             // pending serialized responses
    std::size_t out_off = 0;     // bytes of `out` already written
    bool want_write = false;     // EPOLLOUT armed
    bool read_paused = false;    // output high-water backpressure
    bool close_after_flush = false;
    bool reset_after_flush = false;
    double last_activity_s = 0.0;
    double request_start_s = 0.0;  // 0 = no request mid-flight
    std::uint64_t served = 0;

    Conn(TcpConnection s, double now)
        : socket(std::move(s)), last_activity_s(now) {}
  };

  struct Loop {
    Poller poller;
    std::thread thread;
    std::mutex inbox_mutex;
    std::vector<TcpConnection> inbox;  // fresh connections from accept
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::vector<HttpRequest> scratch;  // parsed-request staging
    int wake_fds[2] = {-1, -1};        // self-pipe: [read, write]

    Loop() {
      OPENEI_CHECK(::pipe(wake_fds) == 0, "wake pipe creation failed");
      for (int fd : wake_fds) {
        int flags = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      }
    }
    ~Loop() {
      for (int fd : wake_fds) {
        if (fd >= 0) ::close(fd);
      }
    }
    int wake_read_fd() const { return wake_fds[0]; }
    void wake() {
      char byte = 1;
      [[maybe_unused]] ssize_t n = ::write(wake_fds[1], &byte, 1);
    }
    void drain_wake() {
      char sink[64];
      while (::read(wake_fds[0], sink, sizeof(sink)) > 0) {
      }
    }
  };

  void accept_loop() {
    std::size_t next_loop = 0;
    while (running_.load(std::memory_order_acquire)) {
      TcpConnection connection = [&]() -> TcpConnection {
        try {
          return listener_.accept_connection();
        } catch (const IoError&) {
          return TcpConnection(FdHandle{});  // listener shut down
        }
      }();
      if (!connection.valid()) break;
      if (!running_.load(std::memory_order_acquire)) break;
      if (stats_.open.load(std::memory_order_relaxed) >=
          options_.max_connections) {
        stats_.rejected.fetch_add(1, std::memory_order_relaxed);
        try {
          connection.set_write_timeout(0.5);
          connection.write_all(reject_wire_);
          // Lingering close: the client's request bytes are still unread, and
          // closing with data in the receive queue turns the close into an
          // RST that can discard the 503 in flight.  Half-close the write
          // side, drain what the peer sent, then let the destructor send an
          // orderly FIN.
          ::shutdown(connection.native_handle(), SHUT_WR);
          connection.set_read_timeout(0.5);
          char sink[512];
          while (connection.read_some(sink, sizeof(sink)) > 0) {
          }
        } catch (const std::exception&) {
        }
        continue;  // destructor closes
      }
      stats_.accepted.fetch_add(1, std::memory_order_relaxed);
      stats_.bump_peak(stats_.open.fetch_add(1, std::memory_order_relaxed) + 1);
      try {
        connection.set_nonblocking(true);
        connection.set_nodelay(true);
      } catch (const std::exception&) {
        stats_.open.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      Loop& loop = *loops_[next_loop++ % loops_.size()];
      {
        std::lock_guard<std::mutex> lock(loop.inbox_mutex);
        loop.inbox.push_back(std::move(connection));
      }
      loop.wake();
    }
  }

  void drain_inbox(Loop& loop) {
    std::vector<TcpConnection> batch;
    {
      std::lock_guard<std::mutex> lock(loop.inbox_mutex);
      batch.swap(loop.inbox);
    }
    double now = now_seconds();
    for (TcpConnection& socket : batch) {
      int fd = socket.native_handle();
      loop.poller.add(fd, /*want_read=*/true, /*want_write=*/false);
      loop.conns.emplace(fd, std::make_unique<Conn>(std::move(socket), now));
      // A request may already be buffered in the kernel (edge-triggered
      // registration only fires on *new* arrivals), so read eagerly once.
      auto it = loop.conns.find(fd);
      on_readable(loop, *it->second);
    }
  }

  void close_conn(Loop& loop, int fd) {
    auto it = loop.conns.find(fd);
    if (it == loop.conns.end()) return;
    loop.poller.remove(fd);
    loop.conns.erase(it);  // TcpConnection destructor closes the fd
    stats_.open.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Flushes the pending output buffer.  Returns false when the connection
  /// was closed (flush complete + close requested, or a hard write error).
  bool flush(Loop& loop, Conn& conn) {
    int fd = conn.socket.native_handle();
    while (conn.out_off < conn.out.size()) {
      std::ptrdiff_t n;
      try {
        n = conn.socket.write_nonblocking(conn.out.data() + conn.out_off,
                                          conn.out.size() - conn.out_off);
      } catch (const IoError&) {
        close_conn(loop, fd);
        return false;
      }
      if (n < 0) {  // EAGAIN: peer not draining — arm writability, come back
        if (!conn.want_write) {
          conn.want_write = true;
          loop.poller.modify(fd, /*want_read=*/true, /*want_write=*/true);
        }
        return true;
      }
      conn.out_off += static_cast<std::size_t>(n);
    }
    conn.out.clear();
    conn.out_off = 0;
    if (conn.want_write) {
      conn.want_write = false;
      loop.poller.modify(fd, /*want_read=*/true, /*want_write=*/false);
    }
    if (conn.reset_after_flush) {
      conn.socket.reset();
      close_conn(loop, fd);
      return false;
    }
    if (conn.close_after_flush) {
      close_conn(loop, fd);
      return false;
    }
    return true;
  }

  /// Serves one parsed request.  Returns false when the connection was
  /// consumed (closed, reset, or handed to a fault-offload worker).
  bool dispatch(Loop& loop, Conn& conn, const HttpRequest& request) {
    int fd = conn.socket.native_handle();
    FaultPlan::Decision decision;
    if (options_.faults) decision = options_.faults->next(request.path);
    if (decision.kind == FaultKind::kRefuseConnection) {
      close_conn(loop, fd);  // dropped before a single response byte
      return false;
    }
    HttpResponse response =
        decision.kind == FaultKind::kErrorBurst
            ? HttpResponse::json(decision.status,
                                 R"({"error":"injected fault: error burst"})")
            : run_handler(handler_, request);
    switch (decision.kind) {
      case FaultKind::kResetMidStream:
        // A few bytes of the status line escape, then a hard RST.
        conn.out.append("HTTP/1.1 ");
        conn.reset_after_flush = true;
        flush(loop, conn);
        return false;
      case FaultKind::kTruncateResponse: {
        append_response(conn.out, response, /*keep_alive=*/false);
        // Content-Length promises more than is sent: drop half the body.
        conn.out.resize(conn.out.size() -
                        (response.body.size() - response.body.size() / 2));
        conn.close_after_flush = true;
        flush(loop, conn);
        return false;
      }
      case FaultKind::kSlowRead:
      case FaultKind::kInjectDelay:
        // Sleeping on a loop thread would stall every connection it owns;
        // slow faults move to a short-lived blocking worker instead.
        offload_faulted(loop, conn, std::move(response), decision);
        return false;
      default:
        break;
    }
    bool keep_alive = wants_keep_alive(request);
    stats_.served.fetch_add(1, std::memory_order_relaxed);
    if (++conn.served > 1) {
      stats_.reuses.fetch_add(1, std::memory_order_relaxed);
    }
    append_response(conn.out, response, keep_alive);
    if (!keep_alive) conn.close_after_flush = true;
    return true;
  }

  void offload_faulted(Loop& loop, Conn& conn, HttpResponse response,
                       FaultPlan::Decision decision) {
    int fd = conn.socket.native_handle();
    loop.poller.remove(fd);
    TcpConnection socket = std::move(conn.socket);
    std::string pending = conn.out.substr(conn.out_off);
    loop.conns.erase(fd);
    {
      std::lock_guard<std::mutex> lock(drain_mutex_);
      ++blocking_workers_;
    }
    std::thread([this, socket = std::move(socket),
                 pending = std::move(pending), response = std::move(response),
                 decision]() mutable {
      try {
        socket.set_nonblocking(false);
        socket.set_write_timeout(10.0);
        if (!pending.empty()) socket.write_all(pending);
        write_slow_faulted(socket, response, decision);
        stats_.served.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        common::log_warn("faulted-response worker error: ", e.what());
      }
      stats_.open.fetch_sub(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(drain_mutex_);
      if (--blocking_workers_ == 0) drained_.notify_all();
    }).detach();
  }

  void on_readable(Loop& loop, Conn& conn) {
    if (conn.read_paused) return;
    int fd = conn.socket.native_handle();
    char chunk[kReadChunk];
    while (true) {
      std::ptrdiff_t n;
      try {
        n = conn.socket.read_nonblocking(chunk, sizeof(chunk));
      } catch (const IoError&) {
        close_conn(loop, fd);
        return;
      }
      if (n < 0) break;    // EAGAIN: drained
      if (n == 0) {        // peer closed (possibly mid-request)
        close_conn(loop, fd);
        return;
      }
      double now = now_seconds();
      conn.last_activity_s = now;
      if (conn.request_start_s == 0.0) conn.request_start_s = now;
      loop.scratch.clear();
      try {
        conn.parser.feed(chunk, static_cast<std::size_t>(n), loop.scratch);
      } catch (const ParseError& e) {
        // Malformed framing: the peer may still be listening, so answer 400
        // before closing (framing is unrecoverable).
        stats_.parse_errors.fetch_add(1, std::memory_order_relaxed);
        append_response(conn.out,
                        HttpResponse::json(400, std::string(R"({"error":")") +
                                                    e.what() + "\"}"),
                        /*keep_alive=*/false);
        conn.close_after_flush = true;
        flush(loop, conn);
        return;
      }
      for (const HttpRequest& request : loop.scratch) {
        if (!dispatch(loop, conn, request)) return;  // connection consumed
        if (conn.close_after_flush) break;  // drop pipelined-after-close
      }
      if (!conn.parser.mid_request()) conn.request_start_s = 0.0;
      if (conn.out.size() - conn.out_off > kOutputHighWater) {
        // Peer is pipelining without draining: pause reads until the
        // writable path empties the buffer.
        conn.read_paused = true;
        flush(loop, conn);
        return;
      }
    }
    flush(loop, conn);
  }

  void sweep(Loop& loop, double now) {
    for (auto it = loop.conns.begin(); it != loop.conns.end();) {
      Conn& conn = *it->second;
      bool kill = false;
      if (conn.request_start_s != 0.0 &&
          now - conn.request_start_s > options_.read_timeout_s) {
        stats_.deadline_closed.fetch_add(1, std::memory_order_relaxed);
        kill = true;  // slow-loris mid-request: read deadline
      } else if (conn.request_start_s == 0.0 && conn.out_off >= conn.out.size() &&
                 now - conn.last_activity_s > options_.idle_timeout_s) {
        stats_.idle_closed.fetch_add(1, std::memory_order_relaxed);
        kill = true;  // idle keep-alive reaping
      }
      if (kill) {
        loop.poller.remove(it->first);
        it = loop.conns.erase(it);
        stats_.open.fetch_sub(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }

  void run_loop(Loop& loop) {
    std::vector<Poller::Event> events;
    double drain_deadline = 0.0;
    while (true) {
      bool stopping = !running_.load(std::memory_order_acquire);
      loop.poller.wait(events, stopping ? 5 : tick_ms_);
      drain_inbox(loop);
      for (const Poller::Event& event : events) {
        if (event.fd == loop.wake_read_fd()) {
          loop.drain_wake();
          continue;
        }
        auto it = loop.conns.find(event.fd);
        if (it == loop.conns.end()) continue;
        Conn& conn = *it->second;
        if (event.error) {
          close_conn(loop, event.fd);
          continue;
        }
        if (event.writable && conn.want_write) {
          if (!flush(loop, conn)) continue;
          if (conn.out.empty() && conn.read_paused) {
            conn.read_paused = false;
            on_readable(loop, conn);  // resume: data may have queued meanwhile
            continue;
          }
        }
        if (!stopping && event.readable) on_readable(loop, conn);
      }
      double now = now_seconds();
      sweep(loop, now);
      if (stopping) {
        // Drain: responses already buffered get a short window to flush;
        // idle and mid-request connections close immediately.
        for (auto it = loop.conns.begin(); it != loop.conns.end();) {
          if (it->second->out_off >= it->second->out.size()) {
            loop.poller.remove(it->first);
            it = loop.conns.erase(it);
            stats_.open.fetch_sub(1, std::memory_order_relaxed);
          } else {
            ++it;
          }
        }
        if (drain_deadline == 0.0) drain_deadline = now + 1.0;
        if (loop.conns.empty() || now > drain_deadline) {
          for (auto& [fd, conn] : loop.conns) {
            loop.poller.remove(fd);
            stats_.open.fetch_sub(1, std::memory_order_relaxed);
          }
          loop.conns.clear();
          break;
        }
      }
    }
  }

  TcpListener listener_;
  HttpServer::Handler handler_;
  HttpServer::Options options_;
  StatCounters stats_;
  std::string reject_wire_;
  int tick_ms_ = 50;
  std::atomic<bool> running_{true};
  std::atomic<bool> stopped_{false};
  std::vector<std::unique_ptr<Loop>> loops_;
  std::thread accept_thread_;
  std::mutex drain_mutex_;
  std::condition_variable drained_;
  std::size_t blocking_workers_ = 0;  // guarded by drain_mutex_
};

// ---------------------------------------------------------------------------
// HttpServer facade
// ---------------------------------------------------------------------------

HttpServer::HttpServer(std::uint16_t port, Handler handler)
    : HttpServer(port, std::move(handler), Options{}) {}

HttpServer::HttpServer(std::uint16_t port, Handler handler, Options options) {
  OPENEI_CHECK(handler != nullptr, "null HTTP handler");
  OPENEI_CHECK(options.read_timeout_s > 0.0, "bad server read timeout");
  OPENEI_CHECK(options.idle_timeout_s > 0.0, "bad server idle timeout");
  loop_ = std::make_unique<EventLoop>(port, std::move(handler),
                                      std::move(options));
}

HttpServer::~HttpServer() { stop(); }

std::uint16_t HttpServer::port() const { return loop_->port(); }

void HttpServer::stop() { loop_->stop(); }

ServerStats HttpServer::stats() const { return loop_->stats(); }

}  // namespace openei::net
