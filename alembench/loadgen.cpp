#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <strings.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>

namespace alembench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body) {
  std::string out = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty() || method == "POST") {
    out += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

namespace {

int connect_loopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Parses one complete response at the front of `in`: returns the bytes it
/// spans (0 = incomplete) and sets status/body bounds.
std::size_t parse_response(const std::string& in, int* status,
                           std::size_t* body_begin, std::size_t* body_len) {
  std::size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return 0;
  if (in.size() < 12 || in.compare(0, 5, "HTTP/") != 0) {
    throw std::runtime_error("malformed response head");
  }
  *status = std::atoi(in.c_str() + 9);
  std::size_t length = 0;
  std::size_t line = in.find("\r\n") + 2;
  while (line < head_end) {
    std::size_t eol = in.find("\r\n", line);
    if (eol - line > 15 && strncasecmp(in.c_str() + line, "content-length:", 15) == 0) {
      length = std::strtoull(in.c_str() + line + 15, nullptr, 10);
    }
    line = eol + 2;
  }
  *body_begin = head_end + 4;
  *body_len = length;
  return in.size() >= head_end + 4 + length ? head_end + 4 + length : 0;
}

struct Conn {
  Lane* lane = nullptr;
  std::size_t lane_index = 0;
  int fd = -1;
  bool busy = false;
  const std::string* out = nullptr;  // request bytes being written
  std::string tagged;                // per-send copy when the lane tags
  std::size_t out_off = 0;
  std::string in;
  Outcome current;
};

class Generator {
 public:
  Generator(std::uint16_t port, const std::vector<Lane*>& lanes) : port_(port) {
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      state_.push_back(LaneState{lanes[l]});
      for (std::size_t c = 0; c < lanes[l]->connections; ++c) {
        auto conn = std::make_unique<Conn>();
        conn->lane = lanes[l];
        conn->lane_index = l;
        conn->fd = connect_loopback(port_);
        conns_.push_back(std::move(conn));
      }
    }
  }
  ~Generator() {
    for (auto& conn : conns_) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void run(double closed_seconds, double timeout_s) {
    start_ = now_ns();
    closed_end_ = start_ + static_cast<std::int64_t>(closed_seconds * 1e9);
    std::int64_t hard_end = start_ + static_cast<std::int64_t>(timeout_s * 1e9);
    std::vector<pollfd> fds(conns_.size());
    while (true) {
      std::int64_t t = now_ns();
      std::int64_t wake = t + 5'000'000;
      bool pending = false;
      for (auto& conn : conns_) {
        if (conn->busy) {
          pending = true;
          continue;
        }
        LaneState& lane = state_[conn->lane_index];
        if (lane.lane->next) {
          if (t < closed_end_) {
            send(*conn, lane.lane->next(), t, t);
            pending = true;
          }
        } else if (lane.cursor < lane.lane->arrivals.size()) {
          const Arrival& arrival = lane.lane->arrivals[lane.cursor];
          std::int64_t due = start_ + arrival.due_ns;
          if (due <= t) {
            ++lane.cursor;
            send(*conn, arrival.request, due, t);
          } else {
            wake = std::min(wake, due);
          }
          pending = true;
        }
      }
      for (LaneState& lane : state_) {
        if (!lane.lane->next && lane.cursor < lane.lane->arrivals.size()) pending = true;
      }
      if (!pending) break;
      if (t >= hard_end) {
        for (auto& conn : conns_) {
          if (conn->busy) fail(*conn, t);
        }
        for (LaneState& lane : state_) {
          while (!lane.lane->next && lane.cursor < lane.lane->arrivals.size()) {
            const Arrival& arrival = lane.lane->arrivals[lane.cursor++];
            Outcome outcome;
            outcome.due_ns = start_ + arrival.due_ns;
            outcome.sent_ns = outcome.done_ns = t;
            outcome.request = arrival.request;
            lane.lane->on_done(outcome, {});
          }
        }
        break;
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& conn = *conns_[i];
        fds[i].fd = conn.busy ? conn.fd : -1;
        fds[i].events = static_cast<short>(
            POLLIN | (conn.busy && conn.out_off < conn.out->size() ? POLLOUT : 0));
        fds[i].revents = 0;
      }
      std::int64_t wait_ns = std::max<std::int64_t>(0, wake - now_ns());
      timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                       static_cast<long>(wait_ns % 1'000'000'000)};
      int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      if (ready <= 0) continue;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (fds[i].revents == 0 || !conns_[i]->busy) continue;
        service(*conns_[i], fds[i].revents);
      }
    }
  }

 private:
  struct LaneState {
    Lane* lane;
    std::size_t cursor = 0;
    std::uint64_t sequence = 0;
  };

  void send(Conn& conn, std::uint32_t request, std::int64_t due, std::int64_t t) {
    LaneState& lane = state_[conn.lane_index];
    conn.current = Outcome{};
    conn.current.due_ns = due;
    conn.current.sent_ns = t;
    conn.current.request = request;
    conn.current.sequence = lane.sequence++;
    conn.busy = true;
    conn.in.clear();
    conn.out_off = 0;
    const std::string& wire = (*lane.lane->wires)[request];
    if (lane.lane->tag_offset != nullptr) {
      conn.tagged = wire;
      char digits[16];
      std::snprintf(digits, sizeof(digits), "%08llu",
                    static_cast<unsigned long long>(conn.current.sequence % 100000000ULL));
      conn.tagged.replace((*lane.lane->tag_offset)[request], 8, digits, 8);
      conn.out = &conn.tagged;
    } else {
      conn.out = &wire;
    }
    if (conn.fd < 0) conn.fd = connect_loopback(port_);
    if (conn.fd < 0) {
      fail(conn, t);
      return;
    }
    flush(conn);
  }

  void flush(Conn& conn) {
    while (conn.out_off < conn.out->size()) {
      ssize_t n = ::send(conn.fd, conn.out->data() + conn.out_off,
                         conn.out->size() - conn.out_off, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      fail(conn, now_ns());
      return;
    }
  }

  void service(Conn& conn, short revents) {
    if ((revents & POLLOUT) != 0) flush(conn);
    if (!conn.busy || (revents & (POLLIN | POLLHUP | POLLERR)) == 0) return;
    char buffer[65536];
    bool eof = false;
    while (true) {
      ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n > 0) {
        conn.in.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      eof = true;  // peer closed or reset
      break;
    }
    int status = 0;
    std::size_t body_begin = 0;
    std::size_t body_len = 0;
    std::size_t used = 0;
    try {
      used = parse_response(conn.in, &status, &body_begin, &body_len);
    } catch (const std::exception&) {
      fail(conn, now_ns());
      return;
    }
    if (used == 0) {
      if (eof) fail(conn, now_ns());
      return;
    }
    if (eof) {
      ::close(conn.fd);
      conn.fd = -1;
    }
    conn.current.done_ns = now_ns();
    conn.current.status = status;
    conn.busy = false;
    conn.lane->on_done(conn.current,
                       std::string_view(conn.in).substr(body_begin, body_len));
  }

  void fail(Conn& conn, std::int64_t t) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;  // reconnect on the next send
    conn.current.done_ns = t;
    conn.current.status = 0;
    conn.busy = false;
    conn.lane->on_done(conn.current, {});
  }

  std::uint16_t port_;
  std::vector<LaneState> state_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::int64_t start_ = 0;
  std::int64_t closed_end_ = 0;
};

}  // namespace

void drive(std::uint16_t port, const std::vector<Lane*>& lanes,
           double closed_seconds, double timeout_s) {
  Generator generator(port, lanes);
  generator.run(closed_seconds, timeout_s);
}

int call_once(std::uint16_t port, const std::string& wire, std::string* body) {
  std::vector<std::string> wires{wire};
  int status = 0;
  Lane lane;
  lane.wires = &wires;
  lane.arrivals = {Arrival{0, 0}};
  lane.on_done = [&](const Outcome& outcome, std::string_view text) {
    status = outcome.status;
    if (body != nullptr) body->assign(text);
  };
  drive(port, {&lane}, 0.0, 30.0);
  return status;
}

}  // namespace alembench
