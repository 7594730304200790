// Single-thread keep-alive HTTP load generator.
//
// Every lane owns a few persistent loopback connections.  An open-loop lane
// sends each arrival when it falls due (or, if every connection is busy, as
// soon as one frees) and its latency is measured from the due time, so a
// stall is charged to every request scheduled behind it.  A closed-loop
// lane resends on each connection as soon as the previous reply arrives.
// All lanes of one drive() call share the calling thread and one poll loop.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace alembench {

std::int64_t now_ns();

/// HTTP/1.1 request bytes (keep-alive is the 1.1 default).
std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body = "");

/// One finished request.  status 0 means a transport error (connection
/// refused, reset, or no reply before the drive timeout).
struct Outcome {
  std::int64_t due_ns = 0;   // absolute steady-clock time it was scheduled
  std::int64_t sent_ns = 0;  // when its first byte was written
  std::int64_t done_ns = 0;  // when its last response byte arrived
  std::uint32_t request = 0;
  std::uint64_t sequence = 0;  // per-lane send counter (the request tag)
  int status = 0;
};

struct Lane {
  /// Request bytes by pool index.  When `tag_offset` is set for a request,
  /// the 8 characters there are overwritten with the send sequence number.
  const std::vector<std::string>* wires = nullptr;
  const std::vector<std::size_t>* tag_offset = nullptr;
  std::size_t connections = 1;
  /// Open loop: arrivals relative to the drive start.
  std::vector<Arrival> arrivals;
  /// Closed loop when set: picks the next request for an idle connection.
  std::function<std::uint32_t()> next;
  /// Called once per finished request with its response body.
  std::function<void(const Outcome&, std::string_view body)> on_done;
};

/// Drives every lane against 127.0.0.1:`port` until each open-loop lane has
/// finished its arrivals and `closed_seconds` have passed for closed-loop
/// lanes.  Requests still unanswered `timeout_s` after the start finish with
/// status 0.
void drive(std::uint16_t port, const std::vector<Lane*>& lanes,
           double closed_seconds, double timeout_s = 60.0);

/// One request on a fresh connection; returns the status (0 = transport
/// error) and fills `body`.
int call_once(std::uint16_t port, const std::string& wire, std::string* body);

}  // namespace alembench
