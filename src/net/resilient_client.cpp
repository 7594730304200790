#include "net/resilient_client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/clock.h"
#include "common/error.h"

namespace openei::net {

const char* to_string(CircuitState state) {
  switch (state) {
    case CircuitState::kClosed: return "closed";
    case CircuitState::kOpen: return "open";
    case CircuitState::kHalfOpen: return "half_open";
  }
  return "unknown";
}

std::uint64_t ResilienceMetrics::register_breaker(
    std::function<BreakerSnapshot()> provider) {
  std::lock_guard<std::mutex> lock(breakers_mutex_);
  std::uint64_t token = next_breaker_token_++;
  breakers_[token] = std::move(provider);
  return token;
}

void ResilienceMetrics::unregister_breaker(std::uint64_t token) {
  std::lock_guard<std::mutex> lock(breakers_mutex_);
  breakers_.erase(token);
}

std::vector<BreakerSnapshot> ResilienceMetrics::breaker_snapshots() const {
  // Providers are invoked under the registry lock: unregister_breaker (run
  // by a client's destructor) cannot return while a snapshot of that client
  // is still in flight, so the callbacks never touch a dead client.
  std::lock_guard<std::mutex> lock(breakers_mutex_);
  std::vector<BreakerSnapshot> out;
  out.reserve(breakers_.size());
  for (const auto& [token, provider] : breakers_) out.push_back(provider());
  return out;
}

common::Json ResilienceMetrics::to_json() const {
  common::Json out{common::JsonObject{}};
  out.set("attempts", attempts.load());
  out.set("successes", successes.load());
  out.set("retries", retries.load());
  out.set("timeouts", timeouts.load());
  out.set("transport_errors", transport_errors.load());
  out.set("server_errors", server_errors.load());
  out.set("breaker_opens", breaker_opens.load());
  out.set("breaker_rejections", breaker_rejections.load());
  out.set("degraded_serves", degraded_serves.load());
  out.set("open_breakers", open_breakers.load());
  common::JsonArray breakers;
  for (const BreakerSnapshot& snapshot : breaker_snapshots()) {
    common::Json row{common::JsonObject{}};
    row.set("endpoint", snapshot.endpoint);
    row.set("state", to_string(snapshot.state));
    row.set("consecutive_failures", snapshot.consecutive_failures);
    row.set("last_transition_unix_s", snapshot.last_transition_unix_s);
    breakers.push_back(std::move(row));
  }
  out.set("breakers", common::Json(std::move(breakers)));
  return out;
}

ResilientClient::ResilientClient(std::uint16_t port, Options options)
    : port_(port), options_(std::move(options)), jitter_rng_(options_.seed) {
  OPENEI_CHECK(options_.deadline_s > 0.0, "bad deadline ", options_.deadline_s);
  OPENEI_CHECK(options_.retry.max_attempts >= 1, "need at least one attempt");
  OPENEI_CHECK(options_.breaker.failure_threshold >= 1,
               "breaker threshold must be >= 1");
  if (options_.metrics) {
    breaker_token_ = options_.metrics->register_breaker(
        [this] { return breaker_state(); });
  }
}

ResilientClient::~ResilientClient() {
  // Unregister first: after this returns, the shared sink can no longer
  // snapshot this client.
  if (options_.metrics) {
    options_.metrics->unregister_breaker(breaker_token_);
  }
  // Keep the shared open-breaker gauge honest when a client dies while its
  // breaker is tripped.
  if (options_.metrics && state_ != CircuitState::kClosed) {
    --options_.metrics->open_breakers;
  }
}

HttpResponse ResilientClient::get(const std::string& target) {
  return request("GET", target, "", "");
}

HttpResponse ResilientClient::post(const std::string& target,
                                   const std::string& body,
                                   const std::string& content_type) {
  return request("POST", target, body, content_type);
}

HttpResponse ResilientClient::del(const std::string& target) {
  return request("DELETE", target, "", "");
}

CircuitState ResilientClient::circuit_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

BreakerSnapshot ResilientClient::breaker_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BreakerSnapshot snapshot;
  snapshot.endpoint = "127.0.0.1:" + std::to_string(port_);
  snapshot.state = state_;
  snapshot.consecutive_failures = consecutive_failures_;
  snapshot.last_transition_unix_s =
      static_cast<double>(last_transition_ns_) * 1e-9;
  return snapshot;
}

void ResilientClient::transition_to(CircuitState next) {
  if (state_ == next) return;
  state_ = next;
  last_transition_ns_ = common::wall_now_ns();
}

ResilientClient::Stats ResilientClient::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool ResilientClient::breaker_admits() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == CircuitState::kOpen) {
    if (common::wall_now_ns() < open_until_ns_) return false;
    transition_to(CircuitState::kHalfOpen);  // open window elapsed: one trial
  }
  return true;
}

void ResilientClient::record_success() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.successes;
  if (options_.metrics) ++options_.metrics->successes;
  if (state_ != CircuitState::kClosed && options_.metrics) {
    --options_.metrics->open_breakers;
  }
  transition_to(CircuitState::kClosed);
  consecutive_failures_ = 0;
}

void ResilientClient::record_failure() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.failures;
  ++consecutive_failures_;
  std::int64_t reopen_at =
      common::wall_now_ns() +
      static_cast<std::int64_t>(options_.breaker.open_duration_s * 1e9);
  if (state_ == CircuitState::kHalfOpen) {
    transition_to(CircuitState::kOpen);  // trial failed: back to open
    open_until_ns_ = reopen_at;
  } else if (state_ == CircuitState::kClosed &&
             consecutive_failures_ >= options_.breaker.failure_threshold) {
    transition_to(CircuitState::kOpen);
    open_until_ns_ = reopen_at;
    if (options_.metrics) {
      ++options_.metrics->breaker_opens;
      ++options_.metrics->open_breakers;
    }
  }
}

double ResilientClient::backoff_for(std::size_t attempt) {
  const RetryPolicy& retry = options_.retry;
  double base = retry.initial_backoff_s *
                std::pow(retry.backoff_multiplier, static_cast<double>(attempt));
  base = std::min(base, retry.max_backoff_s);
  std::lock_guard<std::mutex> lock(mutex_);
  double jitter = jitter_rng_.uniform(1.0 - retry.jitter_fraction,
                                      1.0 + retry.jitter_fraction);
  return base * jitter;
}

HttpResponse ResilientClient::attempt_once(const std::string& method,
                                           const std::string& target,
                                           const std::string& body,
                                           const std::string& content_type,
                                           double budget_s) {
  HttpClient client(port_, budget_s);
  if (method == "GET") return client.get(target);
  if (method == "DELETE") return client.del(target);
  return client.post(target, body, content_type);
}

HttpResponse ResilientClient::request(const std::string& method,
                                      const std::string& target,
                                      const std::string& body,
                                      const std::string& content_type) {
  if (!breaker_admits()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.breaker_rejections;
    }
    if (options_.metrics) ++options_.metrics->breaker_rejections;
    throw CircuitOpenError("circuit open for 127.0.0.1:" +
                           std::to_string(port_) + " (" + method + ' ' +
                           target + ")");
  }

  common::Stopwatch elapsed;
  std::string last_error;
  bool last_was_timeout = false;
  for (std::size_t attempt = 0; attempt < options_.retry.max_attempts;
       ++attempt) {
    double remaining = options_.deadline_s - elapsed.elapsed_seconds();
    if (remaining <= 0.0) break;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.attempts;
      if (attempt > 0) ++stats_.retries;
    }
    if (options_.metrics) {
      ++options_.metrics->attempts;
      if (attempt > 0) ++options_.metrics->retries;
    }
    try {
      HttpResponse response =
          attempt_once(method, target, body, content_type, remaining);
      bool server_error = options_.retry_server_errors &&
                          (response.status == 500 || response.status == 503);
      if (!server_error) {
        record_success();
        return response;
      }
      record_failure();
      if (options_.metrics) ++options_.metrics->server_errors;
      last_error = "HTTP " + std::to_string(response.status);
      last_was_timeout = false;
      if (attempt + 1 == options_.retry.max_attempts) {
        return response;  // budget exhausted: surface the 5xx to the caller
      }
    } catch (const TimeoutError& e) {
      record_failure();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.timeouts;
      }
      if (options_.metrics) ++options_.metrics->timeouts;
      last_error = e.what();
      last_was_timeout = true;
    } catch (const IoError& e) {
      record_failure();
      if (options_.metrics) ++options_.metrics->transport_errors;
      last_error = e.what();
      last_was_timeout = false;
    }
    // Backoff only when another attempt will actually run: sleeping after
    // the final failure would hand the caller pure added latency, and the
    // sleep itself never extends past the end-to-end deadline.
    if (attempt + 1 < options_.retry.max_attempts) {
      double sleep_s =
          std::min(backoff_for(attempt),
                   options_.deadline_s - elapsed.elapsed_seconds());
      if (sleep_s > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      }
    }
  }

  std::string summary = method + ' ' + target + " to 127.0.0.1:" +
                        std::to_string(port_) + " failed after " +
                        std::to_string(options_.retry.max_attempts) +
                        " attempts within " +
                        std::to_string(options_.deadline_s) +
                        "s; last error: " + last_error;
  if (last_was_timeout || elapsed.elapsed_seconds() >= options_.deadline_s) {
    throw TimeoutError(summary);
  }
  throw IoError(summary);
}

bool ResilientClient::probe(const std::string& target) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.attempts;
  }
  if (options_.metrics) ++options_.metrics->attempts;
  try {
    HttpResponse response =
        attempt_once("GET", target, "", "", options_.deadline_s);
    if (options_.retry_server_errors &&
        (response.status == 500 || response.status == 503)) {
      record_failure();
      if (options_.metrics) ++options_.metrics->server_errors;
      return false;
    }
    record_success();
    return true;
  } catch (const TimeoutError&) {
    record_failure();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.timeouts;
    }
    if (options_.metrics) ++options_.metrics->timeouts;
    return false;
  } catch (const IoError&) {
    record_failure();
    if (options_.metrics) ++options_.metrics->transport_errors;
    return false;
  }
}

}  // namespace openei::net
