// Pure helpers of the ALEM-as-served benchmark: percentile selection, the
// seeded request schedule, the Zipf pool mix, response validation and span
// self time.  No
// sockets and no program state, so selftest.cpp can pin each of them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace alembench {

/// splitmix64: the benchmark's only source of randomness for inputs and
/// schedules, so a seed means the same requests on every platform.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Nearest-rank quantile of an ascending sample (q in [0, 1]).
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double rank = q * static_cast<double>(sorted.size());
  std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank - 1e-9);
  return sorted[std::min(index, sorted.size() - 1)];
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

/// The highest of p90, p99 and p99.9 that has at least 10 samples above it
/// in a sample of `n`; 0.5 when none has.
inline double tail_quantile(std::size_t n) {
  constexpr double kCandidates[] = {0.9, 0.99, 0.999};
  constexpr double kMinBeyond = 10.0;
  double best = 0.5;
  for (double q : kCandidates) {
    double beyond = static_cast<double>(n) * (1.0 - q);
    if (beyond + 1e-9 >= kMinBeyond) best = std::max(best, q);
  }
  return best;
}

/// One open-loop arrival: when it is due (ns after the phase starts) and
/// which pooled request it sends.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint32_t request = 0;
};

/// Fixed-rate arrivals over `seconds`; the request drawn for each slot comes
/// from `pick(rng)`, seeded by `seed` alone.
template <typename Pick>
std::vector<Arrival> fixed_rate_schedule(std::uint64_t seed, double rate_per_s,
                                         double seconds, Pick pick) {
  SplitMix rng(seed);
  std::vector<Arrival> out;
  auto count = static_cast<std::size_t>(rate_per_s * seconds);
  out.reserve(count);
  double spacing_ns = 1e9 / rate_per_s;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(Arrival{static_cast<std::int64_t>(spacing_ns * static_cast<double>(i)),
                          static_cast<std::uint32_t>(pick(rng))});
  }
  return out;
}

/// Zipf(s) over ranks 0..n-1 as a cumulative table; look up with zipf_rank.
inline std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// The rank at quantile u in [0, 1) of a zipf_cdf table.
inline std::size_t zipf_rank(const std::vector<double>& cdf, double u) {
  auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

/// Expected predictions of one pooled request, per variant (model name) that
/// may serve it — computed in-process once at set-up.
using Expected = std::map<std::string, std::vector<std::size_t>>;

/// Checks an /ei_algorithms response body against the expectation for the
/// variant the body names.  Returns the served model name, or an empty
/// string (with `why` set) when the body is malformed, names a variant with
/// no expectation, or carries any wrong prediction.
inline std::string validate_predictions(std::string_view body,
                                        const Expected& expected,
                                        std::string* why) {
  auto fail = [why](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return std::string();
  };
  constexpr std::string_view kModel = "\"model\":\"";
  std::size_t m = body.find(kModel);
  if (m == std::string_view::npos) return fail("no model field");
  std::size_t m_end = body.find('"', m + kModel.size());
  if (m_end == std::string_view::npos) return fail("unterminated model field");
  std::string model(body.substr(m + kModel.size(), m_end - m - kModel.size()));
  auto want = expected.find(model);
  if (want == expected.end()) return fail("unexpected variant " + model);

  constexpr std::string_view kPred = "\"predictions\":[";
  std::size_t p = body.find(kPred);
  if (p == std::string_view::npos) return fail("no predictions field");
  std::size_t pos = p + kPred.size();
  std::vector<std::size_t> got;
  while (pos < body.size() && body[pos] != ']') {
    if (body[pos] == ',') {
      ++pos;
      continue;
    }
    const char* begin = body.data() + pos;
    char* end = nullptr;
    double value = std::strtod(begin, &end);
    if (end == begin) return fail("bad prediction value");
    got.push_back(static_cast<std::size_t>(value));
    pos += static_cast<std::size_t>(end - begin);
  }
  if (got != want->second) return fail("wrong predictions from " + model);
  return model;
}

/// Self time of each span in a trace: its duration minus the part of its
/// interval that its children cover (overlapping children count once).
/// Returns (span name, self microseconds) in span order.
inline std::vector<std::pair<std::string, double>> self_times(
    const openei::obs::TraceRecord& trace) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(trace.spans.size());
  for (const openei::obs::SpanRecord& span : trace.spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const openei::obs::SpanRecord& child : trace.spans) {
      if (child.parent_id != span.id || child.id == span.id) continue;
      std::int64_t lo = std::max(child.start_ns, span.start_ns);
      std::int64_t hi = std::min(child.end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t busy = 0;
    std::int64_t cursor = span.start_ns;
    for (auto [lo, hi] : covered) {
      lo = std::max(lo, cursor);
      if (hi > lo) {
        busy += hi - lo;
        cursor = hi;
      }
    }
    out.emplace_back(span.name,
                     static_cast<double>(span.end_ns - span.start_ns - busy) * 1e-3);
  }
  return out;
}

}  // namespace alembench
