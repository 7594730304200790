// Named metric families with Prometheus text exposition — what
// GET /ei_metrics serves and what /ei_status's per-model percentiles read.
//
// Three metric kinds, all safe for concurrent recording:
//   - counter: monotonically increasing double (request totals, energy mJ);
//   - gauge:   last-set double (model memory footprint, config knobs);
//   - histogram: log-spaced obs::Histogram (per-model request latency).
//
// Series are keyed by (family name, label set).  Lookup takes the registry
// mutex; the returned reference is stable for the registry's lifetime, so
// hot paths can cache it and record with no lock at all.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace openei::obs {

/// Ordered label set, e.g. {{"model", "detector-q8"}}.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotone double counter (Prometheus counters may be fractional — energy
/// in mJ is).  add() must be non-negative.
class Counter {
 public:
  void add(double delta) {
    double seen = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(seen, seen + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  void increment() { add(1.0); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-writer-wins double gauge.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class MetricsRegistry {
 public:
  /// Registers help text for a family (shown as "# HELP" in exposition).
  void describe(const std::string& name, std::string help);

  /// Find-or-create; references remain valid for the registry's lifetime.
  Counter& counter(const std::string& name, const LabelSet& labels = {});
  Gauge& gauge(const std::string& name, const LabelSet& labels = {});
  Histogram& histogram(const std::string& name, const LabelSet& labels = {},
                       double min_bound = 1e-6, double growth = 2.0,
                       std::size_t bucket_count = 25);

  /// Every counter series of `name` with its labels and value (for
  /// /ei_status's request counters).
  std::vector<std::pair<LabelSet, double>> counter_snapshots(
      const std::string& name) const;
  /// Every histogram series of `name` with its labels (for /ei_status's
  /// per-model percentile block).
  std::vector<std::pair<LabelSet, Histogram::Snapshot>> histogram_snapshots(
      const std::string& name) const;

  /// Prometheus text exposition format (text/plain; version=0.0.4):
  /// HELP/TYPE headers, then one line per series; histograms expand to
  /// cumulative _bucket{le=...} lines plus _sum and _count.
  std::string render_prometheus() const;

  /// The same content as structured JSON (round-trip tested; also easier to
  /// consume from tests and dashboards that already speak libei's JSON).
  common::Json to_json() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    LabelSet labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    /// Keyed by the rendered label string for deterministic exposition.
    std::map<std::string, Series> series;
  };

  Family& family_for(const std::string& name, Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

/// Renders {a="x",b="y"} (empty string for no labels); escapes per the
/// Prometheus text format.  Exposed for tests.
std::string render_labels(const LabelSet& labels);

}  // namespace openei::obs
