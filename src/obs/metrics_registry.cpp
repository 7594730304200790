#include "obs/metrics_registry.h"

#include <cstdio>

#include "common/error.h"

namespace openei::obs {

namespace {

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string render_labels(const LabelSet& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += key;
    out += "=\"";
    out += escape_label_value(value);
    out += "\"";
  }
  out.push_back('}');
  return out;
}

void MetricsRegistry::describe(const std::string& name, std::string help) {
  std::lock_guard<std::mutex> lock(mutex_);
  families_[name].help = std::move(help);
}

MetricsRegistry::Family& MetricsRegistry::family_for(const std::string& name,
                                                     Kind kind) {
  Family& family = families_[name];
  if (family.series.empty()) {
    family.kind = kind;
  } else {
    OPENEI_CHECK(family.kind == kind, "metric family '", name,
                 "' already registered with a different kind");
  }
  return family;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_for(name, Kind::kCounter);
  Series& series = family.series[render_labels(labels)];
  if (!series.counter) {
    series.labels = labels;
    series.counter = std::make_unique<Counter>();
  }
  return *series.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const LabelSet& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_for(name, Kind::kGauge);
  Series& series = family.series[render_labels(labels)];
  if (!series.gauge) {
    series.labels = labels;
    series.gauge = std::make_unique<Gauge>();
  }
  return *series.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const LabelSet& labels, double min_bound,
                                      double growth, std::size_t bucket_count) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_for(name, Kind::kHistogram);
  Series& series = family.series[render_labels(labels)];
  if (!series.histogram) {
    series.labels = labels;
    series.histogram =
        std::make_unique<Histogram>(min_bound, growth, bucket_count);
  }
  return *series.histogram;
}

std::vector<std::pair<LabelSet, double>> MetricsRegistry::counter_snapshots(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<LabelSet, double>> out;
  auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != Kind::kCounter) return out;
  for (const auto& [key, series] : it->second.series) {
    if (series.counter) out.emplace_back(series.labels, series.counter->value());
  }
  return out;
}

std::vector<std::pair<LabelSet, Histogram::Snapshot>>
MetricsRegistry::histogram_snapshots(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<LabelSet, Histogram::Snapshot>> out;
  auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != Kind::kHistogram) return out;
  for (const auto& [key, series] : it->second.series) {
    if (series.histogram) {
      out.emplace_back(series.labels, series.histogram->snapshot());
    }
  }
  return out;
}

std::string MetricsRegistry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (family.series.empty()) continue;
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    const char* type = family.kind == Kind::kCounter   ? "counter"
                       : family.kind == Kind::kGauge   ? "gauge"
                                                       : "histogram";
    out += "# TYPE " + name + " " + type + "\n";
    for (const auto& [label_string, series] : family.series) {
      if (family.kind == Kind::kCounter && series.counter) {
        out += name + label_string + " " +
               format_number(series.counter->value()) + "\n";
      } else if (family.kind == Kind::kGauge && series.gauge) {
        out += name + label_string + " " +
               format_number(series.gauge->value()) + "\n";
      } else if (family.kind == Kind::kHistogram && series.histogram) {
        Histogram::Snapshot snap = series.histogram->snapshot();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < snap.counts.size(); ++i) {
          cumulative += snap.counts[i];
          LabelSet bucket_labels = series.labels;
          bucket_labels.emplace_back(
              "le", i < snap.upper_bounds.size()
                        ? format_number(snap.upper_bounds[i])
                        : "+Inf");
          out += name + "_bucket" + render_labels(bucket_labels) + " " +
                 std::to_string(cumulative) + "\n";
        }
        out += name + "_sum" + label_string + " " + format_number(snap.sum) +
               "\n";
        out += name + "_count" + label_string + " " +
               std::to_string(snap.count) + "\n";
      }
    }
  }
  return out;
}

common::Json MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  common::Json out{common::JsonObject{}};
  for (const auto& [name, family] : families_) {
    if (family.series.empty()) continue;
    common::Json family_json{common::JsonObject{}};
    const char* type = family.kind == Kind::kCounter   ? "counter"
                       : family.kind == Kind::kGauge   ? "gauge"
                                                       : "histogram";
    family_json.set("type", type);
    common::Json series_json{common::JsonObject{}};
    for (const auto& [label_string, series] : family.series) {
      std::string key = label_string.empty() ? "{}" : label_string;
      if (series.counter) {
        series_json.set(key, series.counter->value());
      } else if (series.gauge) {
        series_json.set(key, series.gauge->value());
      } else if (series.histogram) {
        series_json.set(key, series.histogram->snapshot().to_json());
      }
    }
    family_json.set("series", std::move(series_json));
    out.set(name, std::move(family_json));
  }
  return out;
}

}  // namespace openei::obs
