// ALEM-as-served benchmark.
//
//   alembench --workload fleet_tabular|node_vision|lifecycle_churn
//             --seed N --seconds S --trace 0|1
//
// Stands up the system under test in this process (core::EdgeNode, or a
// fleet::Fleet behind its router), drives it over loopback keep-alive HTTP
// from one generator thread, validates every response against predictions
// computed in-process at set-up, and prints one JSON result line last.
// --trace 0 reports the end-to-end metrics with program tracing off;
// --trace 1 reports the per-layer metrics (README.md lists them all).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "compress/quantize_model.h"
#include "core/edge_node.h"
#include "fleet/fleet.h"
#include "harness.h"
#include "hwsim/cost_model.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "loadgen.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "runtime/inference.h"
#include "selector/capability_db.h"
#include "selector/selecting_algorithm.h"
#include "tensor/ops.h"
#include "tensor/pack.h"
#include "tensor/quantize.h"

#ifndef ALEMBENCH_BUILD_TYPE
#define ALEMBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace alembench;
namespace ei = openei;
using ei::common::Json;
using ei::common::JsonObject;

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

double p50(std::vector<double> v) { return median(std::move(v)); }

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

/// Median wall time of `fn` in microseconds over `reps` calls after one
/// warm-up call.
template <typename Fn>
double median_us(std::size_t reps, Fn fn) {
  fn();
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    std::int64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(std::move(us));
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

struct Deployment {
  std::string scenario;
  std::string algorithm;
  double accuracy = 0.9;
  ei::nn::Model model;
};

struct Spec {
  std::string name;
  bool fleet = false;
  ei::hwsim::DeviceProfile device;
  std::size_t cache_budget_bytes = 0;  // 0 = derived from the device
  std::string query;                   // extra query on every read
  double open_rate = 100.0;            // reads/s in the open-loop phase
  double closed_share = 0.45;  // of each round's time, the rest is open loop
  double swap_rate = 0.0;  // untimed swaps/s beside reads (lifecycle_churn)
  /// Timed sequential swaps after each round, cycling through the models.
  std::size_t post_swaps = 0;
  std::function<std::vector<Deployment>()> build;
  /// The request at quantile u in [0, 1) of the pool: (deployment index,
  /// rows).  Pool slots are spread evenly over u, so every seed's pool has
  /// the same mix and only the input values change with the seed.
  std::function<std::pair<std::size_t, std::size_t>(double u)> draw;
};

ei::nn::Model clone(const ei::nn::Model& model) {
  return ei::nn::load_model(ei::nn::save_model(model));
}

Spec fleet_tabular_spec() {
  Spec s;
  s.name = "fleet_tabular";
  s.fleet = true;
  // Every routed read opens a fresh node connection, and each closed one
  // lingers in TIME_WAIT for a minute; a short closed-loop share keeps a run
  // (and back-to-back runs) far from exhausting loopback ports.
  s.open_rate = 150.0;
  s.closed_share = 0.06;
  s.post_swaps = 4;
  s.build = [] {
    std::vector<Deployment> out;
    for (std::size_t k = 0; k < 8; ++k) {
      ei::common::Rng rng(1000 + k);
      out.push_back(Deployment{"tab" + std::to_string(k), "detect", 0.9,
                               ei::nn::zoo::make_mlp("tab_k" + std::to_string(k), 8,
                                                     4, {16}, rng)});
    }
    return out;
  };
  s.draw = [](double u) {
    return std::pair<std::size_t, std::size_t>(static_cast<std::size_t>(u * 8.0), 1);
  };
  return s;
}

Spec node_vision_spec() {
  Spec s;
  s.name = "node_vision";
  s.device = ei::hwsim::edge_server();
  s.query = "?objective=latency";
  s.open_rate = 250.0;
  s.post_swaps = 4;
  s.build = [] {
    ei::common::Rng rng(2000);
    ei::nn::Model fp32 = ei::nn::zoo::make_mini_vgg({3, 16, 4}, rng);
    ei::common::Rng calib_rng(2001);
    ei::nn::Tensor calibration =
        ei::nn::Tensor::random_uniform(ei::tensor::Shape{64, 3, 16, 16}, calib_rng, -2.0F, 2.0F);
    ei::nn::Model int8 = ei::compress::quantize_int8(fp32, calibration).model;
    fp32.set_name("vgg_fp32");
    int8.set_name("vgg_int8");
    std::vector<Deployment> out;
    out.push_back(Deployment{"vision", "classify", 0.92, std::move(fp32)});
    out.push_back(Deployment{"vision", "classify", 0.91, std::move(int8)});
    return out;
  };
  // Both variants answer every request: deployment 0 stands for the pair.
  s.draw = [](double u) {
    return std::pair<std::size_t, std::size_t>(0, u >= 0.75 ? 4 : 1);
  };
  return s;
}

Spec lifecycle_churn_spec() {
  Spec s;
  s.name = "lifecycle_churn";
  s.device = ei::hwsim::edge_server();
  s.open_rate = 250.0;
  s.swap_rate = 0.5;
  s.post_swaps = 6;
  s.build = [] {
    std::vector<Deployment> out;
    auto catalog = ei::nn::zoo::image_catalog();
    for (std::size_t i = 0; i < 6; ++i) {
      ei::common::Rng rng(3000 + i);
      out.push_back(Deployment{"lc" + std::to_string(i), "classify", 0.9,
                               catalog[i].build({3, 16, 4}, rng)});
    }
    return out;
  };
  auto cdf = std::make_shared<std::vector<double>>(zipf_cdf(6, 1.0));
  s.draw = [cdf](double u) {
    return std::pair<std::size_t, std::size_t>(zipf_rank(*cdf, u), 1);
  };
  // The session budget holds about half the catalog: half the summed ALEM
  // memory, never less than the largest model (so no read is refused).
  std::vector<Deployment> models = s.build();
  std::size_t total = 0;
  std::size_t largest = 0;
  for (const Deployment& d : models) {
    std::size_t bytes =
        ei::hwsim::estimate_inference(d.model, ei::hwsim::openei_package(), s.device)
            .memory_bytes;
    total += bytes;
    largest = std::max(largest, bytes);
  }
  s.cache_budget_bytes = std::max(total / 2, largest + largest / 4);
  return s;
}

Spec spec_for(const std::string& name) {
  if (name == "fleet_tabular") return fleet_tabular_spec();
  if (name == "node_vision") return node_vision_spec();
  if (name == "lifecycle_churn") return lifecycle_churn_spec();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Inputs: pooled read requests with their expected predictions
// ---------------------------------------------------------------------------

struct Pool {
  std::vector<std::string> wires;
  std::vector<std::size_t> tag_offset;  // where "&tag=" digits start
  std::vector<Expected> expected;
  std::vector<std::size_t> rows;
  std::vector<std::string> body;
};

struct Inputs {
  std::vector<Deployment> models;  // reference copies, never served
  Pool reads;
  // Swap requests: POST of model i at index i (a hot-swap to the same
  // weights, so every read stays checkable), rollback of model i at
  // models.size() + i.  swap_sequence lists the order of the swaps sent
  // beside the reads.
  std::vector<std::string> swap_wires;
  std::vector<std::uint32_t> swap_sequence;
  std::map<std::string, std::string> payload;  // model name -> JSON
  std::map<std::string, std::string> key_of;   // model name -> scenario/algo
};

std::string swap_target(const Deployment& d) {
  return "/ei_models?scenario=" + d.scenario + "&algorithm=" + d.algorithm +
         "&accuracy=" + std::to_string(d.accuracy);
}

Inputs make_inputs(const Spec& spec, std::uint64_t seed, std::size_t pool_size) {
  Inputs in;
  in.models = spec.build();
  std::vector<std::unique_ptr<ei::runtime::InferenceSession>> sessions;
  for (const Deployment& d : in.models) {
    sessions.push_back(std::make_unique<ei::runtime::InferenceSession>(
        clone(d.model), ei::hwsim::openei_package(), ei::hwsim::edge_server()));
    in.payload[d.model.name()] = ei::nn::save_model(d.model);
    in.key_of[d.model.name()] = d.scenario + "/" + d.algorithm;
  }
  SplitMix rng(seed);
  for (std::size_t r = 0; r < pool_size; ++r) {
    auto [index, rows] =
        spec.draw((static_cast<double>(r) + 0.5) / static_cast<double>(pool_size));
    const Deployment& d = in.models[index];
    const ei::tensor::Shape& sample = d.model.input_shape();
    std::size_t width = sample.elements();
    std::vector<float> values(rows * width);
    std::string body = "[";
    for (std::size_t i = 0; i < rows; ++i) {
      body += i == 0 ? "[" : ",[";
      for (std::size_t j = 0; j < width; ++j) {
        // Multiples of 1/64: exact in float and in short decimal text.
        float v = static_cast<float>(static_cast<int>(rng.below(257)) - 128) / 64.0F;
        values[i * width + j] = v;
        char text[32];
        std::snprintf(text, sizeof(text), j == 0 ? "%g" : ",%g", static_cast<double>(v));
        body += text;
      }
      body += "]";
    }
    body += "]";
    std::vector<std::size_t> dims{rows};
    for (std::size_t a = 0; a < sample.rank(); ++a) dims.push_back(sample.dim(a));
    ei::nn::Tensor batch(ei::tensor::Shape(dims), values);
    Expected expected;
    for (std::size_t m = 0; m < in.models.size(); ++m) {
      const Deployment& other = in.models[m];
      if (other.scenario != d.scenario || other.algorithm != d.algorithm) continue;
      expected[other.model.name()] = sessions[m]->run(batch).predictions;
    }
    std::string target = "/ei_algorithms/" + d.scenario + "/" + d.algorithm;
    target += spec.query.empty() ? "?" : spec.query + "&";
    if (spec.fleet) target += "session=" + std::to_string(rng.below(16)) + "&";
    target += "tag=00000000";
    std::string wire = http_request("POST", target, body);
    in.reads.tag_offset.push_back(wire.find("tag=") + 4);
    in.reads.wires.push_back(std::move(wire));
    in.reads.expected.push_back(std::move(expected));
    in.reads.rows.push_back(rows);
    in.reads.body.push_back(std::move(body));
  }
  std::size_t n = in.models.size();
  for (const Deployment& d : in.models) {
    in.swap_wires.push_back(http_request("POST", swap_target(d), in.payload[d.model.name()]));
  }
  for (const Deployment& d : in.models) {
    in.swap_wires.push_back(http_request("DELETE", "/ei_models/" + d.model.name() + "?rollback=1"));
  }
  // Swaps beside the reads cycle through every model in catalog order;
  // every fourth operation rolls the previous swap back instead.  The order
  // is the same for every seed, like the pool's mix.
  for (std::size_t i = 0, next = 0; i < 4 * n; ++i) {
    in.swap_sequence.push_back(i % 4 == 3 ? static_cast<std::uint32_t>(n + in.swap_sequence.back())
                                          : static_cast<std::uint32_t>(next++ % n));
  }
  return in;
}

// ---------------------------------------------------------------------------
// The system under test
// ---------------------------------------------------------------------------

/// Handler timings recorded by the bench's own wrappers.
struct Timings {
  std::mutex mutex;
  std::map<std::string, std::vector<double>> handle_us;  // by route
  std::unordered_map<std::string, double> node_us_by_tag;
  std::vector<std::pair<std::string, double>> route_us;  // (tag, us)
  void clear() {
    std::lock_guard<std::mutex> lock(mutex);
    handle_us.clear();
    node_us_by_tag.clear();
    route_us.clear();
  }
};

std::string tag_of(const ei::net::HttpRequest& request) {
  auto it = request.query.find("tag");
  return it == request.query.end() ? std::string() : it->second;
}

std::string route_of(const ei::net::HttpRequest& request) {
  std::size_t end = request.path.find('/', 1);
  return request.path.substr(1, end == std::string::npos ? std::string::npos : end - 1);
}

class System {
 public:
  /// Builds, deploys and binds.  `traced` turns on the program's tracers;
  /// `wrapped` fronts every service (and the router) with a bench handler
  /// that times it.
  System(const Spec& spec, bool traced, bool wrapped) {
    ei::libei::EiService::Options service;
    service.lifecycle.budget_bytes = spec.cache_budget_bytes;
    service.tracing.enabled = traced;
    service.tracing.ring_capacity = 8192;
    std::vector<Deployment> models = spec.build();
    if (spec.fleet) {
      ei::fleet::FleetOptions options;
      options.nodes = 2;
      options.router.replication = 2;
      options.service = service;
      fleet_ = std::make_unique<ei::fleet::Fleet>(options);
      if (wrapped) {
        for (std::size_t i = 0; i < fleet_->size(); ++i) {
          fleet_->kill(i);
          servers_.push_back(wrap_node(fleet_->port(i), fleet_->node(i).service()));
        }
      }
      for (const Deployment& d : models) {
        fleet_->deploy(d.scenario, d.algorithm, d.model, d.accuracy);
      }
      if (wrapped) {
        ei::fleet::Router* router = &fleet_->router();
        front_ = std::make_unique<ei::net::HttpServer>(
            0, [this, router](const ei::net::HttpRequest& request) {
              std::int64_t t0 = now_ns();
              ei::net::HttpResponse response = router->route(request);
              double us = static_cast<double>(now_ns() - t0) * 1e-3;
              std::lock_guard<std::mutex> lock(timings_.mutex);
              timings_.route_us.emplace_back(tag_of(request), us);
              return response;
            });
        port_ = front_->port();
      } else {
        port_ = fleet_->router().start_server(0);
      }
    } else {
      ei::core::EdgeNodeConfig config{spec.device, ei::hwsim::openei_package(), 4096,
                                      service};
      node_ = std::make_unique<ei::core::EdgeNode>(std::move(config));
      for (Deployment& d : models) {
        node_->deploy_model(d.scenario, d.algorithm, std::move(d.model), d.accuracy);
      }
      if (wrapped) {
        servers_.push_back(wrap_node(0, node_->service()));
        port_ = servers_.back()->port();
      } else {
        port_ = node_->start_server(0);
      }
    }
  }
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  std::uint16_t port() const { return port_; }
  Timings& timings() { return timings_; }
  /// Transport retries of the fleet router (0 without a fleet).
  std::uint64_t retries() const {
    return fleet_ ? fleet_->router().resilience()->retries.load() : 0;
  }

  std::vector<ei::libei::EiService*> services() {
    std::vector<ei::libei::EiService*> out;
    if (fleet_) {
      for (std::size_t i = 0; i < fleet_->size(); ++i) out.push_back(&fleet_->node(i).service());
    } else {
      out.push_back(&node_->service());
    }
    return out;
  }

  /// Serving counters of every node's server, summed.
  ei::net::ServerStats node_stats() const {
    ei::net::ServerStats sum;
    auto add = [&sum](const ei::net::ServerStats& s) {
      sum.connections_accepted += s.connections_accepted;
      sum.requests_served += s.requests_served;
      sum.keepalive_reuses += s.keepalive_reuses;
    };
    if (!servers_.empty()) {
      for (const auto& server : servers_) add(server->stats());
    } else if (node_) {
      add(node_->server_stats());
    } else {
      for (std::size_t i = 0; i < fleet_->size(); ++i) add(fleet_->node(i).server_stats());
    }
    return sum;
  }

  /// Serving counters of the server the client talks to.
  ei::net::ServerStats front_stats() const {
    if (front_) return front_->stats();
    return node_stats();
  }

  double busy_j() {
    double total = 0.0;
    for (auto* service : services()) {
      total += service->energy_governor().snapshot().ledger.busy_j;
    }
    return total;
  }

 private:
  std::unique_ptr<ei::net::HttpServer> wrap_node(std::uint16_t port,
                                                 ei::libei::EiService& service) {
    return std::make_unique<ei::net::HttpServer>(
        port, [this, &service](const ei::net::HttpRequest& request) {
          struct Record {
            System* self;
            const ei::net::HttpRequest& request;
            std::int64_t t0;
            ~Record() {
              double us = static_cast<double>(now_ns() - t0) * 1e-3;
              std::lock_guard<std::mutex> lock(self->timings_.mutex);
              self->timings_.handle_us[route_of(request)].push_back(us);
              std::string tag = tag_of(request);
              if (!tag.empty()) self->timings_.node_us_by_tag[tag] += us;
            }
          } record{this, request, now_ns()};
          return service.handle(request);
        });
  }

  std::unique_ptr<ei::fleet::Fleet> fleet_;
  std::unique_ptr<ei::core::EdgeNode> node_;
  Timings timings_;
  // Declared after the nodes they call into, so they are destroyed (and
  // stop) first.
  std::vector<std::unique_ptr<ei::net::HttpServer>> servers_;
  std::unique_ptr<ei::net::HttpServer> front_;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Traffic phases
// ---------------------------------------------------------------------------

/// Everything one phase observed.
struct PhaseResult {
  std::vector<double> latency_ms;  // reads, from due time; failures are +inf
  std::vector<double> late_ms;     // open loop: send time minus due time
  // Swap POST latencies by swap request (model) index; rollbacks untimed.
  std::map<std::uint32_t, std::vector<double>> swap_ms;
  std::map<std::string, std::size_t> served_by;  // model -> read count
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t reads_ok = 0;
  std::size_t rows_ok = 0;
  double seconds = 0.0;
  std::string first_error;

  void merge(const PhaseResult& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    for (const auto& [k, v] : o.swap_ms) swap_ms[k].insert(swap_ms[k].end(), v.begin(), v.end());
    for (const auto& [k, v] : o.served_by) served_by[k] += v;
    attempted += o.attempted;
    failed += o.failed;
    reads_ok += o.reads_ok;
    rows_ok += o.rows_ok;
    seconds += o.seconds;
    if (first_error.empty()) first_error = o.first_error;
  }
};

/// Keep-alive connections per lane: few enough to leave cores for the
/// server's threads, one fewer than nproc (4) for the closed loop.
constexpr std::size_t kOpenConnections = 2;
constexpr std::size_t kClosedConnections = 3;

struct PhasePlan {
  double open_seconds = 0.0;    // open-loop reads at spec.open_rate
  double closed_seconds = 0.0;  // closed-loop reads (used when open is 0)
  bool swaps = false;           // swap lane at spec.swap_rate alongside
  bool tag = false;
  std::uint64_t seed = 1;
};

class Runner {
 public:
  Runner(const Spec& spec, const Inputs& inputs) : spec_(spec), in_(inputs) {}

  PhaseResult reads(System& system, const PhasePlan& plan) {
    PhaseResult result;
    Lane read;
    read.wires = &in_.reads.wires;
    if (plan.tag) read.tag_offset = &in_.reads.tag_offset;
    read.connections = plan.open_seconds > 0.0 ? kOpenConnections : kClosedConnections;
    SplitMix closed_rng(plan.seed);
    std::size_t pool = in_.reads.wires.size();
    if (plan.open_seconds > 0.0) {
      read.arrivals = fixed_rate_schedule(plan.seed, spec_.open_rate, plan.open_seconds,
                                          [pool](SplitMix& rng) { return rng.below(pool); });
    } else {
      read.next = [&closed_rng, pool] {
        return static_cast<std::uint32_t>(closed_rng.below(pool));
      };
    }
    bool open = plan.open_seconds > 0.0;
    read.on_done = [&](const Outcome& o, std::string_view body) {
      ++result.attempted;
      std::string why;
      std::string model;
      if (o.status >= 200 && o.status < 300) {
        model = validate_predictions(body, in_.reads.expected[o.request], &why);
      } else {
        why = "status " + std::to_string(o.status) + " " + std::string(body.substr(0, 120));
      }
      if (open) result.late_ms.push_back(static_cast<double>(o.sent_ns - o.due_ns) * 1e-6);
      if (model.empty()) {
        ++result.failed;
        if (result.first_error.empty()) result.first_error = why;
        result.latency_ms.push_back(1e300);
        return;
      }
      ++result.reads_ok;
      result.rows_ok += in_.reads.rows[o.request];
      ++result.served_by[model];
      result.latency_ms.push_back(static_cast<double>(o.done_ns - o.due_ns) * 1e-6);
    };
    std::vector<Lane*> lanes{&read};
    Lane swap;
    if (plan.swaps && spec_.swap_rate > 0.0) {
      // Swaps fall due every 1/swap_rate seconds on a clock that runs only
      // while reads do, so phases shorter than that period still get their
      // share.
      swap = swap_lane(result, [&] {
        double seconds = open ? plan.open_seconds : plan.closed_seconds;
        std::vector<Arrival> arrivals;
        for (; swap_due_s_ < swap_clock_s_ + seconds; swap_due_s_ += 1.0 / spec_.swap_rate) {
          arrivals.push_back(Arrival{
              static_cast<std::int64_t>((swap_due_s_ - swap_clock_s_) * 1e9), next_swap()});
        }
        swap_clock_s_ += seconds;
        return arrivals;
      }(), /*timed=*/false);
      lanes.push_back(&swap);
    }
    std::int64_t t0 = now_ns();
    drive(system.port(), lanes, plan.closed_seconds);
    result.seconds = seconds_since(t0);
    return result;
  }

  /// Sequential swaps on one keep-alive connection (closed loop).
  PhaseResult post_swaps(System& system, std::size_t count) {
    PhaseResult result;
    std::vector<Arrival> arrivals;
    for (std::size_t i = 0; i < count; ++i) {
      auto model = static_cast<std::uint32_t>(next_post_++ % in_.models.size());
      arrivals.push_back(Arrival{0, model});
    }
    Lane lane = swap_lane(result, std::move(arrivals), /*timed=*/true);
    std::int64_t t0 = now_ns();
    drive(system.port(), {&lane}, 0.0);
    result.seconds = seconds_since(t0);
    return result;
  }

 private:
  std::uint32_t next_swap() {
    return in_.swap_sequence[next_swap_++ % in_.swap_sequence.size()];
  }

  /// A lane of swaps and rollbacks, each checked.  A timed lane records its
  /// POSTs' latency from their send; swaps beside the reads are not timed,
  /// as their latency depends on which reads they land among.
  Lane swap_lane(PhaseResult& result, std::vector<Arrival> arrivals, bool timed) {
    Lane lane;
    lane.wires = &in_.swap_wires;
    lane.connections = 1;
    lane.arrivals = std::move(arrivals);
    lane.on_done = [this, &result, timed](const Outcome& o, std::string_view body) {
      ++result.attempted;
      if (o.status < 200 || o.status >= 300) {
        ++result.failed;
        if (result.first_error.empty()) {
          result.first_error = "swap status " + std::to_string(o.status) + " " +
                               std::string(body.substr(0, 120));
        }
        return;
      }
      if (timed && o.request < in_.models.size()) {
        result.swap_ms[o.request].push_back(static_cast<double>(o.done_ns - o.sent_ns) * 1e-6);
      }
    };
    return lane;
  }

  const Spec& spec_;
  const Inputs& in_;
  std::size_t next_swap_ = 0;
  std::size_t next_post_ = 0;
  double swap_clock_s_ = 0.0;  // read time that has carried swaps so far
  double swap_due_s_ = 0.0;    // when the next swap falls due on that clock
};

/// Builds a system and serves (and checks) its first request; returns the
/// wall time of the whole set-up.
double timed_setup(const Spec& spec, const Inputs& in, bool traced, bool wrapped,
                   std::unique_ptr<System>* out) {
  std::int64_t t0 = now_ns();
  auto system = std::make_unique<System>(spec, traced, wrapped);
  std::string body;
  int status = call_once(system->port(), in.reads.wires[0], &body);
  double seconds = seconds_since(t0);
  std::string why;
  if (status != 200 || validate_predictions(body, in.reads.expected[0], &why).empty()) {
    throw std::runtime_error("first request failed: status " + std::to_string(status) + " " +
                             why + " " + body.substr(0, 200));
  }
  *out = std::move(system);
  return seconds;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int g_serving_cpu = -1;  // set by pin_serving()

/// Steal and total ticks so far of the serving CPU (of all CPUs before the
/// process is pinned), from /proc/stat; zeros where it cannot be read.
/// Steal is time the hypervisor ran other guests while this one was
/// runnable.
std::pair<double, double> cpu_steal_ticks() {
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return {0.0, 0.0};
  std::string want = g_serving_cpu < 0 ? "cpu" : "cpu" + std::to_string(g_serving_cpu);
  char name[16];
  double t[8] = {};
  std::pair<double, double> out{0.0, 0.0};
  while (std::fscanf(file, "%15s %lf %lf %lf %lf %lf %lf %lf %lf%*[^\n]", name, &t[0], &t[1],
                     &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]) == 9) {
    if (want != name) continue;
    double total = 0.0;
    for (double v : t) total += v;
    out = {t[7], total};
    break;
  }
  std::fclose(file);
  return out;
}

/// Share of CPU time stolen by the hypervisor since `before`, in percent.
double steal_pct_since(std::pair<double, double> before) {
  auto [steal, total] = cpu_steal_ticks();
  return total > before.second ? 100.0 * (steal - before.first) / (total - before.second) : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The served system runs as on a single-core edge device: one CPU shared
/// by the load generator and every server thread, and one compute lane.
/// Spread over a shared VM's cores, each request's hand-offs between the
/// generator, the event loops and the batcher wake other virtual CPUs, and
/// those wake-ups wait on the hypervisor whenever its other guests are busy;
/// the figures then follow the neighbours instead of the program.  The
/// kernels' multi-lane speed is still measured per layer (tensor.*.tdef).
constexpr std::size_t kServingLanes = 1;

/// CPUs the process may use at start-up, and the one it is pinned to.
cpu_set_t g_allowed_cpus;

void pin_to_serving_cpu() {
  if (g_serving_cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(g_serving_cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

/// Pins the calling thread, and so every thread it starts afterwards, to the
/// first CPU it may run on.
void pin_serving() {
  CPU_ZERO(&g_allowed_cpus);
  if (sched_getaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE && g_serving_cpu < 0; ++cpu) {
      if (CPU_ISSET(cpu, &g_allowed_cpus)) g_serving_cpu = cpu;
    }
  }
  pin_to_serving_cpu();
  ei::common::set_thread_count(kServingLanes);
}

/// Lets the calling thread (and the pool workers it starts) use every CPU
/// it was allowed at start-up, for the kernel probes.
void unpin() { sched_setaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus); }

void print_stamp(const Spec& spec, const std::string& mode, std::uint64_t seed, double seconds) {
  Json stamp{JsonObject{}};
  stamp.set("workload", spec.name);
  stamp.set("mode", mode);
  stamp.set("seed", static_cast<std::uint64_t>(seed));
  stamp.set("seconds", seconds);
  ei::bench::set_host_info(stamp, true, "ledger");
  stamp.set("build_type", std::string(ALEMBENCH_BUILD_TYPE));
  const char* threads = std::getenv("OPENEI_THREADS");
  stamp.set("openei_threads", threads != nullptr ? std::string(threads) : std::string("unset"));
  stamp.set("compute_threads", ei::common::thread_count());
  stamp.set("serving_cpu", g_serving_cpu);
  std::printf("host %s\n", stamp.dump().c_str());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-44s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  Json values{JsonObject{}};
  for (const Metric& m : metrics) {
    Json entry{JsonObject{}};
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    values.set(m.name, std::move(entry));
  }
  Json out{JsonObject{}};
  out.set("correct", correct);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", std::move(values));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
}

std::string describe(const std::vector<double>& latency_ms) {
  double q = tail_quantile(latency_ms.size());
  char text[200];
  std::snprintf(text, sizeof(text), "n=%zu p50=%.4f p99=%.4f (tail p%.1f=%.4f) max=%.4f ms",
                latency_ms.size(), quantile(latency_ms, 0.5), quantile(latency_ms, 0.99),
                q * 100.0, quantile(latency_ms, q), quantile(latency_ms, 1.0));
  return text;
}

constexpr std::size_t kSetups = 30;
/// Each round holds an open-loop, a closed-loop and a swap phase, so every
/// phase samples the whole run.
constexpr double kRoundSeconds = 2.5;
constexpr double kWarmupSeconds = 1.0;

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

int run_end_to_end(const Spec& spec, const Inputs& in, std::uint64_t seed, double seconds) {
  std::vector<double> setups;
  std::unique_ptr<System> system;
  for (std::size_t i = 0; i < kSetups; ++i) {
    system.reset();
    setups.push_back(timed_setup(spec, in, false, false, &system));
  }
  Runner runner(spec, in);
  PhaseResult all = runner.reads(*system, PhasePlan{0.0, kWarmupSeconds, false, false, seed ^ 0x5EED});

  // Rounds of (open-loop slice, closed-loop slice, sequential swaps).
  double busy0 = system->busy_j();
  std::pair<double, double> steal0 = cpu_steal_ticks();
  std::size_t warm_reads = all.reads_ok;
  // Per-round latency figures; the gated values are their medians, so a
  // stall that hits a few rounds moves a run's figure less than a slower
  // program.  Closed-loop throughput swings between rounds as the three
  // connections fall in and out of step with the micro-batcher, so it pools
  // every round instead: all closed-loop reads over all closed-loop time.
  std::vector<double> latency;  // open-loop reads of every round, printed
  std::vector<double> round_p50;
  std::vector<double> round_p90;
  std::size_t closed_reads = 0;
  double closed_seconds = 0.0;
  auto rounds = static_cast<std::size_t>(std::max(1.0, std::round(seconds / kRoundSeconds)));
  double share = seconds / static_cast<double>(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    std::pair<double, double> round_steal0 = cpu_steal_ticks();
    PhaseResult open = runner.reads(
        *system, PhasePlan{(1.0 - spec.closed_share) * share, 0.0, true, false, seed * 131 + r});
    PhaseResult closed = runner.reads(
        *system, PhasePlan{0.0, spec.closed_share * share, true, false, seed * 137 + r});
    if (spec.post_swaps > 0) all.merge(runner.post_swaps(*system, spec.post_swaps));
    all.merge(open);
    all.merge(closed);
    round_p50.push_back(quantile(open.latency_ms, 0.5));
    round_p90.push_back(quantile(open.latency_ms, 0.9));
    closed_reads += closed.reads_ok;
    closed_seconds += closed.seconds;
    std::printf("round %zu: open %s; late p99 %.4f ms; closed %.1f reads/s; steal %.1f%%;",
                r, describe(open.latency_ms).c_str(), quantile(open.late_ms, 0.99),
                static_cast<double>(closed.reads_ok) / closed.seconds,
                steal_pct_since(round_steal0));
    for (const auto& [model, count] : open.served_by) std::printf(" %s=%zu", model.c_str(), count);
    std::printf("\n");
    latency.insert(latency.end(), open.latency_ms.begin(), open.latency_ms.end());
  }
  double busy_j = system->busy_j() - busy0;
  // Printed, not used: a run whose rounds lost CPU to other guests reads
  // slower on every timing metric.
  std::printf("host steal over the rounds: %.1f%% of CPU time\n", steal_pct_since(steal0));
  // The tail is printed, not gated: every burst in which the hypervisor runs
  // another guest stalls every request in flight on the serving CPU, so
  // once it steals a tenth of that CPU a tenth of the reads wait out a
  // stall, and p90 follows the neighbours rather than the program.
  std::printf("all rounds pooled: %s\n", describe(latency).c_str());
  std::printf("latency p90, median over rounds (not gated): %.4f ms\n", p50(round_p90));
  // swap_p50_ms: geometric mean over the models of each model's median
  // swap latency, so every timed swap counts and the mix of payload sizes
  // (22 KB to 1.4 MB in lifecycle_churn) is the same in every run.
  double log_sum = 0.0;
  std::printf("swap p50 by model:");
  for (const auto& [index, ms] : all.swap_ms) {
    log_sum += std::log(p50(ms));
    std::printf(" %s=%.3f ms (n=%zu)", in.models[index].model.name().c_str(), p50(ms), ms.size());
  }
  double swap_geomean_ms =
      std::exp(log_sum / static_cast<double>(std::max<std::size_t>(all.swap_ms.size(), 1)));
  std::printf("\nsetups:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf(" s\n");
  if (!all.first_error.empty()) std::printf("first failure: %s\n", all.first_error.c_str());

  std::vector<Metric> metrics{
      {"setup_s", p50(setups), "s"},
      {"latency_p50_ms", p50(round_p50), "ms"},
      {"throughput_rps", static_cast<double>(closed_reads) / closed_seconds, "1/s"},
      {"success_ratio",
       all.attempted == 0 ? 0.0
                          : static_cast<double>(all.attempted - all.failed) /
                                static_cast<double>(all.attempted),
       "ratio"},
      {"energy_mj_per_req", busy_j * 1e3 / static_cast<double>(all.reads_ok - warm_reads),
       "mJ"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"swap_p50_ms", swap_geomean_ms, "ms"},
  };
  system.reset();
  print_result(all.failed == 0, all.attempted, all.failed, metrics);
  return all.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

/// Kernel probes at mini-VGG shapes: GF/s (GOP/s for int8) at 1 thread and
/// at the default thread count, with operation count and computed bytes
/// moved per call.
void kernel_metrics(std::vector<Metric>& out) {
  ei::common::Rng rng(77);
  struct ConvShape {
    std::size_t in_c, out_c, hw;
  };
  const std::vector<ConvShape> convs{{3, 16, 16}, {16, 16, 16}, {16, 32, 8}, {32, 32, 8}};
  struct ConvCase {
    ei::nn::Tensor input, weights, bias;
    ei::tensor::Conv2dSpec spec;
  };
  std::vector<ConvCase> conv_cases;
  double conv_flop = 0.0;
  double conv_bytes = 0.0;
  for (const ConvShape& c : convs) {
    ei::tensor::Conv2dSpec spec{c.in_c, c.out_c, 3, 1, 1};
    conv_cases.push_back(ConvCase{
        ei::nn::Tensor::random_uniform(ei::tensor::Shape{1, c.in_c, c.hw, c.hw}, rng),
        ei::nn::Tensor::random_uniform(ei::tensor::Shape{c.out_c, c.in_c, 3, 3}, rng),
        ei::nn::Tensor::random_uniform(ei::tensor::Shape{c.out_c}, rng), spec});
    double pixels = static_cast<double>(c.hw * c.hw);
    double patch = static_cast<double>(c.in_c * 9);
    conv_flop += 2.0 * pixels * patch * static_cast<double>(c.out_c);
    // input + weights + bias + output, plus the im2col matrix written once
    // and read once.
    conv_bytes += 4.0 * (static_cast<double>(c.in_c) * pixels + patch * static_cast<double>(c.out_c) +
                         static_cast<double>(c.out_c) * (1.0 + pixels) + 2.0 * pixels * patch);
  }
  struct DenseShape {
    std::size_t m, k, n;
  };
  const std::vector<DenseShape> dense{{1, 512, 96}, {1, 96, 4}};
  std::vector<std::vector<float>> a_f;
  std::vector<std::vector<std::int8_t>> a_q;
  std::vector<ei::tensor::QuantParams> a_params;
  std::vector<ei::tensor::PackedMatrix> b_f;
  std::vector<ei::tensor::PackedQuantMatrix> b_q;
  std::vector<std::vector<float>> c_f;
  double dense_flop = 0.0;
  double gemm_bytes = 0.0;
  double qgemm_bytes = 0.0;
  for (const DenseShape& d : dense) {
    ei::nn::Tensor a = ei::nn::Tensor::random_uniform(ei::tensor::Shape{d.m, d.k}, rng);
    ei::nn::Tensor b = ei::nn::Tensor::random_uniform(ei::tensor::Shape{d.k, d.n}, rng);
    a_f.emplace_back(a.data().begin(), a.data().end());
    b_f.push_back(ei::tensor::PackedMatrix::pack(b));
    b_q.push_back(ei::tensor::PackedQuantMatrix::pack_transposed(b, true));
    ei::tensor::QuantParams params = ei::tensor::QuantParams::choose(-1.0F, 1.0F);
    std::vector<std::int8_t> q(d.m * d.k);
    ei::tensor::quantize_to_int8(a.data().data(), q.size(), params, q.data());
    a_q.push_back(std::move(q));
    a_params.push_back(params);
    c_f.emplace_back(d.m * d.n);
    double mk = static_cast<double>(d.m * d.k);
    double kn = static_cast<double>(d.k * d.n);
    double mn = static_cast<double>(d.m * d.n);
    dense_flop += 2.0 * mk * static_cast<double>(d.n);
    gemm_bytes += 4.0 * (mk + kn + mn);
    qgemm_bytes += mk + kn + 4.0 * mn;
  }
  // Repeats the call set for at least 0.2 s; returns calls per second.
  auto rate = [](auto&& call_set) {
    for (int i = 0; i < 3; ++i) call_set();
    std::int64_t t0 = now_ns();
    std::size_t calls = 0;
    while (now_ns() - t0 < 200'000'000) {
      call_set();
      ++calls;
    }
    return static_cast<double>(calls) / seconds_since(t0);
  };
  auto conv = [&] {
    for (const ConvCase& c : conv_cases) {
      ei::nn::Tensor y = ei::tensor::conv2d_im2col(c.input, c.weights, c.bias, c.spec);
      asm volatile("" : : "r"(y.data().data()) : "memory");
    }
  };
  auto gemm = [&] {
    for (std::size_t i = 0; i < dense.size(); ++i) {
      ei::tensor::gemm_packed(a_f[i].data(), dense[i].m, b_f[i], nullptr, false, false,
                              c_f[i].data());
    }
    asm volatile("" : : : "memory");
  };
  auto qgemm = [&] {
    for (std::size_t i = 0; i < dense.size(); ++i) {
      ei::tensor::qgemm(a_q[i].data(), dense[i].m, dense[i].k, a_params[i], b_q[i], nullptr,
                        false, c_f[i].data());
    }
    asm volatile("" : : : "memory");
  };
  unpin();
  for (int threads : {1, 0}) {
    ei::common::set_thread_count(static_cast<std::size_t>(threads));
    std::string suffix = threads == 1 ? ".t1" : ".tdef";
    out.push_back({"tensor.conv_gflops" + suffix, rate(conv) * conv_flop * 1e-9, "GFLOP/s"});
    out.push_back({"tensor.gemm_gflops" + suffix, rate(gemm) * dense_flop * 1e-9, "GFLOP/s"});
    out.push_back({"tensor.qgemm_gops" + suffix, rate(qgemm) * dense_flop * 1e-9, "GOP/s"});
  }
  ei::common::set_thread_count(kServingLanes);
  pin_to_serving_cpu();
  out.push_back({"tensor.conv_flop_per_call", conv_flop, "FLOP"});
  out.push_back({"tensor.conv_bytes_per_call", conv_bytes, "B"});
  out.push_back({"tensor.gemm_flop_per_call", dense_flop, "FLOP"});
  out.push_back({"tensor.gemm_bytes_per_call", gemm_bytes, "B"});
  out.push_back({"tensor.qgemm_op_per_call", dense_flop, "OP"});
  out.push_back({"tensor.qgemm_bytes_per_call", qgemm_bytes, "B"});
}

/// Every model any workload serves, measured in-process at 1 row on the
/// edge_server profile: session run time and hwsim's predicted latency.
std::map<std::string, double> model_metrics(std::vector<Metric>& out) {
  std::vector<Deployment> all;
  for (const Spec& spec : {fleet_tabular_spec(), node_vision_spec(), lifecycle_churn_spec()}) {
    std::vector<Deployment> models = spec.build();
    std::size_t take = spec.fleet ? 1 : models.size();  // the MLPs share one shape
    for (std::size_t i = 0; i < take; ++i) all.push_back(std::move(models[i]));
  }
  std::map<std::string, double> run_us;
  ei::common::Rng rng(91);
  for (Deployment& d : all) {
    std::string name = d.model.name() == "tab_k0" ? "mlp" : d.model.name();
    std::vector<std::size_t> dims{1};
    for (std::size_t a = 0; a < d.model.input_shape().rank(); ++a) {
      dims.push_back(d.model.input_shape().dim(a));
    }
    ei::nn::Tensor batch = ei::nn::Tensor::random_uniform(ei::tensor::Shape(dims), rng);
    double predicted_s =
        ei::selector::estimate_capability(d.model, d.accuracy, ei::hwsim::openei_package(),
                                          ei::hwsim::edge_server())
            .alem.latency_s;
    ei::runtime::InferenceSession session(std::move(d.model), ei::hwsim::openei_package(),
                                          ei::hwsim::edge_server());
    double us = median_us(200, [&] { session.run(batch); });
    run_us[name] = us;
    out.push_back({"runtime.session_run_us." + name, us, "us"});
    out.push_back({"hwsim.latency_pred_over_measured." + name, predicted_s * 1e6 / us, "ratio"});
  }
  return run_us;
}

/// The fleet layer's metrics since `before`: route self time (the router's
/// handling of each tagged read minus the node handler time that read
/// caused), retries per read, and node connections per forward.
void fleet_metrics(System& system, const ei::net::ServerStats& before,
                   std::uint64_t retries_before, std::size_t reads, std::vector<Metric>& out) {
  std::vector<double> self_us;
  {
    std::lock_guard<std::mutex> lock(system.timings().mutex);
    for (const auto& [tag, us] : system.timings().route_us) {
      auto it = system.timings().node_us_by_tag.find(tag);
      if (tag.empty() || it == system.timings().node_us_by_tag.end()) continue;
      self_us.push_back(us - it->second);
    }
  }
  out.push_back({"fleet.route_self_us_p50", quantile(self_us, 0.5), "us"});
  out.push_back({"fleet.route_self_us_p99", quantile(self_us, 0.99), "us"});
  out.push_back({"fleet.retries_per_req",
                 static_cast<double>(system.retries() - retries_before) /
                     static_cast<double>(std::max<std::size_t>(1, reads)),
                 "ratio"});
  ei::net::ServerStats after = system.node_stats();
  out.push_back({"net.node_connects_per_forward",
                 static_cast<double>(after.connections_accepted - before.connections_accepted) /
                     static_cast<double>(std::max<std::uint64_t>(
                         1, after.requests_served - before.requests_served)),
                 "ratio"});
}

int run_layers(const Spec& spec, const Inputs& in, std::uint64_t seed, double seconds) {
  std::vector<Metric> metrics;
  std::unique_ptr<System> plain;
  std::unique_ptr<System> traced;
  // Both copies sit behind the bench's timing wrappers and get tagged reads,
  // so program tracing is the only difference between them.
  timed_setup(spec, in, false, true, &plain);
  timed_setup(spec, in, true, true, &traced);
  // One runner per copy: each keeps its own place in the swap sequence, so
  // a rollback always follows the swap it undoes on the same copy.
  Runner plain_runner(spec, in);
  Runner traced_runner(spec, in);
  PhaseResult warm;
  warm.merge(plain_runner.reads(*plain, PhasePlan{0.0, kWarmupSeconds / 2, false, true, seed ^ 1}));
  warm.merge(traced_runner.reads(*traced, PhasePlan{0.0, kWarmupSeconds / 2, false, true, seed ^ 2}));
  traced->timings().clear();

  // Alternate untraced and traced open-loop phases of equal length.
  std::vector<ei::libei::EiService*> services = traced->services();
  auto cache_stats = [&services] {
    ei::runtime::SessionCache::Stats sum;
    for (auto* s : services) {
      auto st = s->lifecycle().stats();
      sum.hits += st.hits;
      sum.misses += st.misses;
      sum.evictions += st.evictions;
      sum.invalidations += st.invalidations;
    }
    return sum;
  };
  auto flushes = [&services] {
    std::uint64_t total = 0;
    for (auto* s : services) total += s->metrics().batch_flushes;
    return total;
  };
  ei::runtime::SessionCache::Stats cache0 = cache_stats();
  std::uint64_t flushes0 = flushes();
  ei::net::ServerStats node0 = traced->node_stats();
  ei::net::ServerStats front0 = traced->front_stats();
  std::uint64_t retries0 = traced->retries();

  // Two rounds of: untraced open-loop slice, traced open-loop slice, traced
  // closed-loop slice, then sequential swaps on the traced copy.
  PhaseResult off;
  PhaseResult on;
  PhaseResult busy;
  PhaseResult swaps;
  double share = seconds / 2.0;
  double open_slice = (1.0 - spec.closed_share) * share / 2.0;
  // Which of the traced copy's handler timings belong to its open-loop
  // reads, so that net.client_overhead_us subtracts the handler time of the
  // same reads the client timed.
  std::vector<std::pair<std::size_t, std::size_t>> open_handled;
  auto reads_handled = [&traced] {
    std::lock_guard<std::mutex> lock(traced->timings().mutex);
    return traced->timings().handle_us["ei_algorithms"].size();
  };
  std::pair<double, double> steal0 = cpu_steal_ticks();
  for (std::uint64_t round = 0; round < 2; ++round) {
    off.merge(plain_runner.reads(*plain, PhasePlan{open_slice, 0.0, true, true,
                                             seed * 131 + round}));
    std::size_t handled0 = reads_handled();
    on.merge(traced_runner.reads(*traced, PhasePlan{open_slice, 0.0, true, true,
                                             seed * 131 + round}));
    open_handled.emplace_back(handled0, reads_handled());
    busy.merge(traced_runner.reads(*traced, PhasePlan{0.0, spec.closed_share * share,
                                               true, true,
                                               seed * 137 + round}));
    if (spec.post_swaps > 0) swaps.merge(traced_runner.post_swaps(*traced, spec.post_swaps));
  }
  std::printf("host steal over the rounds: %.1f%% of CPU time\n", steal_pct_since(steal0));
  double traced_seconds = on.seconds + busy.seconds;
  PhaseResult all = warm;
  all.merge(off);
  all.merge(on);
  all.merge(busy);
  all.merge(swaps);

  ei::runtime::SessionCache::Stats cache1 = cache_stats();
  std::uint64_t flush_delta = flushes() - flushes0;
  ei::net::ServerStats front1 = traced->front_stats();

  // --- obs, loadgen, net, libei (bench-timed handler) ----------------------
  double p50_off = quantile(off.latency_ms, 0.5);
  double p50_on = quantile(on.latency_ms, 0.5);
  metrics.push_back({"obs.trace_overhead_pct", (p50_on / p50_off - 1.0) * 100.0, "%"});
  std::vector<double> late = off.late_ms;
  late.insert(late.end(), on.late_ms.begin(), on.late_ms.end());
  metrics.push_back({"loadgen.late_p99_ms", quantile(late, 0.99), "ms"});

  std::map<std::string, std::vector<double>> handle_us;
  {
    std::lock_guard<std::mutex> lock(traced->timings().mutex);
    handle_us = traced->timings().handle_us;
  }
  std::vector<double> open_handle_us;
  const std::vector<double>& read_handle_us = handle_us["ei_algorithms"];
  for (auto [begin, end] : open_handled) {
    open_handle_us.insert(open_handle_us.end(),
                          read_handle_us.begin() + static_cast<std::ptrdiff_t>(begin),
                          read_handle_us.begin() + static_cast<std::ptrdiff_t>(end));
  }
  metrics.push_back(
      {"net.client_overhead_us", p50_on * 1e3 - quantile(open_handle_us, 0.5), "us"});
  metrics.push_back(
      {"libei.handle_us.ei_algorithms", quantile(handle_us["ei_algorithms"], 0.5), "us"});
  metrics.push_back({"libei.handle_us.ei_models", quantile(handle_us["ei_models"], 0.5), "us"});
  metrics.push_back(
      {"net.front_door_keepalive_reuse",
       static_cast<double>(front1.keepalive_reuses - front0.keepalive_reuses) /
           static_cast<double>(std::max<std::uint64_t>(1, front1.requests_served -
                                                              front0.requests_served)),
       "ratio"});

  // --- fleet: this workload's router, or a fixed probe fleet ---------------
  if (spec.fleet) {
    fleet_metrics(*traced, node0, retries0, on.attempted + busy.attempted, metrics);
  } else {
    Spec probe_spec = fleet_tabular_spec();
    Inputs probe_in = make_inputs(probe_spec, seed, 64);
    std::unique_ptr<System> probe;
    timed_setup(probe_spec, probe_in, true, true, &probe);
    Runner probe_runner(probe_spec, probe_in);
    PhaseResult p = probe_runner.reads(*probe, PhasePlan{0.0, 0.2, false, true, seed ^ 3});
    probe->timings().clear();
    ei::net::ServerStats p0 = probe->node_stats();
    std::uint64_t r0 = probe->retries();
    PhaseResult measured = probe_runner.reads(*probe, PhasePlan{0.0, 0.5, false, true, seed ^ 4});
    fleet_metrics(*probe, p0, r0, measured.attempted, metrics);
    p.merge(measured);
    all.attempted += p.attempted;
    all.failed += p.failed;
    if (all.first_error.empty()) all.first_error = p.first_error;
  }

  // --- libei stages and runtime queueing from the program's own spans ------
  std::map<std::string, std::vector<double>> span_us;
  std::vector<double> queue_wait_us;
  for (auto* service : services) {
    for (std::uint64_t id : service->tracer().recent_trace_ids()) {
      std::optional<ei::obs::TraceRecord> trace = service->tracer().find(id);
      if (!trace || trace->spans.empty()) continue;
      const auto* path = trace->root().find_attribute("path");
      if (path == nullptr || path->text.rfind("/ei_algorithms", 0) != 0) continue;
      std::vector<std::pair<std::string, double>> self = self_times(*trace);
      for (std::size_t i = 0; i < trace->spans.size(); ++i) {
        const ei::obs::SpanRecord& span = trace->spans[i];
        if (span.name == "ei.request") span_us["request_self"].push_back(self[i].second);
        if (span.name == "ei.infer") span_us["infer"].push_back(span.duration_us());
        if (span.name == "ei.parse" || span.name == "ei.select" ||
            span.name == "ei.serialize") {
          span_us[span.name.substr(3)].push_back(self[i].second);
        }
        if (span.name == "ei.batch") {
          if (const auto* wait = span.find_attribute("queue_wait_us")) {
            queue_wait_us.push_back(wait->number);
          }
        }
      }
    }
  }
  for (const char* stage : {"parse", "select", "infer", "serialize", "request_self"}) {
    metrics.push_back({std::string("libei.") + stage + "_us", quantile(span_us[stage], 0.5), "us"});
  }
  metrics.push_back({"runtime.queue_wait_us", quantile(queue_wait_us, 0.5), "us"});
  metrics.push_back({"runtime.batch_rows_mean",
                     static_cast<double>(on.rows_ok + busy.rows_ok) /
                         static_cast<double>(std::max<std::uint64_t>(1, flush_delta)),
                     "rows"});
  double lookups = static_cast<double>((cache1.hits - cache0.hits) + (cache1.misses - cache0.misses));
  metrics.push_back({"runtime.cache_hit_ratio",
                     static_cast<double>(cache1.hits - cache0.hits) / std::max(1.0, lookups),
                     "ratio"});
  metrics.push_back({"runtime.evictions_per_s",
                     static_cast<double>(cache1.evictions - cache0.evictions) / traced_seconds,
                     "1/s"});
  metrics.push_back({"runtime.invalidations",
                     static_cast<double>(cache1.invalidations - cache0.invalidations), "count"});

  // --- selector -------------------------------------------------------------
  std::map<std::string, double> run_us = model_metrics(metrics);
  auto measured_us = [&run_us](const std::string& name) {
    auto it = run_us.find(name);
    return it == run_us.end() ? 0.0 : it->second;  // one variant: trivially fastest
  };
  std::size_t fastest_served = 0;
  std::size_t served = 0;
  for (const auto& [model, count] : all.served_by) {
    served += count;
    const std::string& key = in.key_of.at(model);
    std::string best;
    for (const Deployment& d : in.models) {
      if (d.scenario + "/" + d.algorithm != key) continue;
      if (best.empty() || measured_us(d.model.name()) < measured_us(best)) best = d.model.name();
    }
    if (best == model) fastest_served += count;
  }
  metrics.push_back({"selector.fastest_choice_ratio",
                     static_cast<double>(fastest_served) / static_cast<double>(std::max<std::size_t>(1, served)),
                     "ratio"});
  {
    ei::selector::CapabilityDatabase db;
    const std::string& key = in.key_of.begin()->second;
    for (const Deployment& d : in.models) {
      if (d.scenario + "/" + d.algorithm != key) continue;
      db.add(ei::selector::estimate_capability(d.model, d.accuracy, ei::hwsim::openei_package(),
                                               spec.fleet ? ei::hwsim::raspberry_pi_4() : spec.device));
    }
    ei::selector::SelectionRequest request;
    if (!spec.query.empty()) request.objective = ei::selector::Objective::kMinLatency;
    constexpr int kCalls = 2000;
    double us = median_us(9, [&] {
                  for (int i = 0; i < kCalls; ++i) {
                    auto chosen = ei::selector::select(db, request);
                    asm volatile("" : : "r"(&chosen) : "memory");
                  }
                }) /
                kCalls;
    metrics.push_back({"selector.select_us", us, "us"});
  }

  // --- cold path: session materialization, model load, JSON parse ----------
  {
    std::vector<double> miss_us;
    for (std::size_t r = 0; r < 3; ++r) {
      for (const Deployment& d : in.models) {
        for (auto* service : services) {
          service->lifecycle().clear();
          std::int64_t t0 = now_ns();
          auto lease = service->lifecycle().acquire(d.model.name(), true);
          miss_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        }
      }
    }
    metrics.push_back({"runtime.acquire_miss_us", p50(miss_us), "us"});
  }
  {
    std::vector<double> load_ms;
    std::vector<double> parse_mb_s;
    for (const auto& [name, payload] : in.payload) {
      load_ms.push_back(median_us(3, [&] { ei::nn::load_model(payload); }) * 1e-3);
      double us = median_us(3, [&] { Json::parse(payload); });
      parse_mb_s.push_back(static_cast<double>(payload.size()) / us);
    }
    metrics.push_back({"nn.load_model_ms", p50(load_ms), "ms"});
    metrics.push_back({"common.json_parse_mb_s", p50(parse_mb_s), "MB/s"});
    std::size_t one_row = 0;
    while (one_row + 1 < in.reads.rows.size() && in.reads.rows[one_row] != 1) ++one_row;
    const std::string& body = in.reads.body[one_row];
    metrics.push_back({"common.json_parse_us", median_us(200, [&] { Json::parse(body); }), "us"});
  }
  kernel_metrics(metrics);

  std::printf("untraced open loop: %s\n", describe(off.latency_ms).c_str());
  std::printf("traced open loop:   %s\n", describe(on.latency_ms).c_str());
  if (!all.first_error.empty()) std::printf("first failure: %s\n", all.first_error.c_str());
  traced.reset();
  plain.reset();
  print_result(all.failed == 0, all.attempted, all.failed, metrics);
  return all.failed == 0 ? 0 : 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.workload.empty() || args.seconds <= 0.0) {
    throw std::invalid_argument("usage: alembench --workload W --seed N --seconds S --trace 0|1");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ei::common::set_log_level(ei::common::LogLevel::kError);
    pin_serving();
    Args args = parse_args(argc, argv);
    Spec spec = spec_for(args.workload);
    Inputs inputs = make_inputs(spec, args.seed, 512);
    print_stamp(spec, args.trace ? "trace" : "end_to_end", args.seed, args.seconds);
    std::printf("swap payloads:");
    for (const auto& [name, payload] : inputs.payload) {
      std::printf(" %s=%zu B", name.c_str(), payload.size());
    }
    std::printf("\n");
    return args.trace ? run_layers(spec, inputs, args.seed, args.seconds)
                      : run_end_to_end(spec, inputs, args.seed, args.seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alembench: %s\n", e.what());
    return 1;
  }
}
