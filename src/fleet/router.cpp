#include "fleet/router.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/clock.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/strings.h"

namespace openei::fleet {

using common::Json;
using common::JsonArray;
using common::JsonObject;
using net::HttpRequest;
using net::HttpResponse;

Router::Router(std::vector<NodeEndpoint> nodes, RouterOptions options)
    : options_(std::move(options)),
      tracer_(options_.tracing),
      ring_(options_.vnodes_per_node, options_.seed) {
  OPENEI_CHECK(!nodes.empty(), "router needs at least one node");
  OPENEI_CHECK(options_.replication >= 1, "replication must be >= 1");
  OPENEI_CHECK(options_.node_failure_threshold >= 1,
               "node_failure_threshold must be >= 1");
  OPENEI_CHECK(options_.probe_every >= 1, "probe_every must be >= 1");
  meter_.describe("ei_fleet_requests_total",
                  "Requests routed through the fleet router, by outcome");
  meter_.describe("ei_fleet_forwards_total",
                  "Forward attempts per member node, by outcome");
  meter_.describe("ei_fleet_failovers_total",
                  "Requests that needed at least one replica hop");
  meter_.describe("ei_fleet_failbacks_total",
                  "Nodes returned to the ring after a successful probe");
  meter_.describe("ei_fleet_node_down_total",
                  "Nodes removed from the ring after forward failures");
  meter_.describe("ei_fleet_probes_total", "Failback health probes, by result");
  meter_.describe("ei_fleet_replications_total",
                  "Model copies pushed to owners during (re)placement");
  meter_.describe("ei_fleet_nodes", "Member nodes (static)");
  meter_.describe("ei_fleet_up_nodes", "Member nodes currently in the ring");
  meter_.describe("ei_fleet_route_latency_seconds",
                  "End-to-end routed request latency");
  members_.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    OPENEI_CHECK(find_member(nodes[i].id) == nullptr, "duplicate node id '",
                 nodes[i].id, "'");
    Member member;
    member.endpoint = nodes[i];
    net::ResilientClient::Options client_options = options_.client;
    client_options.seed = options_.client.seed + i;  // independent jitter
    client_options.metrics = resilience_;
    member.client = std::make_unique<net::ResilientClient>(
        nodes[i].port, std::move(client_options));
    members_.push_back(std::move(member));
    ring_.add_node(nodes[i].id);
  }
  meter_.gauge("ei_fleet_nodes").set(static_cast<double>(members_.size()));
  meter_.gauge("ei_fleet_up_nodes").set(static_cast<double>(members_.size()));
}

Router::~Router() { stop_server(); }

Router::Member* Router::find_member(const std::string& node_id) {
  for (Member& member : members_) {
    if (member.endpoint.id == node_id) return &member;
  }
  return nullptr;
}

const Router::Member* Router::find_member(const std::string& node_id) const {
  for (const Member& member : members_) {
    if (member.endpoint.id == node_id) return &member;
  }
  return nullptr;
}

std::string Router::routing_key(const HttpRequest& request) {
  // The session key spreads load *within* an owner set (see route()); the
  // placement key must stay scenario/algorithm so requests always land on
  // nodes that hold their models.
  auto segments = common::split_nonempty(request.path, '/');
  if (segments.size() >= 3 && segments[0] == "ei_algorithms") {
    return segments[1] + '/' + segments[2];
  }
  return request.path;
}

std::vector<std::string> Router::owners_of(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.owners(key, options_.replication);
}

bool Router::node_up(const std::string& node_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Member* member = find_member(node_id);
  return member != nullptr && member->up;
}

std::vector<std::string> Router::up_nodes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.nodes();
}

void Router::note_forward_failure(const std::string& node_id) {
  bool transitioned = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Member* member = find_member(node_id);
    if (member == nullptr || !member->up) return;
    if (++member->consecutive_failures < options_.node_failure_threshold) {
      return;
    }
    member->up = false;
    ring_.remove_node(node_id);
    ++down_count_;
    transitioned = true;
    meter_.gauge("ei_fleet_up_nodes")
        .set(static_cast<double>(ring_.node_count()));
  }
  if (transitioned) {
    common::log_info("fleet: node ", node_id, " marked down");
    meter_.counter("ei_fleet_node_down_total").increment();
    // Keys the dead node owned now resolve to new owner sets; make sure
    // those sets actually hold the models before the next request needs
    // them.
    replicate_tracked_models();
  }
}

void Router::note_forward_success(const std::string& node_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Member* member = find_member(node_id);
  if (member != nullptr) member->consecutive_failures = 0;
}

void Router::mark_down(const std::string& node_id) {
  // Force the threshold in one step (used by tests; the serving path goes
  // through note_forward_failure).
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Member* member = find_member(node_id);
    if (member == nullptr || !member->up) return;
    member->consecutive_failures = options_.node_failure_threshold - 1;
  }
  note_forward_failure(node_id);
}

void Router::mark_up(const std::string& node_id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Member* member = find_member(node_id);
    if (member == nullptr || member->up) return;
    member->up = true;
    member->consecutive_failures = 0;
    ring_.add_node(node_id);
    --down_count_;
    meter_.gauge("ei_fleet_up_nodes")
        .set(static_cast<double>(ring_.node_count()));
  }
  common::log_info("fleet: node ", node_id, " failed back into the ring");
  meter_.counter("ei_fleet_failbacks_total").increment();
  // The revived node re-enters the ring at its old points, so keys rebalance
  // back to it — and may need their models (a revived replacement process
  // starts empty; an in-process revive still has them, the push then 201s as
  // a harmless hot-swap of the identical model).
  replicate_tracked_models();
}

std::size_t Router::probe_down_nodes() {
  // Snapshot the down set; probing does network I/O and must not hold the
  // state mutex.
  std::vector<std::string> down;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Member& member : members_) {
      if (!member.up) down.push_back(member.endpoint.id);
    }
  }
  std::size_t revived = 0;
  for (const std::string& node_id : down) {
    obs::Span probe_span = tracer_.begin_trace("fleet.probe");
    if (probe_span.active()) probe_span.set_attribute("node", node_id);
    Member* member = find_member(node_id);  // members_ vector never resizes
    bool alive = member->client->probe(options_.probe_target);
    meter_
        .counter("ei_fleet_probes_total",
                 {{"result", alive ? "up" : "down"}})
        .increment();
    if (probe_span.active()) {
      probe_span.set_attribute("alive", alive ? 1.0 : 0.0);
    }
    if (alive) {
      mark_up(node_id);
      ++revived;
    }
  }
  return revived;
}

void Router::maybe_probe() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (down_count_ == 0) return;
    if (++requests_since_probe_ < options_.probe_every) return;
    requests_since_probe_ = 0;
  }
  probe_down_nodes();
}

HttpResponse Router::route(const std::string& method, const std::string& target,
                           const std::string& body) {
  HttpRequest request;
  request.method = method;
  net::parse_target(target, request.path, request.query);
  request.body = body;
  return route(request);
}

HttpResponse Router::route(const HttpRequest& request) {
  common::Stopwatch route_timer;
  maybe_probe();

  // Model management is placement-aware: a deploy through the front door
  // replicates to the key's owner set, and model-addressed calls route by
  // the model's *placement* key (scenario/algorithm), not the URL path.
  auto segments = common::split_nonempty(request.path, '/');
  if (!segments.empty() && segments[0] == "ei_models") {
    if (request.method == "POST" && segments.size() == 1) {
      auto scenario = request.query.find("scenario");
      auto algorithm = request.query.find("algorithm");
      if (scenario == request.query.end() ||
          algorithm == request.query.end()) {
        return HttpResponse::json(
            400, R"({"error":"model deployment needs scenario and algorithm"})");
      }
      double accuracy = 0.0;
      if (auto it = request.query.find("accuracy");
          it != request.query.end()) {
        accuracy = std::stod(it->second);
      }
      std::size_t replicas;
      try {
        replicas = deploy(scenario->second, algorithm->second, request.body,
                          accuracy);
      } catch (const Error& e) {
        return HttpResponse::error(400, e.what());
      }
      Json out{JsonObject{}};
      out.set("deployed", Json::parse(request.body).at("name").as_string());
      out.set("replicas", replicas);
      return HttpResponse::json(201, out.dump());
    }
    if (request.method == "DELETE" && segments.size() == 2) {
      return undeploy(segments[1], request);
    }
  }

  std::string key = routing_key(request);
  if (segments.size() == 2 && segments[0] == "ei_models") {
    // GET /ei_models/{name}: address the model where it was placed.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tracked_.find(segments[1]);
    if (it != tracked_.end()) {
      key = it->second.scenario + '/' + it->second.algorithm;
    }
  }
  obs::Span root = tracer_.begin_trace("fleet.route");
  if (root.active()) {
    root.set_attribute("method", request.method);
    root.set_attribute("path", request.path);
    root.set_attribute("key", key);
  }

  // Reassemble the raw target (path + query) for the forwarded request.
  std::string target = request.path;
  char separator = '?';
  for (const auto& [name, value] : request.query) {
    target += separator + name + '=' + value;
    separator = '&';
  }

  std::vector<std::string> owners;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    owners = ring_.owners(key, options_.replication);
  }
  auto finish = [&](HttpResponse response, const char* outcome) {
    meter_.counter("ei_fleet_requests_total", {{"outcome", outcome}})
        .increment();
    meter_.histogram("ei_fleet_route_latency_seconds")
        .record(route_timer.elapsed_seconds());
    if (root.active()) {
      root.set_attribute("outcome", outcome);
      root.set_attribute("status", static_cast<double>(response.status));
    }
    return response;
  };
  if (owners.empty()) {
    return finish(HttpResponse::json(
                      503, R"({"error":"fleet_unavailable","detail":"no node is up"})"),
                  "no_node");
  }

  // Session spreading: a `session` key rotates which owner is tried first,
  // so independent sessions of one hot key load-balance across its replica
  // set while failover order stays intact.
  std::size_t first = 0;
  if (auto it = request.query.find("session"); it != request.query.end()) {
    first = static_cast<std::size_t>(ring_hash(it->second, options_.seed)) %
            owners.size();
  }

  std::string last_error;
  std::optional<HttpResponse> replica_miss;
  for (std::size_t hop = 0; hop < owners.size(); ++hop) {
    const std::string& node_id = owners[(first + hop) % owners.size()];
    Member* member = find_member(node_id);
    obs::Span forward = root.active() ? root.child("fleet.forward") : obs::Span();
    if (forward.active()) {
      forward.set_attribute("node", node_id);
      forward.set_attribute("port",
                            static_cast<double>(member->endpoint.port));
      forward.set_attribute("hop", static_cast<double>(hop));
    }
    try {
      HttpResponse response =
          request.method == "GET"
              ? member->client->get(target)
              : request.method == "DELETE"
                    ? member->client->del(target)
                    : member->client->post(target, request.body);
      note_forward_success(node_id);
      if (forward.active()) {
        forward.set_attribute("status", static_cast<double>(response.status));
      }
      if (response.status == 404 && hop + 1 < owners.size()) {
        // A healthy owner without the data: after a membership change the
        // owner set shifts before re-replication lands, so a freshly
        // promoted owner can miss while a surviving replica still serves.
        // Try the peers; if every owner misses, the 404 is the answer.
        meter_
            .counter("ei_fleet_forwards_total",
                     {{"node", node_id}, {"outcome", "miss"}})
            .increment();
        replica_miss = std::move(response);
        continue;
      }
      meter_
          .counter("ei_fleet_forwards_total",
                   {{"node", node_id}, {"outcome", "ok"}})
          .increment();
      if (hop > 0) {
        meter_.counter("ei_fleet_failovers_total").increment();
      }
      return finish(std::move(response), hop > 0 ? "failover" : "ok");
    } catch (const IoError& e) {
      // Timeout, refused, reset, or an already-open breaker: the node is
      // unreachable as far as this request is concerned.  Count it toward
      // the node's health and try the next replica.
      last_error = e.what();
      meter_
          .counter("ei_fleet_forwards_total",
                   {{"node", node_id}, {"outcome", "error"}})
          .increment();
      if (forward.active()) forward.set_attribute("error", last_error);
      note_forward_failure(node_id);
    }
  }
  if (replica_miss.has_value()) {
    return finish(std::move(*replica_miss), "miss");
  }
  Json body{JsonObject{}};
  body.set("error", "fleet_unavailable");
  body.set("key", key);
  body.set("owners_tried", owners.size());
  body.set("detail", last_error);
  return finish(HttpResponse::json(503, body.dump()), "failed");
}

HttpResponse Router::undeploy(const std::string& name,
                              const HttpRequest& request) {
  // Fan the DELETE out to every owner (rollback=1 restores the prior
  // version everywhere instead).  The model stays tracked on rollback —
  // only a plain undeploy forgets it.
  bool rollback = false;
  if (auto it = request.query.find("rollback"); it != request.query.end()) {
    rollback = it->second != "0";
  }
  std::string key;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tracked_.find(name);
    if (it == tracked_.end()) {
      return HttpResponse::error(404, "no tracked model named '" + name + "'");
    }
    key = it->second.scenario + '/' + it->second.algorithm;
  }
  std::string target = "/ei_models/" + name + (rollback ? "?rollback=1" : "");
  HttpResponse last = HttpResponse::json(503, R"({"error":"fleet_unavailable"})");
  bool any_ok = false;
  for (const std::string& node_id : owners_of(key)) {
    Member* member = find_member(node_id);
    try {
      last = member->client->del(target);
      note_forward_success(node_id);
      if (last.status < 400) any_ok = true;
    } catch (const IoError&) {
      note_forward_failure(node_id);
    }
  }
  if (any_ok && !rollback) {
    std::lock_guard<std::mutex> lock(mutex_);
    tracked_.erase(name);
  }
  return last;
}

std::size_t Router::deploy(const std::string& scenario,
                           const std::string& algorithm,
                           const std::string& model_json, double accuracy) {
  // The model's own name keys the tracked table; parse it once up front so a
  // malformed body fails before any node sees it.
  Json doc = Json::parse(model_json);
  std::string name = doc.at("name").as_string();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tracked_[name] =
        TrackedModel{scenario, algorithm, model_json, accuracy};
  }
  replicate_tracked_models();
  // Report how many owners hold it now (replicate pushed to the missing).
  std::vector<std::string> owners = owners_of(scenario + '/' + algorithm);
  std::size_t placed = 0;
  for (const std::string& node_id : owners) {
    const Member* member = find_member(node_id);
    try {
      net::HttpClient check(member->endpoint.port, options_.client.deadline_s);
      if (check.get("/ei_models/" + name).status == 200) ++placed;
    } catch (const IoError&) {
    }
  }
  return placed;
}

void Router::replicate_tracked_models() {
  // One sweep at a time; concurrent triggers (two nodes dying at once)
  // queue up and each sees the latest placement.
  std::lock_guard<std::mutex> sweep(replicate_mutex_);
  struct Push {
    std::uint16_t port = 0;
    std::string node_id;
    std::string target;
    const std::string* body = nullptr;  // into tracked snapshot below
  };
  // Snapshot placement + tracked models under the state mutex.
  std::map<std::string, TrackedModel> tracked;
  std::map<std::string, std::vector<std::pair<std::string, std::uint16_t>>>
      owners_by_key;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tracked = tracked_;
    for (const auto& [name, model] : tracked) {
      std::string key = model.scenario + '/' + model.algorithm;
      if (owners_by_key.count(key) > 0) continue;
      std::vector<std::pair<std::string, std::uint16_t>> owners;
      for (const std::string& node_id :
           ring_.owners(key, options_.replication)) {
        owners.emplace_back(node_id, find_member(node_id)->endpoint.port);
      }
      owners_by_key[key] = std::move(owners);
    }
  }
  // Ask each owner what it already holds (one index call per node), then
  // push only the missing models.
  std::map<std::string, std::vector<std::string>> present;  // node -> names
  for (const auto& [key, owners] : owners_by_key) {
    for (const auto& [node_id, port] : owners) {
      if (present.count(node_id) > 0) continue;
      std::vector<std::string> names;
      try {
        net::HttpClient client(port, options_.client.deadline_s);
        Json index = Json::parse(client.get("/ei_models").body);
        for (const Json& row : index.at("models").as_array()) {
          names.push_back(row.at("name").as_string());
        }
      } catch (const std::exception&) {
        // Unreachable or malformed: treat as holding nothing; pushes below
        // will fail fast against the same dead endpoint and be retried by
        // the next sweep.
      }
      present[node_id] = std::move(names);
    }
  }
  for (const auto& [name, model] : tracked) {
    std::string key = model.scenario + '/' + model.algorithm;
    for (const auto& [node_id, port] : owners_by_key[key]) {
      const std::vector<std::string>& held = present[node_id];
      if (std::find(held.begin(), held.end(), name) != held.end()) continue;
      try {
        net::HttpClient client(port, options_.client.deadline_s);
        HttpResponse response = client.post(
            "/ei_models?scenario=" + model.scenario +
                "&algorithm=" + model.algorithm +
                "&accuracy=" + std::to_string(model.accuracy),
            model.model_json);
        if (response.status == 201) {
          meter_
              .counter("ei_fleet_replications_total", {{"node", node_id}})
              .increment();
        }
      } catch (const IoError&) {
        // Dead target: the owner set will change (or the node will come
        // back) and the next sweep repairs it.
      }
    }
  }
}

Json Router::fleet_status() const {
  Json out{JsonObject{}};
  std::lock_guard<std::mutex> lock(mutex_);
  out.set("replication", options_.replication);
  out.set("vnodes_per_node", ring_.vnodes_per_node());
  out.set("up_nodes", ring_.node_count());
  out.set("total_nodes", members_.size());
  std::map<std::string, double> ownership = ring_.ownership();
  JsonArray nodes;
  for (const Member& member : members_) {
    Json row{JsonObject{}};
    row.set("id", member.endpoint.id);
    row.set("port", member.endpoint.port);
    row.set("up", member.up);
    row.set("consecutive_failures", member.consecutive_failures);
    auto share = ownership.find(member.endpoint.id);
    row.set("ring_fraction", share != ownership.end() ? share->second : 0.0);
    net::BreakerSnapshot breaker = member.client->breaker_state();
    Json breaker_row{JsonObject{}};
    breaker_row.set("state", net::to_string(breaker.state));
    breaker_row.set("consecutive_failures", breaker.consecutive_failures);
    breaker_row.set("last_transition_unix_s", breaker.last_transition_unix_s);
    row.set("breaker", std::move(breaker_row));
    nodes.push_back(std::move(row));
  }
  out.set("nodes", Json(std::move(nodes)));
  JsonArray placements;
  for (const auto& [name, model] : tracked_) {
    std::string key = model.scenario + '/' + model.algorithm;
    Json row{JsonObject{}};
    row.set("model", name);
    row.set("key", key);
    JsonArray owners;
    for (const std::string& node_id :
         ring_.owners(key, options_.replication)) {
      owners.emplace_back(node_id);
    }
    row.set("owners", Json(std::move(owners)));
    placements.push_back(std::move(row));
  }
  out.set("placements", Json(std::move(placements)));
  out.set("resilience", resilience_->to_json());
  return out;
}

std::uint16_t Router::start_server(std::uint16_t port) {
  OPENEI_CHECK(server_ == nullptr, "router server already running");
  server_ = std::make_unique<net::HttpServer>(
      port, [this](const HttpRequest& request) {
        if (request.path == "/ei_fleet" && request.method == "GET") {
          return HttpResponse::json(200, fleet_status().dump());
        }
        if (request.path == "/ei_metrics" && request.method == "GET") {
          return HttpResponse{200, "text/plain; version=0.0.4",
                              meter_.render_prometheus()};
        }
        return route(request);
      },
      options_.front_door);
  return server_->port();
}

void Router::stop_server() {
  if (server_ != nullptr) {
    server_->stop();
    server_.reset();
  }
}

std::uint16_t Router::port() const {
  OPENEI_CHECK(server_ != nullptr, "router server not running");
  return server_->port();
}

}  // namespace openei::fleet
