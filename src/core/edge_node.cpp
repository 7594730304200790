#include "core/edge_node.h"

#include "common/error.h"
#include "nn/serialize.h"

namespace openei::core {

EdgeNode::EdgeNode(EdgeNodeConfig config)
    : config_(std::move(config)),
      store_(config_.sensor_capacity),
      service_(registry_, store_, config_.device, config_.package,
               config_.service) {}

EdgeNode::~EdgeNode() { stop_server(); }

void EdgeNode::deploy_model(const std::string& scenario,
                            const std::string& algorithm, nn::Model model,
                            double accuracy) {
  registry_.put(runtime::ModelEntry{scenario, algorithm, std::move(model),
                                    accuracy});
}

bool EdgeNode::undeploy_model(const std::string& name) {
  return registry_.erase(name);
}

bool EdgeNode::rollback_model(const std::string& name) {
  return registry_.rollback(name);
}

void EdgeNode::ingest(const std::string& sensor_id, double timestamp,
                      common::Json payload) {
  store_.append(sensor_id, datastore::Record{timestamp, std::move(payload)});
}

net::HttpResponse EdgeNode::call(const std::string& method,
                                 const std::string& target,
                                 const std::string& body) {
  net::HttpRequest request;
  request.method = method;
  net::parse_target(target, request.path, request.query);
  request.body = body;
  // Mirror the HTTP server's exception-to-status mapping so in-process and
  // over-the-wire callers observe identical semantics.
  try {
    return service_.handle(request);
  } catch (const ParseError& e) {
    return net::HttpResponse::error(400, e.what());
  } catch (const InvalidArgument& e) {
    return net::HttpResponse::error(400, e.what());
  } catch (const NotFound& e) {
    return net::HttpResponse::error(404, e.what());
  } catch (const std::exception& e) {
    return net::HttpResponse::error(500, e.what());
  }
}

void EdgeNode::fetch_model_from_peer(std::uint16_t peer_port,
                                     const std::string& name) {
  net::ResilientClient::Options options;
  options.metrics = service_.resilience();
  net::ResilientClient peer(peer_port, options);
  net::HttpResponse response = peer.get("/ei_models/" + name);
  if (response.status == 404) {
    throw NotFound("peer has no model named '" + name + "'");
  }
  OPENEI_CHECK(response.status == 200, "peer returned HTTP ", response.status,
               " for model '", name, "'");
  common::Json doc = common::Json::parse(response.body);
  runtime::ModelEntry entry{doc.at("scenario").as_string(),
                            doc.at("algorithm").as_string(),
                            nn::model_from_json(doc.at("model")),
                            doc.at("accuracy").as_number()};
  registry_.put(std::move(entry));
}

std::uint16_t EdgeNode::start_server(std::uint16_t port) {
  return start_server(port, net::HttpServer::Options{});
}

std::uint16_t EdgeNode::start_server(std::uint16_t port,
                                     net::HttpServer::Options options) {
  OPENEI_CHECK(server_ == nullptr, "server already running");
  server_ = std::make_unique<net::HttpServer>(
      port,
      [this](const net::HttpRequest& request) {
        return service_.handle(request);
      },
      std::move(options));
  // /ei_status gains a "serving" block while the server is up.
  service_.set_serving_stats_source(
      [server = server_.get()] { return server->stats(); });
  return server_->port();
}

void EdgeNode::stop_server() {
  if (server_ != nullptr) {
    // Unhook the stats source first: a status request draining through
    // stop() may still read it, and by then the server must still exist.
    service_.set_serving_stats_source(nullptr);
    server_->stop();
    server_.reset();
  }
}

std::uint16_t EdgeNode::port() const {
  OPENEI_CHECK(server_ != nullptr, "server not running");
  return server_->port();
}

net::ServerStats EdgeNode::server_stats() const {
  OPENEI_CHECK(server_ != nullptr, "server not running");
  return server_->stats();
}

}  // namespace openei::core
