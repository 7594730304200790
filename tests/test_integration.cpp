// System-level integration tests: multi-node deployments over real loopback
// HTTP — the cloud pushing models to edges (Fig. 3 dataflow 2), edges
// sharing models peer-to-peer (Sec. II-C), the full Sec. III-E call chain
// across nodes, and failure injection (dead peers, oversized models,
// malformed deployments).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "core/edge_node.h"
#include "data/metrics.h"
#include "data/synthetic.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "net/http.h"
#include "nn/serialize.h"
#include "nn/train.h"
#include "nn/zoo.h"

namespace openei {
namespace {

using common::Json;
using common::Rng;

TEST(MultiNode, CloudPushesModelEdgeServesIt) {
  // "Cloud": trains the model.  "Edge": receives it over POST /ei_models.
  Rng rng(301);
  auto dataset = data::make_blobs(300, 8, 3, rng);
  auto [train, test] = data::train_test_split(dataset, 0.8, rng);
  nn::Model model = nn::zoo::make_mlp("pushed_detector", 8, 3, {16}, rng);
  nn::TrainOptions topt;
  topt.epochs = 15;
  topt.sgd.learning_rate = 0.05F;
  topt.sgd.momentum = 0.9F;
  nn::fit(model, train, topt);
  double accuracy = nn::evaluate_accuracy(model, test);

  core::EdgeNode edge(core::EdgeNodeConfig{hwsim::raspberry_pi_4(),
                                           hwsim::openei_package(), 64});
  std::uint16_t port = edge.start_server(0);

  // Cloud-side push over the wire.
  net::HttpClient cloud_client(port);
  auto push = cloud_client.post(
      "/ei_models?scenario=safety&algorithm=detection&accuracy=" +
          std::to_string(accuracy),
      nn::save_model(model));
  ASSERT_EQ(push.status, 201) << push.body;

  // Third-party developer calls the algorithm route.
  common::JsonArray row;
  for (std::size_t f = 0; f < 8; ++f) {
    row.emplace_back(static_cast<double>(test.features.at2(0, f)));
  }
  auto result = cloud_client.get(
      "/ei_algorithms/safety/detection?input=" +
      common::uri_encode(Json(common::JsonArray{Json(std::move(row))}).dump()));
  ASSERT_EQ(result.status, 200) << result.body;
  Json doc = Json::parse(result.body);
  EXPECT_EQ(doc.at("model").as_string(), "pushed_detector");
  edge.stop_server();
}

TEST(MultiNode, EdgeToEdgeModelPropagationChain) {
  // A -> B -> C: models propagate through peers without touching the cloud.
  Rng rng(302);
  core::EdgeNode a(core::EdgeNodeConfig{hwsim::jetson_tx2(),
                                        hwsim::openei_package(), 16});
  core::EdgeNode b(core::EdgeNodeConfig{hwsim::raspberry_pi_4(),
                                        hwsim::openei_package(), 16});
  core::EdgeNode c(core::EdgeNodeConfig{hwsim::raspberry_pi_3(),
                                        hwsim::openei_package(), 16});
  a.deploy_model("vehicles", "tracking",
                 nn::zoo::make_mlp("tracker_v1", 6, 2, {8}, rng), 0.83);
  auto port_a = a.start_server(0);
  b.fetch_model_from_peer(port_a, "tracker_v1");
  auto port_b = b.start_server(0);
  c.fetch_model_from_peer(port_b, "tracker_v1");

  ASSERT_TRUE(c.registry().contains("tracker_v1"));
  auto entry = c.registry().get("tracker_v1");
  EXPECT_EQ(entry->scenario, "vehicles");
  EXPECT_DOUBLE_EQ(entry->accuracy, 0.83);

  // All three nodes answer the same inference identically.
  std::string target = "/ei_algorithms/vehicles/tracking?input=[1,2,3,4,5,6]";
  Json pa = Json::parse(a.call("GET", target).body);
  Json pb = Json::parse(b.call("GET", target).body);
  Json pc = Json::parse(c.call("GET", target).body);
  EXPECT_EQ(pa.at("predictions"), pb.at("predictions"));
  EXPECT_EQ(pb.at("predictions"), pc.at("predictions"));

  a.stop_server();
  b.stop_server();
}

TEST(MultiNode, FetchFromDeadPeerThrowsIoError) {
  core::EdgeNode node(core::EdgeNodeConfig{hwsim::raspberry_pi_3(),
                                           hwsim::openei_package(), 16});
  std::uint16_t dead_port;
  {
    core::EdgeNode ghost(core::EdgeNodeConfig{hwsim::raspberry_pi_3(),
                                              hwsim::openei_package(), 16});
    dead_port = ghost.start_server(0);
    ghost.stop_server();
  }
  EXPECT_THROW(node.fetch_model_from_peer(dead_port, "anything"),
               openei::IoError);
}

TEST(FailureInjection, DeployingOversizedModelIsRejectedAtCallTime) {
  // Deployment stores the model; the RAM check fires when an inference
  // session is created for it — the call returns a clean 500, the node
  // survives.
  Rng rng(303);
  core::EdgeNode tiny_node(core::EdgeNodeConfig{hwsim::arduino_class(),
                                                hwsim::openei_package(), 16});
  tiny_node.deploy_model("home", "monitor",
                         nn::zoo::make_mlp("huge", 64, 2, {512, 512}, rng), 0.9);
  auto response = tiny_node.call(
      "GET", "/ei_algorithms/home/monitor?input=" +
                 Json(common::JsonArray{Json(common::JsonArray(64, Json(0.0)))})
                     .dump());
  // The selector filters non-deployable entries -> clean constraint error.
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("error"), std::string::npos);
}

// Every malformed model upload answers 400 and a rollback with no prior
// version answers 409. Each body parses as JSON even when its message quotes
// the document or the model name, nothing is allocated from unchecked wire
// dims, and the node keeps serving the model it served before.
TEST(FailureInjection, MalformedModelPushRejected) {
  Rng rng(305);
  core::EdgeNode node(core::EdgeNodeConfig{hwsim::raspberry_pi_4(),
                                           hwsim::openei_package(), 16});
  node.deploy_model("home", "monitor", nn::zoo::make_mlp("quo\"ted", 4, 2, {4}, rng),
                    0.9);
  auto port = node.start_server(0);
  net::HttpClient client(port);
  auto expect_json_error = [](const net::HttpResponse& response,
                              const std::string& what) {
    try {
      EXPECT_TRUE(Json::parse(response.body).at("error").is_string()) << what;
    } catch (const std::exception&) {
      ADD_FAILURE() << what << ": body is not JSON: " << response.body;
    }
  };

  const std::string head = R"({"format":"openei-model-v1","name":"bad","input_shape":)";
  const std::string bn_tensor = R"({"shape":[2],"values":[1,1]})";
  const std::vector<std::pair<std::string, std::string>> uploads = {
      {"not JSON", "{this is not json"},
      {"wrong format string",
       R"({"format":"openei-model-v2","name":"bad","input_shape":[2],"layers":[]})"},
      {"missing format key", R"({"name":"bad","input_shape":[2],"layers":[]})"},
      {"dense shape/value-count mismatch",
       head + R"([2],"layers":[{"type":"dense","config":{},)"
              R"("weights":{"shape":[2,3],"values":[1,2,3,4,5]},)"
              R"("bias":{"shape":[3],"values":[0,0,0]}}]})"},
      {"name not a string",
       R"({"format":"openei-model-v1","name":7,"input_shape":[2],"layers":[]})"},
      {"maxpool window larger than the input",
       head + R"([1,4,4],"layers":[{"type":"maxpool2d","config":{"window":8}}]})"},
      {"quantized_dense dims far beyond its one value",
       head + R"([2],"layers":[{"type":"quantized_dense","config":{"scales":[1.0]},)"
              R"("weights":{"shape":[1048576,1048576],"values":[1]},)"
              R"("bias":{"shape":[1],"values":[0]}}]})"},
      {"weight shape whose element count overflows",
       head + R"([2],"layers":[{"type":"dense","config":{},)"
              R"("weights":{"shape":[4294967296,4294967296],"values":[]},)"
              R"("bias":{"shape":[1],"values":[0]}}]})"},
      {"batchnorm features far beyond its tensors",
       head + R"([2],"layers":[{"type":"batchnorm",)"
              R"("config":{"features":1099511627776,"momentum":0.9,"epsilon":1e-5},)"
              R"("gamma":)" + bn_tensor + R"(,"beta":)" + bn_tensor +
              R"(,"running_mean":)" + bn_tensor + R"(,"running_var":)" + bn_tensor +
              "}]}"},
      {"layer type holding a quote",
       head + R"([2],"layers":[{"type":"x\"y","config":{}}]})"},
  };
  for (const auto& [what, body] : uploads) {
    net::HttpResponse response =
        client.post("/ei_models?scenario=home&algorithm=monitor", body);
    EXPECT_EQ(response.status, 400) << what << ": " << response.body;
    expect_json_error(response, what);
  }

  auto conflict = client.del("/ei_models/quo%22ted?rollback=1");
  EXPECT_EQ(conflict.status, 409) << conflict.body;
  expect_json_error(conflict, "rollback conflict");
  EXPECT_NE(conflict.body.find(R"(quo\"ted)"), std::string::npos) << conflict.body;

  EXPECT_EQ(node.registry().size(), 1U);
  auto served = client.get("/ei_algorithms/home/monitor?input=" +
                           common::uri_encode("[[0.1,0.2,0.3,0.4]]"));
  ASSERT_EQ(served.status, 200) << served.body;
  EXPECT_EQ(Json::parse(served.body).at("model").as_string(), "quo\"ted");
  node.stop_server();
}

TEST(FailureInjection, ServerSurvivesBurstOfBadRequests) {
  Rng rng(304);
  core::EdgeNode node(core::EdgeNodeConfig{hwsim::raspberry_pi_4(),
                                           hwsim::openei_package(), 16});
  node.deploy_model("safety", "detection",
                    nn::zoo::make_mlp("d", 4, 2, {4}, rng), 0.9);
  auto port = node.start_server(0);
  net::HttpClient client(port);

  for (int i = 0; i < 20; ++i) {
    client.get("/nonsense");
    client.get("/ei_algorithms/safety/detection");          // no input
    client.get("/ei_algorithms/safety/detection?input=[1]");  // wrong width
    client.get("/ei_data/realtime/ghost?timestamp=1");
  }
  // Still healthy.
  auto ok = client.get("/ei_algorithms/safety/detection?input=[1,2,3,4]");
  EXPECT_EQ(ok.status, 200);
  node.stop_server();
}

TEST(EndToEnd, FullScenarioAcrossCloudAndTwoEdges) {
  // The complete OpenEI story in one test:
  // 1. cloud trains two variants and pushes them to edge A over HTTP;
  // 2. edge A ingests camera data and serves detections (selector picks);
  // 3. edge B joins, pulls the small model from A, serves the same API;
  // 4. edge A retrains locally on drifted data (dataflow 3) and redeploys.
  Rng rng(305);
  auto dataset = data::make_blobs(600, 10, 3, rng, 2.0F, 1.2F);
  auto [train, test] = data::train_test_split(dataset, 0.8, rng);
  nn::TrainOptions topt;
  topt.epochs = 20;
  topt.sgd.learning_rate = 0.05F;
  topt.sgd.momentum = 0.9F;

  core::EdgeNode edge_a(core::EdgeNodeConfig{hwsim::jetson_tx2(),
                                             hwsim::openei_package(), 256});
  auto port_a = edge_a.start_server(0);
  net::HttpClient to_a(port_a);

  // 1. Cloud pushes.
  for (auto [name, hidden] : {std::pair<const char*, std::size_t>{"det_big", 48},
                              std::pair<const char*, std::size_t>{"det_small", 6}}) {
    nn::Model model = nn::zoo::make_mlp(name, 10, 3, {hidden}, rng);
    nn::fit(model, train, topt);
    double accuracy = nn::evaluate_accuracy(model, test);
    auto push = to_a.post("/ei_models?scenario=safety&algorithm=detection"
                          "&accuracy=" + std::to_string(accuracy),
                          nn::save_model(model));
    ASSERT_EQ(push.status, 201);
  }

  // 2. Edge A ingests and serves.
  common::JsonArray features;
  for (std::size_t f = 0; f < 10; ++f) {
    features.emplace_back(static_cast<double>(test.features.at2(0, f)));
  }
  edge_a.ingest("cam", 1.0, Json(std::move(features)));
  auto detect = to_a.get("/ei_algorithms/safety/detection?sensor=cam");
  ASSERT_EQ(detect.status, 200);
  // Accuracy-oriented default: the winner is whichever variant measured
  // best (both are near-ceiling on this workload, so don't pin the name).
  Json detect_doc = Json::parse(detect.body);
  std::string winner = detect_doc.at("model").as_string();
  EXPECT_TRUE(winner == "det_big" || winner == "det_small") << winner;
  EXPECT_EQ(detect_doc.at("predictions").as_array().size(), 1U);

  // 3. Edge B pulls the small variant and serves it too.
  core::EdgeNode edge_b(core::EdgeNodeConfig{hwsim::raspberry_pi_3(),
                                             hwsim::openei_package(), 256});
  edge_b.fetch_model_from_peer(port_a, "det_small");
  auto b_result = edge_b.call(
      "GET", "/ei_algorithms/safety/detection?input=" +
                 Json(common::JsonArray{Json(common::JsonArray(10, Json(0.5)))})
                     .dump());
  EXPECT_EQ(b_result.status, 200);

  // 4. Dataflow 3 on edge A: drifted local data, head retraining, redeploy.
  Rng drift_rng(306);
  auto local = data::apply_drift(dataset, drift_rng, 0.8F);
  Rng split_rng(307);
  auto [local_train, local_test] = data::train_test_split(local, 0.7, split_rng);
  auto big_entry = edge_a.registry().get("det_big");
  nn::Model big_model = big_entry->model.clone();
  double degraded = nn::evaluate_accuracy(big_model, local_test);
  auto personalized = runtime::retrain_head_locally(
      big_model, local_train, edge_a.package(), edge_a.device(), topt);
  double recovered = nn::evaluate_accuracy(personalized.model, local_test);
  EXPECT_GT(recovered, degraded + 0.2);
  personalized.model.set_name("det_big_personalized");
  edge_a.deploy_model("safety", "detection", std::move(personalized.model),
                      recovered);
  EXPECT_EQ(edge_a.registry().size(), 3U);

  edge_a.stop_server();
}

}  // namespace
}  // namespace openei
