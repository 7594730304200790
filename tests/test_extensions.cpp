// Tests for the extension features: DDNN-style early exit, EMI-style
// sequence early exit, Pareto-frontier selection, peer model sharing, and
// the /ei_status route.
#include <gtest/gtest.h>

#include "collab/early_exit.h"
#include "common/rng.h"
#include "core/edge_node.h"
#include "data/metrics.h"
#include "data/synthetic.h"
#include "eialg/fastgrnn.h"
#include "hwsim/device.h"
#include "hwsim/network.h"
#include "hwsim/package.h"
#include "nn/train.h"
#include "nn/zoo.h"
#include "selector/capability_db.h"
#include "selector/selecting_algorithm.h"

namespace openei {
namespace {

using common::Rng;

// ---------------------------------------------------------------------------
// DDNN-style early exit.
// ---------------------------------------------------------------------------

class EarlyExitFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(71);
    auto dataset = data::make_blobs(600, 12, 3, rng, 2.2F, 1.2F);
    auto split = data::train_test_split(dataset, 0.8, rng);
    train_ = new data::Dataset(std::move(split.first));
    test_ = new data::Dataset(std::move(split.second));

    model_ = new nn::Model(nn::zoo::make_mlp("backbone", 12, 3, {32, 16}, rng));
    nn::TrainOptions topt;
    topt.epochs = 25;
    topt.sgd.learning_rate = 0.05F;
    topt.sgd.momentum = 0.9F;
    nn::fit(*model_, *train_, topt);
  }

  static void TearDownTestSuite() {
    delete model_;
    delete test_;
    delete train_;
    model_ = nullptr;
    test_ = nullptr;
    train_ = nullptr;
  }

  static collab::EarlyExitModel make_exit_model() {
    Rng rng(72);
    collab::EarlyExitModel exit_model(*model_, /*exit_layer=*/2, 3, rng);
    nn::TrainOptions head_opt;
    head_opt.epochs = 20;
    head_opt.sgd.learning_rate = 0.05F;
    head_opt.sgd.momentum = 0.9F;
    exit_model.fit_exit(*train_, head_opt);
    return exit_model;
  }

  static data::Dataset* train_;
  static data::Dataset* test_;
  static nn::Model* model_;
};

data::Dataset* EarlyExitFixture::train_ = nullptr;
data::Dataset* EarlyExitFixture::test_ = nullptr;
nn::Model* EarlyExitFixture::model_ = nullptr;

TEST_F(EarlyExitFixture, ThresholdZeroExitsEverythingLocally) {
  auto exit_model = make_exit_model();
  auto result = exit_model.run(test_->features, 0.0F);
  EXPECT_DOUBLE_EQ(result.local_fraction, 1.0);
  // A trained exit head alone is already decent.
  EXPECT_GT(data::accuracy(result.predictions, test_->labels), 0.7);
}

TEST_F(EarlyExitFixture, EscalatedSamplesGetFullModelPredictions) {
  auto exit_model = make_exit_model();
  // Threshold 1.0 escalates every sample whose exit softmax has not
  // saturated to exactly 1.0 in float.
  auto result = exit_model.run(test_->features, 1.0F);
  nn::Model full = model_->clone();
  auto full_preds = full.predict(test_->features);
  std::size_t escalated = 0;
  for (std::size_t i = 0; i < result.predictions.size(); ++i) {
    if (!result.exited_locally[i]) {
      ++escalated;
      EXPECT_EQ(result.predictions[i], full_preds[i]);
    }
  }
  EXPECT_GT(escalated, 0U);
  EXPECT_NEAR(result.local_fraction,
              1.0 - static_cast<double>(escalated) /
                        static_cast<double>(test_->size()),
              1e-12);
}

TEST_F(EarlyExitFixture, LocalFractionIsMonotoneInThreshold) {
  auto exit_model = make_exit_model();
  double previous = 1.1;
  for (float threshold : {0.0F, 0.5F, 0.8F, 0.95F, 1.0F}) {
    auto result = exit_model.run(test_->features, threshold);
    EXPECT_LE(result.local_fraction, previous + 1e-12) << threshold;
    previous = result.local_fraction;
  }
}

TEST_F(EarlyExitFixture, EarlyExitBeatsFullOffloadLatency) {
  auto exit_model = make_exit_model();
  auto metrics = collab::evaluate_early_exit(
      exit_model, *test_, 0.9F, hwsim::openei_package(),
      hwsim::raspberry_pi_3(), hwsim::edge_server(), hwsim::cellular_lte());
  EXPECT_GT(metrics.local_fraction, 0.3);
  EXPECT_LT(metrics.mean_latency_s, metrics.offload_latency_s);
  EXPECT_GT(metrics.accuracy, 0.8);
  // Escalated-only traffic is below one activation per inference.
  EXPECT_LT(metrics.mean_bytes_per_inference,
            static_cast<double>(exit_model.escalation_bytes()));
}

TEST_F(EarlyExitFixture, ExitLayerBoundsValidated) {
  Rng rng(73);
  EXPECT_THROW(collab::EarlyExitModel(*model_, 0, 3, rng),
               openei::InvalidArgument);
  EXPECT_THROW(collab::EarlyExitModel(*model_, model_->layer_count(), 3, rng),
               openei::InvalidArgument);
  auto exit_model = make_exit_model();
  EXPECT_THROW(exit_model.run(test_->features, 1.5F), openei::InvalidArgument);
}

// ---------------------------------------------------------------------------
// EMI-style sequence early exit.
// ---------------------------------------------------------------------------

TEST(FastGrnnEarlyExit, SavesStepsWithSmallAccuracyCost) {
  Rng rng(74);
  eialg::FastGrnnOptions options;
  options.steps = 16;
  options.input_dims = 2;
  options.hidden = 12;
  options.epochs = 15;
  options.learning_rate = 0.1F;
  options.early_exit_supervision = 0.5F;  // train intermediate readouts
  auto dataset =
      data::make_sequences(500, options.steps, options.input_dims, 3, rng);
  auto [train, test] = data::train_test_split(dataset, 0.8, rng);
  eialg::FastGrnn model(options);
  model.fit(train);

  auto full = model.predict(test.features);
  double full_accuracy = data::accuracy(full, test.labels);

  auto early = model.predict_early(test.features, 0.9F);
  double early_accuracy = data::accuracy(early.predictions, test.labels);

  EXPECT_LT(early.mean_steps_fraction, 0.95) << "no computation saved";
  EXPECT_GT(early_accuracy, full_accuracy - 0.1);
}

TEST(FastGrnnEarlyExit, ThresholdOneMatchesFullPredictions) {
  Rng rng(75);
  eialg::FastGrnnOptions options;
  options.steps = 8;
  options.input_dims = 2;
  options.epochs = 5;
  auto dataset = data::make_sequences(200, 8, 2, 3, rng);
  eialg::FastGrnn model(options);
  model.fit(dataset);
  auto early = model.predict_early(dataset.features, 1.0F);
  // Threshold 1.0: exit only at the last step (or at exact certainty) —
  // nearly all sequences run fully, and final-step decisions match predict().
  EXPECT_GT(early.mean_steps_fraction, 0.95);
  auto full = model.predict(dataset.features);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full[i] == early.predictions[i]) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(full.size()), 0.95);
}

TEST(FastGrnnEarlyExit, LowerThresholdNeverComputesMore) {
  Rng rng(76);
  eialg::FastGrnnOptions options;
  options.steps = 12;
  options.input_dims = 2;
  options.epochs = 8;
  auto dataset = data::make_sequences(300, 12, 2, 3, rng);
  eialg::FastGrnn model(options);
  model.fit(dataset);
  double previous = 0.0;
  for (float threshold : {0.4F, 0.6F, 0.8F, 0.95F, 1.0F}) {
    auto result = model.predict_early(dataset.features, threshold);
    EXPECT_GE(result.mean_steps_fraction + 1e-12, previous) << threshold;
    previous = result.mean_steps_fraction;
  }
}

// ---------------------------------------------------------------------------
// Pareto frontier.
// ---------------------------------------------------------------------------

TEST(ParetoTest, DominanceSemantics) {
  selector::Alem better_everywhere{.accuracy = 0.9, .latency_s = 0.1,
                                   .energy_j = 1.0, .memory_bytes = 100};
  selector::Alem worse{.accuracy = 0.8, .latency_s = 0.2, .energy_j = 2.0,
                       .memory_bytes = 200};
  selector::Alem tradeoff{.accuracy = 0.95, .latency_s = 0.5, .energy_j = 1.0,
                          .memory_bytes = 100};
  EXPECT_TRUE(selector::dominates(better_everywhere, worse));
  EXPECT_FALSE(selector::dominates(worse, better_everywhere));
  EXPECT_FALSE(selector::dominates(better_everywhere, tradeoff));
  EXPECT_FALSE(selector::dominates(tradeoff, better_everywhere));
  EXPECT_FALSE(selector::dominates(worse, worse));  // not strictly better
}

TEST(ParetoTest, FrontierContainsNoDominatedEntries) {
  Rng rng(77);
  auto dataset = data::make_blobs(300, 10, 3, rng, 1.8F, 1.3F);
  auto [train, test] = data::train_test_split(dataset, 0.8, rng);
  nn::TrainOptions topt;
  topt.epochs = 15;
  topt.sgd.learning_rate = 0.05F;
  topt.sgd.momentum = 0.9F;
  std::vector<nn::Model> models;
  for (auto hidden : std::vector<std::vector<std::size_t>>{{2}, {16}, {96}}) {
    nn::Model model =
        nn::zoo::make_mlp(std::string("m").append(std::to_string(hidden[0])), 10, 3, hidden, rng);
    nn::fit(model, train, topt);
    models.push_back(std::move(model));
  }
  auto db = selector::CapabilityDatabase::build(
      models, hwsim::default_packages(), hwsim::edge_fleet(), test);

  auto frontier = selector::pareto_frontier(db, "raspberry-pi-4");
  ASSERT_FALSE(frontier.empty());
  ASSERT_LE(frontier.size(), db.on_device("raspberry-pi-4").size());
  // No frontier member dominated by any deployable entry on that device.
  for (const auto& member : frontier) {
    for (const auto& entry : db.on_device("raspberry-pi-4")) {
      if (!entry.deployable) continue;
      EXPECT_FALSE(selector::dominates(entry.alem, member.alem))
          << entry.model_name << "/" << entry.package_name << " dominates "
          << member.model_name << "/" << member.package_name;
    }
  }
  // The frontier preserves every single-objective optimum: for each ALEM
  // attribute, the best frontier value equals the best value over all
  // deployable entries.  (The Eq. 1 *winner entry* itself may be dominated
  // when it ties on the objective but loses elsewhere — e.g. the same model
  // under a fatter package has equal accuracy but worse memory.)
  for (auto objective :
       {selector::Objective::kMinLatency, selector::Objective::kMaxAccuracy,
        selector::Objective::kMinEnergy, selector::Objective::kMinMemory}) {
    selector::SelectionRequest request;
    request.objective = objective;
    request.device_name = "raspberry-pi-4";
    auto winner = selector::select(db, request);
    ASSERT_TRUE(winner.has_value());
    bool frontier_matches_optimum = false;
    for (const auto& member : frontier) {
      if (!selector::better(winner->alem, member.alem, objective)) {
        frontier_matches_optimum = true;  // member is at least as good
      }
    }
    EXPECT_TRUE(frontier_matches_optimum)
        << "objective " << static_cast<int>(objective);
  }
}

TEST(ParetoTest, McuFrontierIsEmpty) {
  Rng rng(78);
  auto dataset = data::make_blobs(100, 8, 2, rng);
  std::vector<nn::Model> models;
  models.push_back(nn::zoo::make_mlp("m", 8, 2, {16}, rng));
  auto db = selector::CapabilityDatabase::build(
      models, hwsim::default_packages(), hwsim::edge_fleet(), dataset);
  EXPECT_TRUE(selector::pareto_frontier(db, "arduino-class-mcu").empty());
}

// ---------------------------------------------------------------------------
// Peer model sharing + /ei_status.
// ---------------------------------------------------------------------------

TEST(PeerSharingTest, FetchModelFromPeerDeploysIt) {
  Rng rng(79);
  core::EdgeNode peer(core::EdgeNodeConfig{hwsim::jetson_tx2(),
                                           hwsim::openei_package(), 64});
  nn::Model model = nn::zoo::make_mlp("shared_detector", 6, 2, {8}, rng);
  nn::Tensor probe = nn::Tensor::random_uniform(tensor::Shape{3, 6}, rng);
  nn::Tensor expected = model.forward(probe, false);
  peer.deploy_model("safety", "detection", std::move(model), 0.88);
  std::uint16_t peer_port = peer.start_server(0);

  core::EdgeNode local(core::EdgeNodeConfig{hwsim::raspberry_pi_3(),
                                            hwsim::openei_package(), 64});
  local.fetch_model_from_peer(peer_port, "shared_detector");
  ASSERT_TRUE(local.registry().contains("shared_detector"));
  auto entry = local.registry().get("shared_detector");
  EXPECT_EQ(entry->scenario, "safety");
  EXPECT_DOUBLE_EQ(entry->accuracy, 0.88);
  nn::Model fetched = entry->model.clone();
  EXPECT_TRUE(fetched.forward(probe, false).all_close(expected, 1e-5F));

  EXPECT_THROW(local.fetch_model_from_peer(peer_port, "ghost"), openei::NotFound);
  peer.stop_server();
}

TEST(StatusRouteTest, RequestCountersTrackTrafficAndErrors) {
  Rng rng(81);
  core::EdgeNode node(core::EdgeNodeConfig{hwsim::raspberry_pi_4(),
                                           hwsim::openei_package(), 32});
  node.deploy_model("home", "monitor", nn::zoo::make_mlp("m", 4, 2, {4}, rng),
                    0.9);
  node.ingest("s1", 1.0, common::Json(1.0));

  // 2 data hits, 1 data miss (404), 1 algorithm hit, 1 algorithm error.
  node.call("GET", "/ei_data/realtime/s1?timestamp=0");
  node.call("GET", "/ei_data/history/s1?start=0&end=2");
  node.call("GET", "/ei_data/realtime/ghost?timestamp=0");
  node.call("GET", "/ei_algorithms/home/monitor?input=[1,2,3,4]");
  node.call("GET", "/ei_algorithms/home/monitor?input=[1]");  // wrong width

  common::Json status =
      common::Json::parse(node.call("GET", "/ei_status").body);
  const common::Json& requests = status.at("requests");
  EXPECT_EQ(requests.at("data_requests").as_int(), 3);
  EXPECT_EQ(requests.at("algorithm_requests").as_int(), 2);
  EXPECT_EQ(requests.at("errors").as_int(), 2);
}

TEST(StatusRouteTest, ReportsNodeState) {
  Rng rng(80);
  core::EdgeNode node(core::EdgeNodeConfig{hwsim::raspberry_pi_4(),
                                           hwsim::lite_framework(), 32});
  node.deploy_model("home", "power_monitor",
                    nn::zoo::make_mlp("pm", 4, 2, {4}, rng), 0.9);
  node.ingest("meter1", 1.0, common::Json(5.0));

  auto response = node.call("GET", "/ei_status");
  ASSERT_EQ(response.status, 200);
  common::Json doc = common::Json::parse(response.body);
  EXPECT_EQ(doc.at("device").as_string(), "raspberry-pi-4");
  EXPECT_EQ(doc.at("package").as_string(), "tensorstream-lite");
  EXPECT_FALSE(doc.at("supports_training").as_bool());
  EXPECT_EQ(doc.at("models").as_array().size(), 1U);
  EXPECT_EQ(doc.at("sensors").at(std::size_t{0}).as_string(), "meter1");
}

}  // namespace
}  // namespace openei
