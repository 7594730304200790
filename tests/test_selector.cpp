// Tests for the model selector: ALEM constraint semantics, the exact Eq. 1
// solver (validated against brute force), objective swapping and
// infeasibility.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/synthetic.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/train.h"
#include "nn/zoo.h"
#include "selector/alem.h"
#include "selector/capability_db.h"
#include "selector/selecting_algorithm.h"

namespace openei::selector {
namespace {

using common::Rng;

TEST(AlemTest, SatisfiesEnforcesTheObjectiveAttributeBound) {
  Alem alem{.accuracy = 0.5, .latency_s = 10.0, .energy_j = 1.0,
            .memory_bytes = 100};
  Requirements req;
  EXPECT_TRUE(satisfies(alem, req));  // the defaults admit everything
  req.min_accuracy = 0.9;  // violated
  EXPECT_FALSE(satisfies(alem, req));
  req.min_accuracy = 0.5;  // the bound is inclusive
  EXPECT_TRUE(satisfies(alem, req));
  req.max_latency_s = 1.0;  // a latency bound binds too
  EXPECT_FALSE(satisfies(alem, req));
}

TEST(AlemTest, SatisfiesChecksEveryConstraint) {
  Alem alem{.accuracy = 0.95, .latency_s = 0.01, .energy_j = 0.5,
            .memory_bytes = 1000};
  Requirements req;
  req.min_accuracy = 0.9;
  req.max_energy_j = 1.0;
  req.max_memory_bytes = 2000;
  EXPECT_TRUE(satisfies(alem, req));
  req.max_energy_j = 0.4;
  EXPECT_FALSE(satisfies(alem, req));
  req.max_energy_j = 1.0;
  req.max_memory_bytes = 500;
  EXPECT_FALSE(satisfies(alem, req));
}

TEST(AlemTest, BetterComparesAlongObjective) {
  Alem fast{.accuracy = 0.8, .latency_s = 0.1, .energy_j = 2.0, .memory_bytes = 10};
  Alem accurate{.accuracy = 0.95, .latency_s = 0.5, .energy_j = 1.0,
                .memory_bytes = 5};
  EXPECT_TRUE(better(fast, accurate, Objective::kMinLatency));
  EXPECT_TRUE(better(accurate, fast, Objective::kMaxAccuracy));
  EXPECT_TRUE(better(accurate, fast, Objective::kMinEnergy));
  EXPECT_TRUE(better(accurate, fast, Objective::kMinMemory));
}

/// Shared fixture: a capability database over real trained models.
class SelectorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(11);
    auto dataset = data::make_blobs(400, 16, 3, rng);
    auto [train, test] = data::train_test_split(dataset, 0.8, rng);
    test_ = new data::Dataset(std::move(test));

    nn::TrainOptions topt;
    topt.epochs = 15;
    topt.sgd.learning_rate = 0.05F;
    topt.sgd.momentum = 0.9F;

    models_ = new std::vector<nn::Model>();
    for (auto hidden : std::vector<std::vector<std::size_t>>{
             {4}, {32}, {128, 64}}) {
      nn::Model model = nn::zoo::make_mlp(
          "mlp_" + std::to_string(hidden.front()), 16, 3, hidden, rng);
      nn::fit(model, train, topt);
      models_->push_back(std::move(model));
    }

    db_ = new CapabilityDatabase(CapabilityDatabase::build(
        *models_, hwsim::default_packages(), hwsim::edge_fleet(), *test_));
  }

  static void TearDownTestSuite() {
    delete db_;
    delete models_;
    delete test_;
    db_ = nullptr;
    models_ = nullptr;
    test_ = nullptr;
  }

  static data::Dataset* test_;
  static std::vector<nn::Model>* models_;
  static CapabilityDatabase* db_;
};

data::Dataset* SelectorFixture::test_ = nullptr;
std::vector<nn::Model>* SelectorFixture::models_ = nullptr;
CapabilityDatabase* SelectorFixture::db_ = nullptr;

TEST_F(SelectorFixture, DatabaseCoversTheFullCube) {
  // 3 models x 3 packages x 6 devices.
  EXPECT_EQ(db_->entries().size(), 3U * 3U * 6U);
  EXPECT_EQ(db_->on_device("raspberry-pi-3").size(), 9U);
  EXPECT_TRUE(db_->on_device("no-such-device").empty());
}

TEST_F(SelectorFixture, ProfileMeasuresRealAccuracy) {
  CapabilityEntry entry = profile((*models_)[1], hwsim::openei_package(),
                                  hwsim::raspberry_pi_3(), *test_);
  EXPECT_GT(entry.alem.accuracy, 0.8);
  EXPECT_GT(entry.alem.latency_s, 0.0);
  EXPECT_TRUE(entry.deployable);
}

TEST_F(SelectorFixture, McuEntriesAreNotDeployable) {
  for (const CapabilityEntry& entry : db_->on_device("arduino-class-mcu")) {
    EXPECT_FALSE(entry.deployable) << entry.model_name << "/" << entry.package_name;
  }
}

TEST_F(SelectorFixture, SelectMatchesBruteForce) {
  // Exhaustive cross-check of the solver against a straight scan, for every
  // objective and a grid of constraint levels.
  for (Objective objective :
       {Objective::kMinLatency, Objective::kMaxAccuracy, Objective::kMinEnergy,
        Objective::kMinMemory}) {
    for (double min_acc : {0.0, 0.7, 0.9, 0.99}) {
      for (double max_energy : {1e-6, 1e-2, 1e300}) {
        SelectionRequest request;
        request.objective = objective;
        request.requirements.min_accuracy = min_acc;
        request.requirements.max_energy_j = max_energy;
        request.device_name = "raspberry-pi-4";

        auto picked = select(*db_, request);

        // Brute force.
        const CapabilityEntry* expected = nullptr;
        for (const CapabilityEntry& entry : db_->entries()) {
          if (entry.device_name != request.device_name || !entry.deployable) {
            continue;
          }
          if (!satisfies(entry.alem, request.requirements)) continue;
          if (expected == nullptr || better(entry.alem, expected->alem, objective)) {
            expected = &entry;
          }
        }

        if (expected == nullptr) {
          EXPECT_FALSE(picked.has_value());
        } else {
          ASSERT_TRUE(picked.has_value());
          EXPECT_EQ(picked->model_name, expected->model_name);
          EXPECT_EQ(picked->package_name, expected->package_name);
        }
      }
    }
  }
}

TEST_F(SelectorFixture, AccuracyObjectivePicksBiggerModelThanLatencyObjective) {
  SelectionRequest latency_first;
  latency_first.objective = Objective::kMinLatency;
  latency_first.device_name = "raspberry-pi-3";
  SelectionRequest accuracy_first = latency_first;
  accuracy_first.objective = Objective::kMaxAccuracy;

  auto fast = select(*db_, latency_first);
  auto accurate = select(*db_, accuracy_first);
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(accurate.has_value());
  EXPECT_LE(fast->alem.latency_s, accurate->alem.latency_s);
  EXPECT_GE(accurate->alem.accuracy, fast->alem.accuracy);
}

TEST_F(SelectorFixture, InfeasibleConstraintsReturnNullopt) {
  SelectionRequest request;
  request.requirements.min_accuracy = 1.01;  // impossible
  EXPECT_FALSE(select(*db_, request).has_value());

  SelectionRequest mcu;
  mcu.device_name = "arduino-class-mcu";  // nothing deploys there
  EXPECT_FALSE(select(*db_, mcu).has_value());
}

TEST_F(SelectorFixture, RankIsSortedAndFeasible) {
  SelectionRequest request;
  request.objective = Objective::kMinLatency;
  request.device_name = "jetson-tx2";
  request.requirements.min_accuracy = 0.5;
  auto ranked = rank(*db_, request);
  ASSERT_FALSE(ranked.empty());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].alem.latency_s, ranked[i].alem.latency_s);
  }
  for (const auto& entry : ranked) {
    EXPECT_GE(entry.alem.accuracy, 0.5);
  }
}

TEST_F(SelectorFixture, DatabaseJsonSerializes) {
  common::Json doc = db_->to_json();
  EXPECT_EQ(doc.as_array().size(), db_->entries().size());
  const common::Json& first = doc.at(std::size_t{0});
  EXPECT_TRUE(first.contains("model"));
  EXPECT_TRUE(first.at("alem").contains("latency_s"));
}

}  // namespace
}  // namespace openei::selector
