// Tests for computation migration (Sec. IV-C), sensor statistics, and model
// file persistence.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.h"
#include "core/edge_node.h"
#include "datastore/timeseries.h"
#include "hwsim/device.h"
#include "hwsim/network.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "runtime/migration.h"

namespace openei {
namespace {

using common::Rng;

std::vector<runtime::MigratableTask> heavy_queue(std::size_t count) {
  std::vector<runtime::MigratableTask> tasks;
  for (std::size_t i = 0; i < count; ++i) {
    tasks.push_back({"job" + std::to_string(i), /*flops=*/5e8,
                     /*payload_bytes=*/50'000});
  }
  return tasks;
}

TEST(MigrationTest, OffloadsToFastHelperOnGoodLink) {
  auto plan = runtime::plan_migration(heavy_queue(10), hwsim::raspberry_pi_3(),
                                      hwsim::edge_server(), hwsim::wifi());
  EXPECT_FALSE(plan.migrate.empty());
  EXPECT_LT(plan.makespan_s, plan.local_only_s);
  EXPECT_GT(plan.speedup(), 1.5);
  EXPECT_EQ(plan.stay.size() + plan.migrate.size(), 10U);
}

TEST(MigrationTest, KeepsEverythingLocalOnTerribleLink) {
  // LoRaWAN: shipping 50 kB takes ~15 s — never worth it.
  auto plan = runtime::plan_migration(heavy_queue(10), hwsim::raspberry_pi_3(),
                                      hwsim::edge_server(), hwsim::lorawan());
  EXPECT_TRUE(plan.migrate.empty());
  EXPECT_DOUBLE_EQ(plan.makespan_s, plan.local_only_s);
}

TEST(MigrationTest, NoMigrationToSlowerHelper) {
  auto plan = runtime::plan_migration(heavy_queue(6), hwsim::edge_server(),
                                      hwsim::arduino_class(), hwsim::wifi());
  EXPECT_TRUE(plan.migrate.empty());
}

TEST(MigrationTest, MakespanNeverWorseThanLocalOnly) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<runtime::MigratableTask> tasks;
    std::size_t count = static_cast<std::size_t>(rng.uniform_int(1, 20));
    for (std::size_t i = 0; i < count; ++i) {
      tasks.push_back({std::string("t").append(std::to_string(i)), rng.uniform(1e6, 1e9),
                       static_cast<std::size_t>(rng.uniform_int(100, 1000000))});
    }
    for (const auto& link : hwsim::default_links()) {
      auto plan = runtime::plan_migration(tasks, hwsim::raspberry_pi_4(),
                                          hwsim::jetson_tx2(), link);
      EXPECT_LE(plan.makespan_s, plan.local_only_s + 1e-12) << link.name;
    }
  }
}

TEST(MigrationTest, RejectsZeroComputeTask) {
  std::vector<runtime::MigratableTask> tasks = {{"empty", 0.0, 10}};
  EXPECT_THROW(runtime::plan_migration(tasks, hwsim::raspberry_pi_3(),
                                       hwsim::edge_server(), hwsim::wifi()),
               openei::InvalidArgument);
}

TEST(SensorStatsTest, ComputesAggregatesAndRate) {
  datastore::SensorStore store;
  for (double t : {0.0, 1.0, 2.0, 3.0}) {
    store.append("meter", {t, common::Json(t * 10.0)});
  }
  auto stats = store.stats("meter", 0.0, 3.0);
  EXPECT_EQ(stats.count, 4U);
  EXPECT_DOUBLE_EQ(stats.mean, 15.0);
  EXPECT_DOUBLE_EQ(stats.min, 0.0);
  EXPECT_DOUBLE_EQ(stats.max, 30.0);
  EXPECT_DOUBLE_EQ(stats.rate_hz, 1.0);

  auto partial = store.stats("meter", 1.0, 2.0);
  EXPECT_EQ(partial.count, 2U);
  EXPECT_DOUBLE_EQ(partial.mean, 15.0);

  auto empty = store.stats("meter", 10.0, 20.0);
  EXPECT_EQ(empty.count, 0U);
  EXPECT_DOUBLE_EQ(empty.rate_hz, 0.0);
}

TEST(SensorStatsTest, NonNumericPayloadThrows) {
  datastore::SensorStore store;
  store.append("cam", {1.0, common::Json("frame")});
  EXPECT_THROW(store.stats("cam", 0.0, 2.0), openei::InvalidArgument);
}

TEST(SensorStatsTest, StatsRouteServesJson) {
  core::EdgeNode node(core::EdgeNodeConfig{hwsim::raspberry_pi_4(),
                                           hwsim::openei_package(), 32});
  for (double t : {0.0, 0.5, 1.0}) {
    node.ingest("meter1", t, common::Json(100.0 + t));
  }
  auto response = node.call("GET", "/ei_data/stats/meter1?start=0&end=2");
  ASSERT_EQ(response.status, 200);
  common::Json doc = common::Json::parse(response.body);
  EXPECT_EQ(doc.at("count").as_int(), 3);
  EXPECT_DOUBLE_EQ(doc.at("mean").as_number(), 100.5);
  EXPECT_DOUBLE_EQ(doc.at("rate_hz").as_number(), 2.0);
  EXPECT_EQ(node.call("GET", "/ei_data/stats/ghost").status, 404);
}

TEST(ModelFileTest, SaveLoadRoundTrip) {
  Rng rng(2);
  nn::Model model = nn::zoo::make_mlp("persisted", 6, 2, {8}, rng);
  nn::Tensor probe = nn::Tensor::random_uniform(tensor::Shape{2, 6}, rng);
  nn::Tensor expected = model.forward(probe, false);

  std::string path = "/tmp/openei_model_test.json";
  nn::save_model_file(model, path);
  nn::Model loaded = nn::load_model_file(path);
  EXPECT_EQ(loaded.name(), "persisted");
  EXPECT_TRUE(loaded.forward(probe, false).all_close(expected, 1e-5F));
  std::remove(path.c_str());
}

TEST(ModelFileTest, MissingFileThrowsIoError) {
  EXPECT_THROW(nn::load_model_file("/tmp/definitely_missing_openei.json"),
               openei::IoError);
}

}  // namespace
}  // namespace openei
