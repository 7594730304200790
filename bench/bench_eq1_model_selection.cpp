// E7 — Equation 1: the selecting algorithm.
//
//   argmin L  s.t.  A >= A_req, E <= E_pro, M <= M_pro
//
//   (a) constraint sweeps: how the chosen model changes as A_req tightens
//       and as the device's memory budget M_pro shrinks;
//   (b) objective swap ("if users pay more attention to Accuracy...").
#include "bench_common.h"

#include "common/rng.h"
#include "data/synthetic.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/train.h"
#include "nn/zoo.h"
#include "selector/capability_db.h"
#include "selector/selecting_algorithm.h"

using namespace openei;

namespace {

selector::CapabilityDatabase build_db() {
  common::Rng rng(161);
  auto dataset = data::make_blobs(700, 16, 5, rng, /*separation=*/1.6F,
                                  /*stddev=*/1.4F);
  auto [train, test] = data::train_test_split(dataset, 0.8, rng);
  nn::TrainOptions topt;
  topt.epochs = 35;
  topt.sgd.learning_rate = 0.05F;
  topt.sgd.momentum = 0.9F;

  std::vector<nn::Model> models;
  for (auto [name, hidden] : std::vector<std::pair<const char*, std::vector<std::size_t>>>{
           {"tiny", {2}}, {"small", {8}}, {"medium", {64}}, {"large", {256, 128}}}) {
    nn::Model model = nn::zoo::make_mlp(name, 16, 5, hidden, rng);
    nn::fit(model, train, topt);
    models.push_back(std::move(model));
  }
  return selector::CapabilityDatabase::build(
      models, hwsim::default_packages(), hwsim::edge_fleet(), test);
}

void run_eq1() {
  bench::banner("E7 / Eq. 1: the selecting algorithm (SA)");
  selector::CapabilityDatabase db = build_db();

  bench::section("(a) sweep A_req on raspberry-pi-3 (objective: min latency)");
  std::printf("%-10s %-26s %12s %9s\n", "A_req", "picked (model, package)",
              "latency", "accuracy");
  for (double a_req : {0.0, 0.90, 0.93, 0.95, 0.97, 0.99, 1.01}) {
    selector::SelectionRequest request;
    request.objective = selector::Objective::kMinLatency;
    request.device_name = "raspberry-pi-3";
    request.requirements.min_accuracy = a_req;
    auto pick = selector::select(db, request);
    if (pick) {
      std::printf("%-10.2f %-26s %12s %9.3f\n", a_req,
                  (pick->model_name + ", " + pick->package_name).c_str(),
                  bench::format_seconds(pick->alem.latency_s).c_str(),
                  pick->alem.accuracy);
    } else {
      std::printf("%-10.2f %-26s\n", a_req, "INFEASIBLE");
    }
  }

  bench::section("(b) objective swap on raspberry-pi-3 (A_req=0.7)");
  for (auto [objective, label] :
       std::vector<std::pair<selector::Objective, const char*>>{
           {selector::Objective::kMinLatency, "min latency"},
           {selector::Objective::kMaxAccuracy, "max accuracy"},
           {selector::Objective::kMinEnergy, "min energy"},
           {selector::Objective::kMinMemory, "min memory"}}) {
    selector::SelectionRequest request;
    request.objective = objective;
    request.device_name = "raspberry-pi-3";
    request.requirements.min_accuracy = 0.7;
    auto pick = selector::select(db, request);
    std::printf("%-14s -> %-24s (acc %.3f, %s, %.2e J, %s)\n", label,
                pick ? (pick->model_name + ", " + pick->package_name).c_str()
                     : "INFEASIBLE",
                pick ? pick->alem.accuracy : 0.0,
                pick ? bench::format_seconds(pick->alem.latency_s).c_str() : "-",
                pick ? pick->alem.energy_j : 0.0,
                pick ? bench::format_bytes(
                           static_cast<double>(pick->alem.memory_bytes))
                           .c_str()
                     : "-");
  }
}

void BM_ExactSelect(benchmark::State& state) {
  static selector::CapabilityDatabase db = build_db();
  selector::SelectionRequest request;
  request.objective = selector::Objective::kMinLatency;
  request.device_name = "raspberry-pi-4";
  request.requirements.min_accuracy = 0.7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector::select(db, request));
  }
}
BENCHMARK(BM_ExactSelect);

}  // namespace

OPENEI_BENCH_MAIN(run_eq1)
