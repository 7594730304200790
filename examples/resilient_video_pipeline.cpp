// Resilient video pipeline — the Sec. IV-C availability requirements in one
// runnable scenario: a camera streams frames into an edge node's data store;
// the package manager's streaming pipeline drains and classifies them; the
// detection API is replicated across a 2-node fleet and the fleet router
// rides through the primary owner's death without dropping service.
#include <cstdio>
#include <memory>

#include "collab/cloud_edge.h"
#include "common/rng.h"
#include "core/edge_node.h"
#include "net/faults.h"
#include "data/metrics.h"
#include "data/synthetic.h"
#include "fleet/fleet.h"
#include "hwsim/device.h"
#include "hwsim/package.h"
#include "nn/train.h"
#include "nn/zoo.h"
#include "runtime/pipeline.h"

using namespace openei;

int main() {
  std::printf("=== resilient video pipeline: streaming + failover ===\n\n");

  // Train one detector; both replicas carry identical weights.
  common::Rng rng(29);
  auto frames = data::make_blobs(500, 16, 3, rng);
  auto [train, test] = data::train_test_split(frames, 0.8, rng);
  common::Rng model_rng(30);
  nn::Model detector = nn::zoo::make_mlp("detector", 16, 3, {24}, model_rng);
  nn::TrainOptions topt;
  topt.epochs = 20;
  topt.sgd.learning_rate = 0.05F;
  topt.sgd.momentum = 0.9F;
  nn::fit(detector, train, topt);
  double accuracy = nn::evaluate_accuracy(detector, test);

  // 1. Streaming half: a 30 fps camera against the Pi's sustainable rate.
  core::EdgeNode camera_node(core::EdgeNodeConfig{hwsim::raspberry_pi_4(),
                                                  hwsim::openei_package(), 4096});
  runtime::InferenceSession session(detector.clone(), camera_node.package(),
                                    camera_node.device());
  runtime::StreamingPipeline pipeline(std::move(session), camera_node.store(),
                                      "cam0");
  std::printf("pipeline sustainable rate on %s: %.0f fps (camera: 30 fps)\n",
              camera_node.device().name.c_str(), pipeline.sustainable_fps());

  double fps = 30.0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    common::JsonArray features;
    for (std::size_t f = 0; f < 16; ++f) {
      features.emplace_back(static_cast<double>(test.features.at2(i, f)));
    }
    camera_node.ingest("cam0", static_cast<double>(i) / fps,
                       common::Json(std::move(features)));
  }
  // Drain in two passes (mid-stream, then right after the last frame).
  double mid = static_cast<double>(test.size()) / fps / 2.0;
  double end = static_cast<double>(test.size()) / fps;
  auto pass1 = pipeline.process_available(mid);
  auto pass2 = pipeline.process_available(end);
  std::vector<std::size_t> predictions = pass1.predictions;
  predictions.insert(predictions.end(), pass2.predictions.begin(),
                     pass2.predictions.end());
  std::printf("processed %zu + %zu frames; stream accuracy %.3f; worst frame "
              "waited %.1f ms\n\n",
              pass1.processed, pass2.processed,
              data::accuracy(predictions, test.labels),
              1e3 * std::max(pass1.max_frame_latency_s,
                             pass2.max_frame_latency_s));

  // 2. Failover half: a 2-node fleet at replication 2 holds the detection
  // API on both members; the key's primary owner dies mid-run.
  fleet::FleetOptions fleet_options;
  fleet_options.nodes = 2;
  fleet_options.router.replication = 2;
  fleet_options.profiles = {hwsim::jetson_tx2(), hwsim::raspberry_pi_4()};
  fleet::Fleet fleet(fleet_options);
  fleet.deploy("safety", "detection", detector, accuracy);
  fleet::Router& router = fleet.router();
  const std::string key = "safety/detection";
  std::vector<std::string> owners = router.owners_of(key);

  std::string target = "/ei_algorithms/safety/detection?input=[" +
                       [&] {
                         std::string row;
                         for (std::size_t f = 0; f < 16; ++f) {
                           if (f > 0) row += ",";
                           row += std::to_string(test.features.at2(0, f));
                         }
                         return row;
                       }() +
                       "]";

  auto before = router.route("GET", target);
  std::printf("request via %s -> %d\n", owners.front().c_str(),
              before.status);
  std::printf("!! %s goes down\n", owners.front().c_str());
  fleet.kill(fleet.index_of(owners.front()));
  auto after = router.route("GET", target);
  std::printf("request via %s -> %d (failovers: %.0f)\n",
              router.owners_of(key).front().c_str(), after.status,
              router.meter().counter("ei_fleet_failovers_total").value());
  bool same = common::Json::parse(before.body).at("predictions") ==
              common::Json::parse(after.body).at("predictions");
  std::printf("prediction identical across failover: %s\n", same ? "yes" : "NO");

  // 3. Degradation half: the surviving node turns into a *flaky* upstream —
  // a seeded FaultPlan batters its detection route with 5xx bursts,
  // mid-stream resets and latency spikes while a degrading client falls back
  // to its local copy of the detector instead of surfacing errors to the
  // caller.
  std::printf("\n!! %s starts failing by a deterministic fault plan\n",
              owners.back().c_str());
  std::size_t survivor = fleet.index_of(owners.back());
  const std::shared_ptr<net::FaultPlan>& plan = fleet.faults(survivor);
  plan->add({.path_prefix = "/ei_algorithms",
             .kind = net::FaultKind::kErrorBurst,
             .probability = 0.35})
      .add({.path_prefix = "/ei_algorithms",
            .kind = net::FaultKind::kResetMidStream,
            .probability = 0.25})
      .add({.path_prefix = "/ei_algorithms",
            .kind = net::FaultKind::kInjectDelay,
            .probability = 0.2,
            .delay_s = 0.01});
  std::size_t requests_before = plan->request_count();
  std::size_t faults_before = plan->injected_count();
  std::uint16_t flaky_port = fleet.port(survivor);

  net::ResilientClient::Options copts;
  copts.deadline_s = 0.5;
  copts.retry.max_attempts = 2;
  copts.retry.initial_backoff_s = 0.002;
  copts.breaker.failure_threshold = 3;
  copts.breaker.open_duration_s = 0.02;
  collab::ResilientCloudEdge degrading(
      flaky_port, "/ei_algorithms/safety/detection", detector.clone(),
      hwsim::openei_package(), hwsim::raspberry_pi_4(), copts);

  std::size_t cloud_ok = 0;
  std::size_t degraded = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    std::string row = "[";
    for (std::size_t f = 0; f < 16; ++f) {
      if (f > 0) row += ",";
      row += std::to_string(test.features.at2(i, f));
    }
    row += "]";
    try {
      auto outcome = degrading.classify(row);
      if (outcome.status != 200) {
        ++failed;
      } else if (outcome.served_by == "cloud") {
        ++cloud_ok;
      } else {
        ++degraded;
      }
    } catch (const std::exception&) {
      ++failed;
    }
  }
  std::printf("30 frames under faults (%zu/%zu upstream requests faulted):\n",
              plan->injected_count() - faults_before,
              plan->request_count() - requests_before);
  std::printf("  served by cloud: %zu, degraded to local: %zu, failed: %zu\n",
              cloud_ok, degraded, failed);
  std::printf("  cloud breaker now: %s\n",
              net::to_string(degrading.cloud_circuit_state()));

  std::printf("\n=== resilient pipeline example complete ===\n");
  return 0;
}
