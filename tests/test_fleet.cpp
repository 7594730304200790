// Sharded-fleet suite (label: fleet): consistent-hash ring properties
// (determinism, balance, minimal remap), placement-aware routing and
// replication, node-kill failover, probe-driven failback with ring
// rebalancing, replica repair, the /ei_fleet + /ei_metrics surfaces, and a
// kill/revive stress meant to run early on the sanitizer legs.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "fleet/fleet.h"
#include "fleet/hash_ring.h"
#include "fleet/router.h"
#include "net/faults.h"
#include "net/http.h"
#include "nn/serialize.h"
#include "nn/zoo.h"

namespace openei::fleet {
namespace {

using common::Json;
using common::Rng;

constexpr std::size_t kFeatures = 8;
constexpr std::size_t kClasses = 3;
constexpr const char* kInput =
    "?input=[[1,2,3,4,5,6,7,8],[8,7,6,5,4,3,2,1]]";

/// Constant-prediction model (zeroed MLP, one-hot output bias): every
/// request answers `winner`, so tests can read *which* replica/version
/// served straight off the predictions.
nn::Model make_constant_model(const std::string& name, std::size_t winner) {
  Rng rng(7);
  nn::Model model = nn::zoo::make_mlp(name, kFeatures, kClasses, {4}, rng);
  for (nn::Tensor* param : model.parameters()) *param *= 0.0F;
  model.parameters().back()->data()[winner] = 1.0F;
  return model;
}

std::vector<std::size_t> predictions_of(const net::HttpResponse& response) {
  Json doc = Json::parse(response.body);
  std::vector<std::size_t> out;
  for (const Json& p : doc.at("predictions").as_array()) {
    out.push_back(static_cast<std::size_t>(p.as_int()));
  }
  return out;
}

std::vector<std::string> ring_nodes(std::size_t n) {
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back("node" + std::to_string(i));
  return ids;
}

std::vector<std::string> sample_keys(std::size_t n) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back("scenario" + std::to_string(i) + "/algo" +
                   std::to_string(i % 7));
  }
  return keys;
}

// --- Ring properties ------------------------------------------------------

TEST(HashRingTest, PlacementIsDeterministicAcrossInstances) {
  HashRing a(64, 42);
  HashRing b(64, 42);
  for (const std::string& id : ring_nodes(5)) {
    a.add_node(id);
    b.add_node(id);
  }
  for (const std::string& key : sample_keys(100)) {
    EXPECT_EQ(a.owners(key, 3), b.owners(key, 3)) << "key " << key;
  }
  // A different seed lays the points elsewhere: at least one key must move.
  HashRing other_seed(64, 43);
  for (const std::string& id : ring_nodes(5)) other_seed.add_node(id);
  bool any_moved = false;
  for (const std::string& key : sample_keys(100)) {
    if (other_seed.primary(key) != a.primary(key)) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

TEST(HashRingTest, OwnershipIsBalancedAcrossNodes) {
  HashRing ring(64, 42);
  for (const std::string& id : ring_nodes(8)) ring.add_node(id);
  std::map<std::string, double> shares = ring.ownership();
  ASSERT_EQ(shares.size(), 8U);
  double total = 0.0;
  for (const auto& [id, share] : shares) {
    // 64 vnodes concentrate shares around 1/8; pin a generous band so the
    // test documents "balanced", not the exact hash layout.
    EXPECT_GT(share, 0.125 / 2.5) << id;
    EXPECT_LT(share, 0.125 * 2.5) << id;
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HashRingTest, OwnersAreDistinctAndClampedToMembership) {
  HashRing ring(64, 42);
  for (const std::string& id : ring_nodes(5)) ring.add_node(id);
  for (const std::string& key : sample_keys(50)) {
    std::vector<std::string> owners = ring.owners(key, 3);
    ASSERT_EQ(owners.size(), 3U);
    EXPECT_EQ(std::set<std::string>(owners.begin(), owners.end()).size(), 3U);
    EXPECT_EQ(owners[0], ring.primary(key));
  }
  // Replication beyond the member count clamps instead of repeating nodes.
  std::vector<std::string> all = ring.owners("some/key", 9);
  EXPECT_EQ(all.size(), 5U);
  EXPECT_EQ(std::set<std::string>(all.begin(), all.end()).size(), 5U);
}

TEST(HashRingTest, RemovingANodeOnlyRemapsItsOwnKeys) {
  HashRing ring(64, 42);
  for (const std::string& id : ring_nodes(6)) ring.add_node(id);
  std::vector<std::string> keys = sample_keys(200);
  std::map<std::string, std::vector<std::string>> before;
  for (const std::string& key : keys) before[key] = ring.owners(key, 2);

  const std::string victim = "node3";
  ASSERT_TRUE(ring.remove_node(victim));
  for (const std::string& key : keys) {
    const std::vector<std::string>& old_owners = before[key];
    bool involved = std::find(old_owners.begin(), old_owners.end(), victim) !=
                    old_owners.end();
    std::vector<std::string> now = ring.owners(key, 2);
    if (!involved) {
      // Consistent hashing's whole point: uninvolved keys keep their exact
      // owner sequence.
      EXPECT_EQ(now, old_owners) << "key " << key;
    } else {
      EXPECT_EQ(std::find(now.begin(), now.end(), victim), now.end());
    }
  }
}

TEST(HashRingTest, RejoiningANodeRestoresPlacementExactly) {
  HashRing ring(64, 42);
  for (const std::string& id : ring_nodes(6)) ring.add_node(id);
  std::vector<std::string> keys = sample_keys(200);
  std::map<std::string, std::vector<std::string>> before;
  for (const std::string& key : keys) before[key] = ring.owners(key, 2);

  ASSERT_TRUE(ring.remove_node("node2"));
  ring.add_node("node2");  // points derive from (seed, id, index): same spots
  for (const std::string& key : keys) {
    EXPECT_EQ(ring.owners(key, 2), before[key]) << "key " << key;
  }
  EXPECT_EQ(ring.vnode_count(), 6U * 64U);
}

// --- Routing keys ---------------------------------------------------------

TEST(RouterKeyTest, AlgorithmVariantsColocateOnOnePlacementKey) {
  auto key_for = [](const std::string& target) {
    net::HttpRequest request;
    request.method = "GET";
    net::parse_target(target, request.path, request.query);
    return Router::routing_key(request);
  };
  EXPECT_EQ(key_for("/ei_algorithms/safety/detection?input=[[1]]"),
            "safety/detection");
  EXPECT_EQ(key_for("/ei_algorithms/safety/detection/variants"),
            "safety/detection");
  // The session parameter spreads load but must never change placement.
  EXPECT_EQ(key_for("/ei_algorithms/safety/detection?session=a"),
            key_for("/ei_algorithms/safety/detection?session=b"));
  EXPECT_EQ(key_for("/ei_status"), "/ei_status");
}

// --- Fleet placement + replication ----------------------------------------

FleetOptions small_fleet(std::size_t nodes, std::size_t replication) {
  FleetOptions options;
  options.nodes = nodes;
  options.router.replication = replication;
  return options;
}

TEST(FleetTest, DeployReplicatesToExactlyTheOwnerSet) {
  Fleet fleet(small_fleet(4, 2));
  std::size_t replicas =
      fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  EXPECT_EQ(replicas, 2U);

  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  ASSERT_EQ(owners.size(), 2U);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    bool is_owner = std::find(owners.begin(), owners.end(),
                              fleet.node_id(i)) != owners.end();
    net::HttpClient direct(fleet.port(i));
    EXPECT_EQ(direct.get("/ei_models/det").status, is_owner ? 200 : 404)
        << fleet.node_id(i);
  }
}

TEST(FleetTest, RoutesInferenceToAnOwnerNode) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 2), 0.9);
  net::HttpResponse response = fleet.router().route(
      "GET", std::string("/ei_algorithms/safety/detection") + kInput);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(predictions_of(response), (std::vector<std::size_t>{2, 2}));
  // The serving node is visible in the forward counters: only owners serve.
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  double ok_forwards = 0.0;
  for (const std::string& id : owners) {
    ok_forwards += fleet.router()
                       .meter()
                       .counter("ei_fleet_forwards_total",
                                {{"node", id}, {"outcome", "ok"}})
                       .value();
  }
  EXPECT_GE(ok_forwards, 1.0);
}

TEST(FleetTest, SessionSpreadingStaysInsideTheOwnerSet) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 0), 0.9);
  const std::string base =
      std::string("/ei_algorithms/safety/detection") + kInput;
  for (int s = 0; s < 32; ++s) {
    net::HttpResponse response = fleet.router().route(
        "GET", base + "&session=user" + std::to_string(s));
    ASSERT_EQ(response.status, 200);
  }
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  double owner_forwards = 0.0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::string& id = fleet.node_id(i);
    double ok = fleet.router()
                    .meter()
                    .counter("ei_fleet_forwards_total",
                             {{"node", id}, {"outcome", "ok"}})
                    .value();
    bool is_owner =
        std::find(owners.begin(), owners.end(), id) != owners.end();
    if (is_owner) {
      // 32 distinct sessions must spread across both owners, not pile on
      // the primary.
      EXPECT_GE(ok, 1.0) << id;
      owner_forwards += ok;
    } else {
      EXPECT_EQ(ok, 0.0) << id << " served a request it does not own";
    }
  }
  EXPECT_GE(owner_forwards, 32.0);
}

// --- Failover / failback --------------------------------------------------

TEST(FleetTest, FailsOverToReplicaWhenPrimaryIsKilled) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  ASSERT_EQ(owners.size(), 2U);
  fleet.kill(fleet.index_of(owners[0]));

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  net::HttpResponse response = fleet.router().route("GET", target);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(predictions_of(response), (std::vector<std::size_t>{1, 1}));
  EXPECT_FALSE(fleet.router().node_up(owners[0]));
  EXPECT_EQ(fleet.router().up_nodes().size(), 3U);
  EXPECT_GE(
      fleet.router().meter().counter("ei_fleet_failovers_total").value(), 1.0);
  // Follow-up requests route straight to the new primary: no more failover
  // hops accumulate once the ring has rebalanced.
  double failovers =
      fleet.router().meter().counter("ei_fleet_failovers_total").value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(fleet.router().route("GET", target).status, 200);
  }
  EXPECT_EQ(
      fleet.router().meter().counter("ei_fleet_failovers_total").value(),
      failovers);
}

TEST(FleetTest, RepairsReplicationAfterLosingAnOwner) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  fleet.kill(fleet.index_of(owners[0]));
  // One failed request marks the node down and triggers the repair sweep.
  ASSERT_EQ(fleet.router()
                .route("GET",
                       std::string("/ei_algorithms/safety/detection") + kInput)
                .status,
            200);

  std::vector<std::string> new_owners =
      fleet.router().owners_of("safety/detection");
  ASSERT_EQ(new_owners.size(), 2U);
  for (const std::string& id : new_owners) {
    EXPECT_NE(id, owners[0]);
    net::HttpClient direct(fleet.port(fleet.index_of(id)));
    EXPECT_EQ(direct.get("/ei_models/det").status, 200)
        << id << " should have been re-replicated to";
  }
}

TEST(FleetTest, RetriesAReplicaMissOnThePeerOwners) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  ASSERT_EQ(owners.size(), 2U);

  // Simulate replication lag: the first-tried owner is healthy but does not
  // hold the model yet (the state a freshly promoted owner is in while a
  // re-replication sweep is still in flight).
  net::HttpClient primary(fleet.port(fleet.index_of(owners[0])));
  ASSERT_LT(primary.del("/ei_models/det").status, 300);

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  net::HttpResponse response = fleet.router().route("GET", target);
  EXPECT_EQ(response.status, 200);  // peer owner still serves
  EXPECT_GE(fleet.router()
                .meter()
                .counter("ei_fleet_forwards_total",
                         {{"node", owners[0]}, {"outcome", "miss"}})
                .value(),
            1.0);

  // When every owner misses, the 404 is the answer — not a 503.
  net::HttpClient replica(fleet.port(fleet.index_of(owners[1])));
  ASSERT_LT(replica.del("/ei_models/det").status, 300);
  EXPECT_EQ(fleet.router().route("GET", target).status, 404);
}

TEST(FleetTest, ProbeFailsARevivedNodeBackIntoTheRing) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  std::vector<std::string> before = fleet.router().up_nodes();
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  std::size_t victim = fleet.index_of(owners[0]);

  fleet.kill(victim);
  ASSERT_EQ(fleet.router()
                .route("GET",
                       std::string("/ei_algorithms/safety/detection") + kInput)
                .status,
            200);
  ASSERT_FALSE(fleet.router().node_up(owners[0]));

  // While down, probing revives nothing.
  EXPECT_EQ(fleet.router().probe_down_nodes(), 0U);
  ASSERT_FALSE(fleet.router().node_up(owners[0]));

  fleet.revive(victim);
  EXPECT_EQ(fleet.router().probe_down_nodes(), 1U);
  EXPECT_TRUE(fleet.router().node_up(owners[0]));
  // Failback restores the ring — and with it the exact original placement.
  EXPECT_EQ(fleet.router().up_nodes(), before);
  EXPECT_EQ(fleet.router().owners_of("safety/detection"), owners);
  EXPECT_GE(
      fleet.router().meter().counter("ei_fleet_failbacks_total").value(), 1.0);
  EXPECT_EQ(predictions_of(fleet.router().route(
                "GET",
                std::string("/ei_algorithms/safety/detection") + kInput)),
            (std::vector<std::size_t>{1, 1}));
}

TEST(FleetTest, RoutedTrafficAloneTriggersFailbackProbes) {
  FleetOptions options = small_fleet(3, 2);
  options.router.probe_every = 4;
  Fleet fleet(options);
  fleet.deploy("safety", "detection", make_constant_model("det", 0), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  std::size_t victim = fleet.index_of(owners[0]);
  fleet.kill(victim);

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  ASSERT_EQ(fleet.router().route("GET", target).status, 200);  // marks down
  fleet.revive(victim);
  // No explicit probe call: the count-gated probe on the route path must
  // notice the revived node within probe_every requests.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(fleet.router().route("GET", target).status, 200);
  }
  EXPECT_TRUE(fleet.router().node_up(owners[0]));
  EXPECT_EQ(fleet.router().up_nodes().size(), 3U);
}

TEST(FleetTest, FaultInjectedOutageFailsOverWithZeroFailedRequests) {
  FleetOptions options = small_fleet(3, 2);
  options.router.probe_every = 4;
  Fleet fleet(options);
  fleet.deploy("safety", "detection", make_constant_model("det", 2), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  // The primary refuses its next 6 connections (a deterministic outage
  // window), then recovers on its own — no kill/revive involved.
  fleet.faults(fleet.index_of(owners[0]))
      ->add(net::FaultRule{"", net::FaultKind::kRefuseConnection, 1.0, 0, 6});

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  for (int i = 0; i < 24; ++i) {
    net::HttpResponse response = fleet.router().route("GET", target);
    ASSERT_EQ(response.status, 200) << "request " << i;
    ASSERT_EQ(predictions_of(response), (std::vector<std::size_t>{2, 2}));
  }
  // The outage window has long passed and probes ran: the fleet is whole.
  EXPECT_EQ(fleet.router().up_nodes().size(), 3U);
  EXPECT_GE(
      fleet.router().meter().counter("ei_fleet_failovers_total").value(), 1.0);
}

TEST(FleetTest, EveryOwnerDownAnswers503FleetUnavailable) {
  Fleet fleet(small_fleet(2, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  fleet.kill(0);
  fleet.kill(1);

  // Both owners are tried in failover order and both are unreachable.
  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  net::HttpResponse response = fleet.router().route("GET", target);
  EXPECT_EQ(response.status, 503);
  Json doc = Json::parse(response.body);
  EXPECT_EQ(doc.at("error").as_string(), "fleet_unavailable");
  EXPECT_EQ(doc.at("owners_tried").as_int(), 2);
  EXPECT_EQ(fleet.router()
                .meter()
                .counter("ei_fleet_requests_total", {{"outcome", "failed"}})
                .value(),
            1.0);
  EXPECT_GE(fleet.router()
                .fleet_status()
                .at("resilience")
                .at("transport_errors")
                .as_number(),
            2.0);

  // With the ring empty, later requests answer the same error without a
  // forward.
  EXPECT_TRUE(fleet.router().up_nodes().empty());
  net::HttpResponse empty_ring = fleet.router().route("GET", target);
  EXPECT_EQ(empty_ring.status, 503);
  EXPECT_EQ(Json::parse(empty_ring.body).at("error").as_string(),
            "fleet_unavailable");
}

TEST(FleetTest, NodeClientErrorPassesThroughWithoutFailover) {
  Fleet fleet(small_fleet(2, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  const std::string primary =
      fleet.router().owners_of("safety/detection").front();

  // No input: the node answers 400, which a replica would repeat.
  net::HttpResponse response =
      fleet.router().route("GET", "/ei_algorithms/safety/detection");
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(
      fleet.router().meter().counter("ei_fleet_failovers_total").value(), 0.0);
  EXPECT_EQ(fleet.router()
                .meter()
                .counter("ei_fleet_forwards_total",
                         {{"node", primary}, {"outcome", "ok"}})
                .value(),
            1.0);
  Json doc = fleet.router().fleet_status();
  EXPECT_EQ(doc.at("up_nodes").as_int(), 2);
  for (const Json& node : doc.at("nodes").as_array()) {
    EXPECT_EQ(node.at("consecutive_failures").as_int(), 0);
    EXPECT_EQ(node.at("breaker").at("state").as_string(), "closed");
    EXPECT_EQ(node.at("breaker").at("consecutive_failures").as_int(), 0);
  }
}

TEST(RouterTest, NeedsAtLeastOneNode) {
  EXPECT_THROW(Router(std::vector<NodeEndpoint>{}), openei::InvalidArgument);
}

// --- Replica-pair contract --------------------------------------------------
// Two nodes at replication 2 own every key: the primary/backup pair of the
// Sec. IV-C availability story.  A seeded (non-constant) model makes "same
// predictions across a failover" mean "same weights served".

const std::string kPairTarget =
    std::string("/ei_algorithms/safety/detection") + kInput;

std::unique_ptr<Fleet> make_replica_pair(std::size_t probe_every = 8) {
  FleetOptions options = small_fleet(2, 2);
  options.router.probe_every = probe_every;
  auto fleet = std::make_unique<Fleet>(options);
  Rng model_rng(1234);
  fleet->deploy("safety", "detection",
                nn::zoo::make_mlp("det", kFeatures, kClasses, {8}, model_rng),
                0.9);
  return fleet;
}

double forwards(Router& router, const std::string& node_id,
                const std::string& outcome) {
  return router.meter()
      .counter("ei_fleet_forwards_total",
               {{"node", node_id}, {"outcome", outcome}})
      .value();
}

double failovers(Router& router) {
  return router.meter().counter("ei_fleet_failovers_total").value();
}

TEST(FailoverTest, SurvivesPrimaryDeath) {
  auto fleet = make_replica_pair();
  Router& router = fleet->router();
  const std::string primary = router.owners_of("safety/detection").front();

  net::HttpResponse first = router.route("GET", kPairTarget);
  ASSERT_EQ(first.status, 200);
  EXPECT_EQ(forwards(router, primary, "ok"), 1.0);
  EXPECT_EQ(failovers(router), 0.0);

  // Primary dies; the same call keeps working via the backup.
  fleet->kill(fleet->index_of(primary));
  net::HttpResponse after = router.route("GET", kPairTarget);
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(failovers(router), 1.0);
  EXPECT_FALSE(router.node_up(primary));

  // Identical weights -> identical answer across the failover.
  EXPECT_EQ(Json::parse(first.body).at("predictions"),
            Json::parse(after.body).at("predictions"));
}

TEST(FailoverTest, ApplicationErrorsDoNotTriggerFailover) {
  auto fleet = make_replica_pair();
  Router& router = fleet->router();
  const std::string primary = router.owners_of("safety/detection").front();

  // Wrong input width: the primary's 400 is the answer, with no replica hop.
  EXPECT_EQ(router.route("GET", "/ei_algorithms/safety/detection?input=[1,2]")
                .status,
            400);
  EXPECT_EQ(forwards(router, primary, "ok"), 1.0);
  EXPECT_EQ(failovers(router), 0.0);

  // Unknown algorithm: each healthy owner answers 404 and the 404 is the
  // answer, not a 503; neither node takes a health strike.
  net::HttpResponse missing =
      router.route("GET", "/ei_algorithms/ghost/none?input=[1]");
  EXPECT_EQ(missing.status, 404);
  for (const std::string& id : router.owners_of("ghost/none")) {
    EXPECT_EQ(forwards(router, id, "error"), 0.0) << id;
  }
  EXPECT_EQ(router.meter().counter("ei_fleet_node_down_total").value(), 0.0);
  EXPECT_EQ(router.up_nodes().size(), 2U);
  Json status = router.fleet_status();
  for (const Json& node : status.at("nodes").as_array()) {
    EXPECT_EQ(node.at("consecutive_failures").as_int(), 0);
  }
}

// Primary down for a window -> the backup serves; primary recovers -> routed
// traffic alone fails it back within two probe intervals and it serves
// again; every request succeeds and /ei_fleet shows the transport story.
TEST(FailbackTest, ReturnsToPreferredReplicaAfterRecovery) {
  constexpr std::size_t kProbeEvery = 2;
  auto fleet = make_replica_pair(kProbeEvery);
  Router& router = fleet->router();
  const std::vector<std::string> owners = router.owners_of("safety/detection");
  ASSERT_EQ(owners.size(), 2U);
  const std::string& primary = owners[0];
  std::size_t victim = fleet->index_of(primary);

  net::HttpResponse first = router.route("GET", kPairTarget);
  ASSERT_EQ(first.status, 200);

  fleet->kill(victim);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(router.route("GET", kPairTarget).status, 200) << "request " << i;
  }
  EXPECT_FALSE(router.node_up(primary));
  EXPECT_EQ(failovers(router), 1.0);
  EXPECT_EQ(router.meter().counter("ei_fleet_failbacks_total").value(), 0.0);

  // Primary recovers on the same port; no explicit probe call.
  fleet->revive(victim);
  std::size_t requests_until_failback = 0;
  while (!router.node_up(primary)) {
    ASSERT_LT(requests_until_failback, 2 * kProbeEvery)
        << "failback did not happen within two probe intervals";
    ASSERT_EQ(router.route("GET", kPairTarget).status, 200);
    ++requests_until_failback;
  }
  EXPECT_EQ(router.meter().counter("ei_fleet_failbacks_total").value(), 1.0);

  // The preferred replica is first in the owner order again and serves.
  EXPECT_EQ(router.owners_of("safety/detection"), owners);
  double primary_ok = forwards(router, primary, "ok");
  net::HttpResponse last = router.route("GET", kPairTarget);
  ASSERT_EQ(last.status, 200);
  EXPECT_EQ(forwards(router, primary, "ok"), primary_ok + 1.0);
  EXPECT_EQ(Json::parse(first.body).at("predictions"),
            Json::parse(last.body).at("predictions"));

  Json resilience = router.fleet_status().at("resilience");
  EXPECT_GE(resilience.at("transport_errors").as_number(), 1.0);
  EXPECT_GE(resilience.at("attempts").as_number(), 8.0);
}

// The pair's contract as a plain HTTP caller of the front door sees it: a
// node's client error passes through, a pair with both nodes dead answers
// 503, and a router needs at least one node.
TEST(FailbackTest, KeepsLegacyFailoverSemantics) {
  auto fleet = make_replica_pair();
  net::HttpClient client(fleet->router().start_server());

  EXPECT_EQ(client.get("/ei_algorithms/safety/detection").status, 400);
  EXPECT_EQ(failovers(fleet->router()), 0.0);

  fleet->kill(0);
  fleet->kill(1);
  net::HttpResponse down = client.get(kPairTarget);
  EXPECT_EQ(down.status, 503);
  EXPECT_EQ(Json::parse(down.body).at("error").as_string(),
            "fleet_unavailable");
  fleet->router().stop_server();

  EXPECT_THROW(Router(std::vector<NodeEndpoint>{}), openei::InvalidArgument);
}

// --- Observability surfaces ------------------------------------------------

TEST(FleetTest, FrontDoorServesFleetStatusAndMetrics) {
  Fleet fleet(small_fleet(4, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  std::uint16_t port = fleet.router().start_server();
  net::HttpClient client(port);

  // Inference through the front door: a plain HTTP caller needs no
  // knowledge of the fleet behind the router.
  net::HttpResponse response =
      client.get(std::string("/ei_algorithms/safety/detection") + kInput);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(predictions_of(response), (std::vector<std::size_t>{1, 1}));

  net::HttpResponse status = client.get("/ei_fleet");
  ASSERT_EQ(status.status, 200);
  Json doc = Json::parse(status.body);
  EXPECT_EQ(doc.at("replication").as_int(), 2);
  EXPECT_EQ(doc.at("up_nodes").as_int(), 4);
  EXPECT_EQ(doc.at("total_nodes").as_int(), 4);
  double total_share = 0.0;
  for (const Json& node : doc.at("nodes").as_array()) {
    EXPECT_TRUE(node.at("up").as_bool());
    EXPECT_EQ(node.at("breaker").at("state").as_string(), "closed");
    total_share += node.at("ring_fraction").as_number();
  }
  EXPECT_NEAR(total_share, 1.0, 1e-9);
  ASSERT_EQ(doc.at("placements").as_array().size(), 1U);
  const Json& placement = doc.at("placements").as_array()[0];
  EXPECT_EQ(placement.at("model").as_string(), "det");
  EXPECT_EQ(placement.at("key").as_string(), "safety/detection");
  EXPECT_EQ(placement.at("owners").as_array().size(), 2U);
  EXPECT_TRUE(doc.at("resilience").contains("breakers"));

  net::HttpResponse metrics = client.get("/ei_metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("ei_fleet_requests_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("ei_fleet_forwards_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("ei_fleet_up_nodes 4"), std::string::npos);
  EXPECT_NE(metrics.body.find("ei_fleet_route_latency_seconds_bucket"),
            std::string::npos);
}

TEST(FleetTest, FleetStatusReportsDownNodeAndOpenBreaker) {
  Fleet fleet(small_fleet(3, 2));
  fleet.deploy("safety", "detection", make_constant_model("det", 0), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  fleet.kill(fleet.index_of(owners[0]));
  ASSERT_EQ(fleet.router()
                .route("GET",
                       std::string("/ei_algorithms/safety/detection") + kInput)
                .status,
            200);

  Json doc = fleet.router().fleet_status();
  EXPECT_EQ(doc.at("up_nodes").as_int(), 2);
  bool saw_down = false;
  for (const Json& node : doc.at("nodes").as_array()) {
    if (node.at("id").as_string() != owners[0]) continue;
    saw_down = true;
    EXPECT_FALSE(node.at("up").as_bool());
    EXPECT_EQ(node.at("ring_fraction").as_number(), 0.0);
    // The dead node's endpoint accumulated transport failures; once they
    // cross the breaker threshold its state leaves "closed" and the
    // transition is timestamped.
    EXPECT_GE(node.at("breaker").at("consecutive_failures").as_number(), 1.0);
  }
  EXPECT_TRUE(saw_down);
}

// --- Model management through the router ----------------------------------

TEST(FleetTest, FrontDoorDeployAndUndeployManageTheOwnerSet) {
  Fleet fleet(small_fleet(4, 2));
  std::uint16_t port = fleet.router().start_server();
  net::HttpClient client(port);

  std::string body = nn::model_to_json(make_constant_model("det", 1)).dump();
  net::HttpResponse deployed = client.post(
      "/ei_models?scenario=safety&algorithm=detection&accuracy=0.9", body);
  ASSERT_EQ(deployed.status, 201);
  EXPECT_EQ(Json::parse(deployed.body).at("replicas").as_int(), 2);

  // Addressed model reads route to the placement, not the raw path hash.
  EXPECT_EQ(client.get("/ei_models/det").status, 200);

  net::HttpResponse missing_key = client.post("/ei_models", body);
  EXPECT_EQ(missing_key.status, 400);

  net::HttpResponse undeployed = client.del("/ei_models/det");
  ASSERT_LT(undeployed.status, 300);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    net::HttpClient direct(fleet.port(i));
    EXPECT_EQ(direct.get("/ei_models/det").status, 404) << fleet.node_id(i);
  }
  EXPECT_EQ(client.del("/ei_models/det").status, 404);  // no longer tracked
}

// --- Concurrency ----------------------------------------------------------

TEST(FleetTest, ServesEveryRequestThroughAKillReviveCycleUnderLoad) {
  FleetOptions options = small_fleet(4, 2);
  options.router.probe_every = 4;
  Fleet fleet(options);
  fleet.deploy("safety", "detection", make_constant_model("det", 1), 0.9);
  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  std::size_t victim = fleet.index_of(owners[0]);

  const std::string target =
      std::string("/ei_algorithms/safety/detection") + kInput;
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> served{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 40 && !stop.load(); ++i) {
        net::HttpResponse response = fleet.router().route(
            "GET", target + "&session=w" + std::to_string(t));
        if (response.status == 200) {
          ++served;
        } else {
          ++failed;
        }
      }
    });
  }
  // One full outage + recovery while the workers hammer the fleet.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  fleet.kill(victim);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  fleet.revive(victim);
  for (std::thread& worker : workers) worker.join();

  // Replication 2 means the kill costs failover hops, never failures.
  EXPECT_EQ(failed.load(), 0U);
  EXPECT_GE(served.load(), 160U);
  // Drive the probe path to convergence: the fleet ends whole.
  for (int i = 0; i < 8; ++i) fleet.router().route("GET", target);
  fleet.router().probe_down_nodes();
  EXPECT_EQ(fleet.router().up_nodes().size(), 4U);
}

}  // namespace
}  // namespace openei::fleet
