// Sharded fleet failover — the availability story end to end (paper
// Sec. IV-C "high availability ... failure avoidance", at fleet scale).
//
// Four heterogeneous OpenEI nodes shard a model catalogue behind a
// consistent-hash router with replication 2. The demo serves traffic
// through the front door, kills the primary owner of a hot key mid-run,
// and shows that (a) every request keeps succeeding via the replica,
// (b) /ei_fleet reports the degraded topology live, and (c) once the node
// returns, routed traffic alone probes it back into the ring and the
// original placement is restored.
//
// While it runs you can watch from another terminal:
//   curl http://127.0.0.1:<port>/ei_fleet     # health, ring, placements
//   curl http://127.0.0.1:<port>/ei_metrics   # ei_fleet_* counters
#include <cinttypes>
#include <cstdio>

#include "common/json.h"
#include "common/rng.h"
#include "fleet/fleet.h"
#include "net/http.h"
#include "nn/zoo.h"

using namespace openei;

namespace {

void print_topology(net::HttpClient& door) {
  common::Json doc = common::Json::parse(door.get("/ei_fleet").body);
  std::printf("  up %" PRId64 "/%" PRId64 " nodes:",
              doc.at("up_nodes").as_int(), doc.at("total_nodes").as_int());
  for (const common::Json& node : doc.at("nodes").as_array()) {
    std::printf("  %s=%s(%.0f%%)", node.at("id").as_string().c_str(),
                node.at("up").as_bool() ? "up" : "DOWN",
                node.at("ring_fraction").as_number() * 100.0);
  }
  std::printf("\n");
  for (const common::Json& placement : doc.at("placements").as_array()) {
    std::printf("  model %s (key %s) on:",
                placement.at("model").as_string().c_str(),
                placement.at("key").as_string().c_str());
    for (const common::Json& owner : placement.at("owners").as_array()) {
      std::printf(" %s", owner.as_string().c_str());
    }
    std::printf("\n");
  }
}

std::size_t serve(fleet::Fleet& fleet, net::HttpClient& door, int requests) {
  std::size_t ok = 0;
  for (int i = 0; i < requests; ++i) {
    net::HttpResponse response = door.get(
        "/ei_algorithms/safety/detection?input=[[1,2,3,4,5,6,7,8]]&session=s" +
        std::to_string(i));
    if (response.status == 200) ++ok;
  }
  std::printf("  served %zu/%d requests  (failovers so far: %.0f)\n", ok,
              requests,
              fleet.router()
                  .meter()
                  .counter("ei_fleet_failovers_total")
                  .value());
  return ok;
}

}  // namespace

int main() {
  std::printf("=== OpenEI sharded fleet: kill a node, lose no requests ===\n\n");

  common::Rng rng(23);
  fleet::FleetOptions options;
  options.nodes = 4;
  options.router.replication = 2;
  options.router.probe_every = 8;
  fleet::Fleet fleet(options);
  fleet.deploy("safety", "detection",
               nn::zoo::make_mlp("detector_v1", 8, 3, {12}, rng), 0.91);
  std::uint16_t port = fleet.router().start_server();
  net::HttpClient door(port);
  std::printf("front door: http://127.0.0.1:%u  (try /ei_fleet, /ei_metrics)\n\n",
              port);

  std::printf("[1] healthy fleet, replication 2:\n");
  print_topology(door);
  serve(fleet, door, 32);

  std::vector<std::string> owners =
      fleet.router().owners_of("safety/detection");
  std::size_t victim = fleet.index_of(owners.front());
  std::printf("\n[2] killing %s — the primary owner of safety/detection:\n",
              owners.front().c_str());
  fleet.kill(victim);
  serve(fleet, door, 32);  // first request fails over, ring rebalances
  print_topology(door);

  std::printf("\n[3] reviving %s — routed traffic probes it back in:\n",
              owners.front().c_str());
  fleet.revive(victim);
  serve(fleet, door, 32);  // count-gated probes readmit the node
  print_topology(door);

  bool restored = fleet.router().owners_of("safety/detection") == owners;
  std::printf("\noriginal placement restored: %s\n", restored ? "yes" : "no");
  return restored ? 0 : 1;
}
