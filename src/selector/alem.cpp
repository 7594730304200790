#include "selector/alem.h"

namespace openei::selector {

bool satisfies(const Alem& alem, const Requirements& req) {
  return alem.accuracy >= req.min_accuracy &&
         alem.latency_s <= req.max_latency_s &&
         alem.energy_j <= req.max_energy_j &&
         alem.memory_bytes <= req.max_memory_bytes;
}

bool better(const Alem& a, const Alem& b, Objective objective) {
  switch (objective) {
    case Objective::kMinLatency: return a.latency_s < b.latency_s;
    case Objective::kMaxAccuracy: return a.accuracy > b.accuracy;
    case Objective::kMinEnergy: return a.energy_j < b.energy_j;
    case Objective::kMinMemory: return a.memory_bytes < b.memory_bytes;
  }
  return false;
}

}  // namespace openei::selector
