// The paper's central formalism: EI capability as the four-element tuple
// ALEM = <Accuracy, Latency, Energy, Memory footprint> (Sec. II-B).
#pragma once

#include <cstddef>
#include <string>

#include "common/json.h"

namespace openei::selector {

struct Alem {
  double accuracy = 0.0;        // task metric in [0, 1] (A)
  double latency_s = 0.0;       // per-inference latency (L)
  double energy_j = 0.0;        // per-inference energy above idle (E)
  std::size_t memory_bytes = 0;  // peak resident footprint (M)

  common::Json to_json() const {
    common::Json out{common::JsonObject{}};
    out.set("accuracy", accuracy);
    out.set("latency_s", latency_s);
    out.set("energy_j", energy_j);
    out.set("memory_bytes", memory_bytes);
    return out;
  }
};

/// The constraint set of Equation 1: A >= A_req, E <= E_pro, M <= M_pro.
/// Every bound holds whatever the objective; the defaults admit everything.
struct Requirements {
  double min_accuracy = 0.0;       // A_req
  double max_latency_s = 1e300;    // L bound
  double max_energy_j = 1e300;     // E_pro
  std::size_t max_memory_bytes = SIZE_MAX;  // M_pro
};

/// Which attribute Equation 1 optimizes ("if users pay more attention to
/// Accuracy, the optimization target will be replaced by maximize A...").
enum class Objective { kMinLatency, kMaxAccuracy, kMinEnergy, kMinMemory };

/// True when `alem` satisfies every constraint, including the one on the
/// attribute being optimized (a caller's `min_accuracy` still binds under
/// the max-accuracy objective).
bool satisfies(const Alem& alem, const Requirements& req);

/// True when `a` beats `b` under the objective (strictly better).
bool better(const Alem& a, const Alem& b, Objective objective);

}  // namespace openei::selector
