// The Selecting Algorithm (SA) of paper Sec. III-C — the exact solver for
// Equation 1:
//
//   argmin_{m in Models} L   s.t.  A >= A_req, E <= E_pro, M <= M_pro
//
// generalized so any ALEM attribute can be the objective while the other
// three act as constraints.  Selection scans the capability database.
#pragma once

#include <optional>

#include "selector/capability_db.h"

namespace openei::selector {

struct SelectionRequest {
  Requirements requirements;
  Objective objective = Objective::kMinLatency;
  /// Restrict to a target device (usual case: "the specific edge platform").
  /// Empty = whole cube.
  std::string device_name;
};

/// Why each scanned entry was kept or dropped — the per-request attribution
/// the ei.select trace span reports (candidates evaluated, Eq. 1 constraint
/// rejections).
struct SelectionStats {
  std::size_t evaluated = 0;               // entries scanned
  std::size_t eligible = 0;                // survived every filter
  std::size_t rejected_not_deployable = 0; // does not fit the device at all
  std::size_t rejected_device = 0;         // other device's cube slice
  std::size_t rejected_constraints = 0;    // failed an Eq. 1 constraint
};

/// Best feasible combination, or nullopt when no deployable entry satisfies
/// the constraints (the caller then relaxes requirements or offloads).
/// `stats`, when non-null, receives the scan breakdown.
std::optional<CapabilityEntry> select(const CapabilityDatabase& db,
                                      const SelectionRequest& request,
                                      SelectionStats* stats = nullptr);

/// All feasible entries sorted best-first under the objective (for
/// inspection and the Fig. 5 bench).
std::vector<CapabilityEntry> rank(const CapabilityDatabase& db,
                                  const SelectionRequest& request);

/// True when `a` dominates `b` across the whole ALEM tuple: at least as
/// good on every attribute (accuracy higher-or-equal; latency, energy,
/// memory lower-or-equal) and strictly better on one.
bool dominates(const Alem& a, const Alem& b);

/// The Pareto-optimal deployable entries on a device (empty device_name =
/// whole cube): no returned entry is dominated by any deployable entry.
/// Extension beyond Eq. 1's single-objective form — the set a deployment
/// engineer actually inspects when constraints are negotiable.
std::vector<CapabilityEntry> pareto_frontier(const CapabilityDatabase& db,
                                             const std::string& device_name);

}  // namespace openei::selector
