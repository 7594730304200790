#include "selector/selecting_algorithm.h"

#include <algorithm>

namespace openei::selector {

namespace {

bool eligible(const CapabilityEntry& entry, const SelectionRequest& request,
              SelectionStats* stats = nullptr) {
  if (stats != nullptr) ++stats->evaluated;
  if (!entry.deployable) {
    if (stats != nullptr) ++stats->rejected_not_deployable;
    return false;
  }
  if (!request.device_name.empty() && entry.device_name != request.device_name) {
    if (stats != nullptr) ++stats->rejected_device;
    return false;
  }
  if (!satisfies(entry.alem, request.requirements)) {
    if (stats != nullptr) ++stats->rejected_constraints;
    return false;
  }
  if (stats != nullptr) ++stats->eligible;
  return true;
}

}  // namespace

std::optional<CapabilityEntry> select(const CapabilityDatabase& db,
                                      const SelectionRequest& request,
                                      SelectionStats* stats) {
  if (stats != nullptr) *stats = SelectionStats{};
  const CapabilityEntry* best = nullptr;
  for (const CapabilityEntry& entry : db.entries()) {
    if (!eligible(entry, request, stats)) continue;
    if (best == nullptr || better(entry.alem, best->alem, request.objective)) {
      best = &entry;
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::vector<CapabilityEntry> rank(const CapabilityDatabase& db,
                                  const SelectionRequest& request) {
  std::vector<CapabilityEntry> out;
  for (const CapabilityEntry& entry : db.entries()) {
    if (eligible(entry, request)) out.push_back(entry);
  }
  std::stable_sort(out.begin(), out.end(),
                   [&request](const CapabilityEntry& a, const CapabilityEntry& b) {
                     return better(a.alem, b.alem, request.objective);
                   });
  return out;
}

bool dominates(const Alem& a, const Alem& b) {
  bool geq = a.accuracy >= b.accuracy && a.latency_s <= b.latency_s &&
             a.energy_j <= b.energy_j && a.memory_bytes <= b.memory_bytes;
  bool strictly = a.accuracy > b.accuracy || a.latency_s < b.latency_s ||
                  a.energy_j < b.energy_j || a.memory_bytes < b.memory_bytes;
  return geq && strictly;
}

std::vector<CapabilityEntry> pareto_frontier(const CapabilityDatabase& db,
                                             const std::string& device_name) {
  std::vector<const CapabilityEntry*> candidates;
  for (const CapabilityEntry& entry : db.entries()) {
    if (!entry.deployable) continue;
    if (!device_name.empty() && entry.device_name != device_name) continue;
    candidates.push_back(&entry);
  }

  std::vector<CapabilityEntry> frontier;
  for (const CapabilityEntry* candidate : candidates) {
    bool dominated = false;
    for (const CapabilityEntry* other : candidates) {
      if (other != candidate && dominates(other->alem, candidate->alem)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) frontier.push_back(*candidate);
  }
  return frontier;
}

}  // namespace openei::selector
