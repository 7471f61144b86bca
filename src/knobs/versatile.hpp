// VersatileDependability — the framework facade.
//
// Ties the pieces of the paper's framework together for one replicated
// service: the knob registry (low-level knobs bound to the group, high-level
// knobs synthesized from profiling), the active behavioral contract with its
// degraded alternatives, and the adaptation policy. This is the object an
// application deployer interacts with; see examples/ for usage.
#pragma once

#include <memory>

#include "adaptive/contract.hpp"
#include "knobs/availability.hpp"
#include "knobs/knob.hpp"
#include "knobs/low_level.hpp"
#include "knobs/scalability.hpp"
#include "knobs/throughput.hpp"

namespace vdep::knobs {

class VersatileDependability {
 public:
  explicit VersatileDependability(ReplicaGroupController& controller);

  // --- knobs -------------------------------------------------------------------
  [[nodiscard]] KnobRegistry& registry() { return registry_; }
  [[nodiscard]] const KnobRegistry& registry() const { return registry_; }

  // Installs the profiled design space; synthesizes and registers the
  // high-level scalability knob under the given requirements.
  const ScalabilityPolicy& install_scalability_knob(
      const DesignSpaceMap& map, const ScalabilityRequirements& requirements);
  // Applies the scalability policy for a client count (the high-level knob's
  // set operation); nullopt when infeasible.
  std::optional<PolicyEntry> tune_for_clients(int clients);

  // Registers the availability knob; setting it picks {style, replicas} for
  // a target availability under the model.
  void install_availability_knob(AvailabilityModel model);
  std::optional<AvailabilityChoice> tune_for_availability(double target);

  // Installs a measured incremental-checkpoint profile (delta vs. full
  // bytes). Once set, tune_for_availability evaluates passive styles with
  // the rescaled failover model, and scalability-policy synthesis sees
  // checkpoint bandwidth shrunk by the profile's average byte ratio.
  void set_checkpoint_profile(CheckpointProfile profile);
  [[nodiscard]] const std::optional<CheckpointProfile>& checkpoint_profile() const {
    return checkpoint_profile_;
  }

  // --- contracts -----------------------------------------------------------------
  void set_contract(adaptive::Contract contract,
                    std::vector<adaptive::Contract> degraded_alternatives = {});
  [[nodiscard]] adaptive::ContractMonitor* contract_monitor() {
    return contract_monitor_ ? contract_monitor_.get() : nullptr;
  }

 private:
  ReplicaGroupController& controller_;
  KnobRegistry registry_;
  std::optional<ScalabilityPolicy> scalability_policy_;
  std::optional<int> applied_clients_;
  std::optional<AvailabilityModel> availability_model_;
  std::optional<CheckpointProfile> checkpoint_profile_;
  std::unique_ptr<adaptive::ContractMonitor> contract_monitor_;
};

}  // namespace vdep::knobs
