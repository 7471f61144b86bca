// VersatileDependability — the framework facade.
//
// Ties the pieces of the paper's framework together for one replicated
// service: the low-level knobs of the group and the high-level knobs
// synthesized from profiling. This is the object an application deployer
// interacts with, and the only place knob values are text; see examples/
// for usage.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "knobs/availability.hpp"
#include "knobs/knob.hpp"
#include "knobs/low_level.hpp"
#include "knobs/scalability.hpp"

namespace vdep::knobs {

class VersatileDependability {
 public:
  explicit VersatileDependability(ReplicaGroupController& controller)
      : controller_(controller) {}

  // --- knobs by name -------------------------------------------------------------
  // The knobs available on this service, in kKnobs order: the low-level
  // ones, plus Scalability and Availability once installed.
  [[nodiscard]] std::vector<KnobDescriptor> knobs() const;
  // A knob's current value as text (Scalability: the applied client count,
  // or empty; Availability: the current configuration's predicted
  // availability). Throws std::out_of_range for a knob not listed.
  [[nodiscard]] std::string get(std::string_view name) const;
  // Parses `text` and sets the knob. Throws std::out_of_range for a knob not
  // listed and std::invalid_argument for text that is not one whole value or
  // a value out of range.
  void set(std::string_view name, const std::string& text);

  // Installs the profiled design space; synthesizes the high-level
  // scalability knob under the given requirements.
  const ScalabilityPolicy& install_scalability_knob(
      const DesignSpaceMap& map, const ScalabilityRequirements& requirements);
  // Applies the scalability policy for a client count (the high-level knob's
  // set operation); nullopt when infeasible.
  std::optional<PolicyEntry> tune_for_clients(int clients);

  // Installs the availability knob; setting it picks {style, replicas} for
  // a target availability under the model.
  void install_availability_knob(AvailabilityModel model);
  std::optional<AvailabilityChoice> tune_for_availability(double target);

 private:
  [[nodiscard]] bool installed(KnobId id) const;
  [[nodiscard]] const KnobDescriptor& listed(std::string_view name) const;

  ReplicaGroupController& controller_;
  std::optional<ScalabilityPolicy> scalability_policy_;
  std::optional<int> applied_clients_;
  std::optional<AvailabilityModel> availability_model_;
};

}  // namespace vdep::knobs
