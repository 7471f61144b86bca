#include "knobs/versatile.hpp"

#include <stdexcept>
#include <type_traits>

#include "util/config.hpp"

namespace vdep::knobs {

namespace {

// Low-level values as text: style names, checkpoint intervals in
// microseconds, counts in decimal.
struct Format {
  std::string operator()(replication::ReplicationStyle style) const {
    return replication::to_string(style);
  }
  std::string operator()(SimTime interval) const {
    return std::to_string(static_cast<long long>(to_usec(interval)));
  }
  template <typename Count>
  std::string operator()(Count n) const {
    return std::to_string(n);
  }
};

// The inverse of Format, by the value's type.
template <typename T>
T parse(const std::string& text, const std::string& what) {
  if constexpr (std::is_same_v<T, replication::ReplicationStyle>) {
    return replication::parse_style(text);
  } else if constexpr (std::is_same_v<T, SimTime>) {
    return usec(parse_number<std::int64_t>(text, what));
  } else {
    return parse_number<T>(text, what);
  }
}

}  // namespace

bool VersatileDependability::installed(KnobId id) const {
  if (id == KnobId::kScalability) return scalability_policy_.has_value();
  if (id == KnobId::kAvailability) return availability_model_.has_value();
  return true;
}

const KnobDescriptor& VersatileDependability::listed(std::string_view name) const {
  for (const KnobDescriptor& knob : kKnobs) {
    if (knob.name == name && installed(knob.id)) return knob;
  }
  throw std::out_of_range("no such knob: " + std::string(name));
}

std::vector<KnobDescriptor> VersatileDependability::knobs() const {
  std::vector<KnobDescriptor> out;
  for (const KnobDescriptor& knob : kKnobs) {
    if (installed(knob.id)) out.push_back(knob);
  }
  return out;
}

std::string VersatileDependability::get(std::string_view name) const {
  const KnobId id = listed(name).id;
  if (id == KnobId::kScalability) {
    return applied_clients_ ? std::to_string(*applied_clients_) : std::string();
  }
  if (id == KnobId::kAvailability) {
    const Configuration config{controller_.style(), controller_.replica_count()};
    return std::to_string(predicted_availability(config, *availability_model_));
  }
  return std::visit(Format{}, controller_.read(id).value);
}

void VersatileDependability::set(std::string_view name, const std::string& text) {
  const KnobId id = listed(name).id;
  const std::string what = "value for knob " + std::string(name);
  if (id == KnobId::kScalability) {
    tune_for_clients(parse_number<int>(text, what));
    return;
  }
  if (id == KnobId::kAvailability) {
    tune_for_availability(parse_number<double>(text, what));
    return;
  }
  // The current setting carries the value's type; parse the text into it.
  Setting setting = controller_.read(id);
  std::visit([&](auto& value) { value = parse<std::decay_t<decltype(value)>>(text, what); },
             setting.value);
  controller_.apply(setting);
}

const ScalabilityPolicy& VersatileDependability::install_scalability_knob(
    const DesignSpaceMap& map, const ScalabilityRequirements& requirements) {
  scalability_policy_ = synthesize_scalability_policy(map, requirements);
  return *scalability_policy_;
}

std::optional<PolicyEntry> VersatileDependability::tune_for_clients(int clients) {
  if (!scalability_policy_) return std::nullopt;
  auto entry = scalability_policy_->for_clients(clients);
  if (!entry) return std::nullopt;
  controller_.set_replica_count(entry->config.replicas);
  controller_.set_style(entry->config.style);
  applied_clients_ = clients;
  return entry;
}

void VersatileDependability::install_availability_knob(AvailabilityModel model) {
  availability_model_ = model;
}

std::optional<AvailabilityChoice> VersatileDependability::tune_for_availability(
    double target) {
  if (!availability_model_) return std::nullopt;
  auto choice = choose_for_availability(target, *availability_model_);
  if (!choice) return std::nullopt;
  controller_.set_replica_count(choice->config.replicas);
  controller_.set_style(choice->config.style);
  return choice;
}

}  // namespace vdep::knobs
