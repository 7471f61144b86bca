#include "monitor/replicated_state.hpp"

#include <algorithm>

#include "util/wire.hpp"

namespace vdep::monitor {

Bytes StateEntry::encode() const { return wire::encode(*this); }

StateEntry StateEntry::decode(std::span<const std::uint8_t> raw) {
  return wire::decode<StateEntry>(raw);
}

ReplicatedStateObject::ReplicatedStateObject(gcs::Daemon& daemon, sim::Process& process,
                                             GroupId monitor_group, CollectFn collect,
                                             SimTime publish_interval)
    : daemon_(daemon),
      process_(process),
      group_(monitor_group),
      collect_(std::move(collect)),
      interval_(publish_interval) {}

void ReplicatedStateObject::start() {
  endpoint_ = std::make_unique<gcs::Endpoint>(daemon_, process_);
  endpoint_->set_message_handler([this](const gcs::GroupMessage& msg) {
    // A member's last update can be ordered after its crash view (open
    // groups deliver non-member sends); ignore ghosts.
    if (view_ && !view_->contains(msg.sender)) return;
    StateEntry entry = StateEntry::decode(msg.payload);
    entries_[entry.reporter] = std::move(entry);
    version_.tick(msg.sender);
  });
  endpoint_->set_view_handler([this](const gcs::View& view) {
    view_ = view;
    // Drop state of departed members so decisions don't chase ghosts.
    std::erase_if(entries_, [&view](const auto& kv) { return !view.contains(kv.first); });
  });
  endpoint_->join(group_);
  publish();
}

void ReplicatedStateObject::publish() {
  process_.post(interval_, [this] {
    StateEntry entry = collect_();
    entry.reporter = process_.id();
    entry.reported_at = process_.now();
    endpoint_->multicast(group_, gcs::ServiceType::kSafe, entry.encode());
    publish();
  });
}

double ReplicatedStateObject::aggregate_request_rate() const {
  double total = 0.0;
  for (const auto& [pid, e] : entries_) total += e.request_rate;
  return entries_.empty() ? 0.0 : total / static_cast<double>(entries_.size());
}

double ReplicatedStateObject::max_cpu_load() const {
  double m = 0.0;
  for (const auto& [pid, e] : entries_) m = std::max(m, e.cpu_load);
  return m;
}

}  // namespace vdep::monitor
