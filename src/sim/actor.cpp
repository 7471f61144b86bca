#include "sim/actor.hpp"

namespace vdep::sim {

Process::Process(Kernel& kernel, ProcessId id, NodeId host, std::string name)
    : kernel_(kernel), id_(id), host_(host), name_(std::move(name)) {}

void Process::crash() {
  if (!alive_) return;
  alive_ = false;
  ++epoch_;
  // Copy: listeners may unsubscribe/re-subscribe during iteration.
  auto listeners = crash_listeners_;
  for (auto& l : listeners) l(id_);
}

void Process::restart() {
  if (alive_) return;
  alive_ = true;
  ++epoch_;
  auto listeners = restart_listeners_;
  for (auto& l : listeners) l(id_);
}

void Process::subscribe_crash(std::function<void(ProcessId)> listener) {
  crash_listeners_.push_back(std::move(listener));
}

void Process::subscribe_restart(std::function<void(ProcessId)> listener) {
  restart_listeners_.push_back(std::move(listener));
}

}  // namespace vdep::sim
