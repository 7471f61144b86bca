#include "harness/fabric.hpp"

#include <stdexcept>
#include <string>

#include "util/assert.hpp"

namespace vdep::harness {

namespace {
constexpr std::uint64_t kFirstDaemonPid = 100;
constexpr std::uint64_t kFirstClientPid = 5000;
}  // namespace

Fabric::Client::Client(Fabric& fabric, int index, NodeId host)
    : index(index),
      process(fabric.kernel(), ProcessId{kFirstClientPid + static_cast<std::uint64_t>(index)},
              host, "client" + std::to_string(index) + "@" + fabric.network().host_name(host)),
      orb(fabric.network(), process) {}

Fabric::Fabric(const FabricConfig& config) : kernel_(config.seed), network_(kernel_) {
  if (config.tracing) kernel_.tracer().enable();

  // Client hosts first: the lowest-id daemon is the GCS leader/sequencer, and
  // it should live on a machine the fault schedules never touch.
  std::vector<NodeId> hosts;
  for (int c = 0; c < config.client_hosts; ++c) {
    client_hosts_.push_back(network_.add_host("cli" + std::to_string(c)));
    hosts.push_back(client_hosts_.back());
  }
  for (int s = 0; s < config.server_hosts; ++s) {
    server_hosts_.push_back(network_.add_host("srv" + std::to_string(s)));
    hosts.push_back(server_hosts_.back());
  }

  std::uint64_t pid = kFirstDaemonPid;
  for (NodeId host : hosts) {
    daemons_.push_back(std::make_unique<gcs::Daemon>(kernel_, network_, ProcessId{pid++}, host,
                                                     hosts, config.daemon));
  }
  for (auto& d : daemons_) d->boot();

  if (config.health) {
    health_ = std::make_unique<monitor::health::HealthMonitor>(kernel_, metrics_,
                                                               config.health_params);
    for (auto& d : daemons_) health_->attach(*d);
    health_->start();
  }
}

Fabric::~Fabric() = default;

gcs::Daemon& Fabric::daemon_on(NodeId host) {
  for (auto& d : daemons_) {
    if (d->host() == host) return *d;
  }
  throw std::out_of_range("no daemon on host " + host.str());
}

monitor::health::HealthMonitor& Fabric::health() {
  VDEP_ASSERT_MSG(health_ != nullptr, "fabric built without health");
  return *health_;
}

Fabric::Client& Fabric::add_client(NodeId host) {
  clients_.push_back(
      std::make_unique<Client>(*this, static_cast<int>(clients_.size()), host));
  track(clients_.back()->process);
  return *clients_.back();
}

void Fabric::arm_faults() {
  if (faults_armed_ || fault_plan_.empty()) return;
  faults_armed_ = true;
  std::vector<sim::Process*> processes;
  for (auto& d : daemons_) processes.push_back(d.get());
  processes.insert(processes.end(), processes_.begin(), processes_.end());
  fault_plan_.arm(kernel_, network_, std::move(processes));
}

}  // namespace vdep::harness
