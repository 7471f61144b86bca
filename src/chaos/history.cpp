#include "chaos/history.hpp"

#include "app/kv_store.hpp"
#include "util/assert.hpp"

namespace vdep::chaos {

std::string client_log_key(int client_index) {
  return "log:c" + std::to_string(client_index);
}

std::string append_token(int client_index, std::uint64_t seq) {
  return "[c" + std::to_string(client_index) + "#" + std::to_string(seq) + "]";
}

std::vector<std::string> parse_tokens(const std::string& log_value) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = log_value.find('[', pos)) != std::string::npos) {
    const std::size_t end = log_value.find(']', pos);
    if (end == std::string::npos) break;
    out.push_back(log_value.substr(pos, end - pos + 1));
    pos = end + 1;
  }
  return out;
}

WorkloadClient::WorkloadClient(harness::Scenario& scenario, Config config, Rng rng)
    : scenario_(scenario),
      config_(config),
      rng_(rng),
      process_(scenario.kernel(), ProcessId{7000 + static_cast<std::uint64_t>(config.index)},
               NodeId{static_cast<std::uint64_t>(config.index)},
               "chaos-client" + std::to_string(config.index)),
      orb_(scenario.network(), process_) {
  VDEP_ASSERT_MSG(config_.index < scenario.config().clients,
                  "one workload client per scenario client host");
  orb_.use_transport(std::make_unique<replication::ClientCoordinator>(
      scenario.network(), scenario.daemon_on(process_.host()), process_));
}

void WorkloadClient::start() {
  scenario_.kernel().post_at(config_.start_at + usec(125) * config_.index,
                             process_.guarded([this] { issue_next(); }));
}

void WorkloadClient::issue_next() {
  if (next_seq_ >= static_cast<std::uint64_t>(config_.ops)) return;
  const std::uint64_t seq = next_seq_++;

  OpRecord rec;
  rec.client = config_.index;
  rec.seq = seq;
  rec.issued_at = process_.now();

  const double draw = rng_.uniform01();
  Bytes args;
  if (draw < config_.append_ratio) {
    rec.op = "append";
    rec.key = client_log_key(config_.index);
    rec.token = append_token(config_.index, seq);
    args = app::KvStoreServant::encode_append(rec.key, rec.token);
  } else if (draw < config_.append_ratio + (1.0 - config_.append_ratio) / 2.0) {
    rec.op = "put";
    rec.key = "kv:c" + std::to_string(config_.index) + ":" +
              std::to_string(rng_.below(8));
    args = app::KvStoreServant::encode_put(rec.key, "v" + std::to_string(seq));
  } else {
    rec.op = "get";
    rec.key = "kv:c" + std::to_string(config_.index) + ":" +
              std::to_string(rng_.below(8));
    args = app::KvStoreServant::encode_key(rec.key);
  }

  const std::size_t slot = history_.size();
  history_.push_back(rec);

  orb_.invoke(scenario_.object_ref(), rec.op, std::move(args),
              [this, slot](orb::ReplyStatus status, Bytes /*body*/) {
                OpRecord& done = history_[slot];
                done.completed_at = process_.now();
                done.ok = status == orb::ReplyStatus::kNoException;
                last_completed_ = process_.now();
                ++completed_;
                if (scenario_.health_enabled()) {
                  auto& metrics = scenario_.metrics();
                  metrics.observe("service.latency_us",
                                  to_usec(process_.now() - done.issued_at));
                  metrics.add("service.requests");
                  if (!done.ok) metrics.add("service.failures");
                }
                if (this->done()) {
                  if (on_done) on_done();
                } else {
                  process_.post(config_.gap, [this] { issue_next(); });
                }
              });
}

}  // namespace vdep::chaos
