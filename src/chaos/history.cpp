#include "chaos/history.hpp"

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

RecordedClient::RecordedClient(sim::Process& process, Config config, Rng rng, Send send)
    : process_(process), config_(std::move(config)), rng_(rng), send_(std::move(send)) {}

void RecordedClient::start(SimTime at) {
  process_.kernel().post_at(at, process_.guarded([this] { issue_next(); }));
}

void RecordedClient::issue_next() {
  if (history_.size() >= static_cast<std::size_t>(config_.ops)) return;
  OpRecord rec;
  rec.client = config_.index;
  rec.seq = history_.size();
  rec.issued_at = process_.now();

  const double draw = rng_.uniform01();
  std::string value;
  if (draw < config_.append_ratio) {
    rec.op = "append";
    rec.key = client_log_key(config_.index);
    rec.token = value = append_token(config_.index, rec.seq);
  } else {
    rec.op = draw < config_.append_ratio + (1.0 - config_.append_ratio) / 2.0 ? "put" : "get";
    rec.key = config_.key_prefix + std::to_string(rng_.below(config_.key_space));
    if (rec.op == "put") {
      // Appended: GCC 12 at -O3 misreads "v" + std::to_string(..) as an
      // overlapping copy (-Wrestrict).
      value += 'v';
      value += std::to_string(rec.seq);
    }
  }
  history_.push_back(rec);

  send_(history_.back(), value, [this, slot = history_.size() - 1](bool ok) {
    OpRecord& done = history_[slot];
    done.completed_at = last_completed_ = process_.now();
    done.ok = ok;
    if (++completed_ == config_.ops) {
      if (on_done) on_done();
    } else {
      process_.post(config_.gap, [this] { issue_next(); });
    }
  });
}

}  // namespace vdep::chaos
