// Recorded chaos clients: closed-loop KV traffic with a recorded history.
//
// A RecordedClient runs on one of the harness's own client endpoints — a
// real client process with its ORB and client-side replicator
// (ClientCoordinator), the one harness::Fabric builds per client host — so
// retransmissions, failovers and reply dedup all happen on the genuine code
// paths. It only draws and records ops; the trial hands it a send function:
// a single-group trial invokes the KvStore through the endpoint's ORB, a
// sharded trial goes through the endpoint's shard router.
//
// The exactly-once oracle needs duplicated executions to be *visible in
// state*, so the workload's backbone is "append" operations carrying unique
// tokens to a per-client log key: a retransmission that is wrongly
// re-executed leaves its token in the log twice.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/actor.hpp"
#include "util/rng.hpp"

namespace vdep::chaos {

struct OpRecord {
  int client = 0;
  std::uint64_t seq = 0;     // per-client issue index
  std::string op;            // "append" | "put" | "get"
  std::string key;
  std::string token;         // append payload token, "" otherwise
  SimTime issued_at = kTimeZero;
  std::optional<SimTime> completed_at;
  bool ok = false;  // the service answered without an error
};

// The log key replica state is audited under, and the token grammar.
[[nodiscard]] std::string client_log_key(int client_index);
[[nodiscard]] std::string append_token(int client_index, std::uint64_t seq);
// Splits a log value back into tokens ("[...]" concatenation).
[[nodiscard]] std::vector<std::string> parse_tokens(const std::string& log_value);

class RecordedClient {
 public:
  // Completes one op; ok = the service answered without an error.
  using Done = std::function<void(bool ok)>;
  // Hands one op to the service. `value` is the append token or put value
  // ("" for a get).
  using Send = std::function<void(const OpRecord& op, const std::string& value, Done done)>;

  struct Config {
    int index = 0;
    int ops = 100;
    SimTime gap = msec(12);     // think time between completions
    double append_ratio = 0.7;  // rest split between put and get
    // Put/get keys: key_prefix + a draw from [0, key_space).
    std::string key_prefix = "k";
    std::uint64_t key_space = 64;
  };

  // Runs on `process`, the client endpoint `send` talks through.
  RecordedClient(sim::Process& process, Config config, Rng rng, Send send);
  RecordedClient(const RecordedClient&) = delete;
  RecordedClient& operator=(const RecordedClient&) = delete;

  // Schedules the first op.
  void start(SimTime at);

  [[nodiscard]] int completed() const { return completed_; }
  [[nodiscard]] SimTime last_completed_at() const { return last_completed_; }
  [[nodiscard]] const std::vector<OpRecord>& history() const { return history_; }

  // Fires once when the final op completes.
  std::function<void()> on_done;

 private:
  void issue_next();

  sim::Process& process_;
  Config config_;
  Rng rng_;
  Send send_;
  int completed_ = 0;
  SimTime last_completed_ = kTimeZero;
  std::vector<OpRecord> history_;
};

}  // namespace vdep::chaos
