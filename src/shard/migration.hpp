// MigrationController — drives online shard splits and whole-shard moves.
//
// The controller is a plain client process (own ORB + ClientCoordinator):
// every step below is a replicated request, so each step is exactly-once
// through source/target failovers (coordinator retransmission + reply-cache
// dedup), and the controller itself holds no authoritative state — the
// directory and the shard servants do.
//
//   dir.get -> compute successor map
//   shard.freeze(source)    — source stops serving the moving range
//   shard.donate(source)    — reply carries the encode-once bundle
//   shard.install(target)   — target absorbs the bundle, starts owning
//   dir.commit              — the new epoch becomes the routed truth (AGREED)
//   shard.release(source)   — source drops the moved keys
//
// Between freeze and release the moving range is served by nobody: the
// source rejects it kFrozen and routers only learn the target at commit.
// That is the no-double-serve invariant; the cost is a bounded availability
// gap for that range, which the chaos oracles time-bound via the client
// retry loop. A controller that loses a dir.commit race (kStaleEpoch)
// refetches and recomputes; per-step transient failures retry on a timer.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "replication/client_coordinator.hpp"
#include "shard/directory.hpp"
#include "shard/router.hpp"

namespace vdep::shard {

class MigrationController {
 public:
  struct Record {
    std::uint64_t id = 0;           // migration id (unique per controller)
    std::uint32_t source_shard = 0;
    std::uint32_t new_shard = 0;    // == source_shard for whole-shard moves
    KeyRange moved;
    GroupId from;
    GroupId to;
    std::uint64_t committed_epoch = 0;
    ShardMap committed_map;         // the map this migration put in force
    SimTime started = kTimeZero;
    SimTime committed = kTimeZero;  // dir.commit acknowledged
    SimTime finished = kTimeZero;   // release acknowledged
    std::uint64_t bytes_moved = 0;  // donated bundle size
    bool success = false;
    std::string error;
  };

  using Done = std::function<void(const Record&)>;

  MigrationController(net::Network& network, gcs::Daemon& daemon,
                      sim::Kernel& kernel, ProcessId pid, NodeId host,
                      monitor::MetricsRegistry* metrics = nullptr);
  ~MigrationController();

  // Split `shard_id` at `split_point` (the upper part moves to
  // `target_group` under `policy`). Queued if a migration is in flight.
  void split(std::uint32_t shard_id, std::uint32_t split_point,
             GroupId target_group, const ShardPolicy& policy, Done done = {});

  // Move the whole of `shard_id` to `target_group`.
  void move(std::uint32_t shard_id, GroupId target_group, Done done = {});

  [[nodiscard]] bool idle() const { return !busy_ && queue_.empty(); }
  [[nodiscard]] const std::vector<Record>& history() const { return history_; }
  [[nodiscard]] std::uint64_t bytes_moved_total() const { return bytes_moved_total_; }

 private:
  struct Job;
  void pump();
  void run(std::shared_ptr<Job> job);
  void step(std::shared_ptr<Job> job, const std::string& what,
            const orb::ObjectRef& ref, const std::string& operation, Bytes args,
            std::function<void(ShardStatus, Bytes)> on_ok);
  void finish(std::shared_ptr<Job> job, bool success, const std::string& error);
  [[nodiscard]] orb::ObjectRef group_ref(GroupId group) const;

  sim::Kernel& kernel_;
  monitor::MetricsRegistry* metrics_;
  sim::Process process_;
  orb::ClientOrb orb_;
  std::uint64_t next_migration_id_ = 1;
  bool busy_ = false;
  std::deque<std::shared_ptr<Job>> queue_;
  std::vector<Record> history_;
  std::uint64_t bytes_moved_total_ = 0;
};

}  // namespace vdep::shard
