// ShardRouter — client-side key routing over a cached shard map.
//
// Sits between the application and its ClientOrb: hashes the key, picks the
// owning group from the cached map, and issues the request through the
// normal replicated path (so retransmission, failover and reply dedup are
// untouched). Fencing rejections from the servant (kWrongShard — the cached
// map is stale; kFrozen — the range is mid-donation) trigger a directory
// refresh and a bounded re-route: the epoch-fenced retry loop of the shard
// protocol. Every route opens a "shard.route" span tagged with the shard id
// and map epoch, so flight recordings can be filtered per shard.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "monitor/metrics.hpp"
#include "orb/orb_core.hpp"
#include "shard/directory.hpp"
#include "shard/shard_servant.hpp"

namespace vdep::shard {

struct RouteState;  // per-operation retry state (router.cpp)

class ShardRouter {
 public:
  // Status is the final shard-level outcome; `inner` holds the KV result
  // bytes (KvStoreServant::decode_* applies) when status == kOk.
  using Callback = std::function<void(ShardStatus, Bytes inner)>;

  ShardRouter(orb::ClientOrb& orb, ShardMap initial,
              monitor::MetricsRegistry* metrics = nullptr);

  void put(const std::string& key, const std::string& value, Callback cb) {
    route("put", key, value, std::move(cb));
  }
  void get(const std::string& key, Callback cb) {
    route("get", key, {}, std::move(cb));
  }
  void erase(const std::string& key, Callback cb) {
    route("erase", key, {}, std::move(cb));
  }
  void append(const std::string& key, const std::string& value, Callback cb) {
    route("append", key, value, std::move(cb));
  }

  // Fetch the directory's current map; `then` (optional) runs after the
  // cache is updated. Coalesces concurrent refreshes into one "dir.get".
  void refresh_map(std::function<void()> then = {});

  [[nodiscard]] const ShardMap& map() const { return map_; }
  [[nodiscard]] std::uint64_t map_epoch() const { return map_.epoch(); }
  [[nodiscard]] std::uint64_t routed() const { return routed_; }
  [[nodiscard]] std::uint64_t stale_rejections() const { return stale_rejections_; }
  [[nodiscard]] std::uint64_t refreshes() const { return refreshes_; }

 private:
  void route(const std::string& operation, const std::string& key,
             std::optional<std::string> value, Callback cb);
  void attempt(std::shared_ptr<RouteState> state);

  orb::ClientOrb& orb_;
  ShardMap map_;
  monitor::MetricsRegistry* metrics_;
  bool refresh_in_flight_ = false;
  std::vector<std::function<void()>> refresh_waiters_;
  std::uint64_t routed_ = 0;
  std::uint64_t stale_rejections_ = 0;
  std::uint64_t refreshes_ = 0;
};

}  // namespace vdep::shard
