#include "shard/router.hpp"

#include "obs/tracer.hpp"
#include "sim/kernel.hpp"

namespace vdep::shard {

namespace {
constexpr int kMaxAttempts = 16;              // route attempts per op (incl. refreshes)
constexpr SimTime kFrozenBackoff = msec(25);  // wait before retrying a frozen range
}  // namespace

struct RouteState {
  std::string operation;
  std::string key;
  std::optional<std::string> value;
  ShardRouter::Callback cb;
  int attempts = 0;
  ShardStatus last_status = ShardStatus::kOk;
};

ShardRouter::ShardRouter(orb::ClientOrb& orb, ShardMap initial,
                         monitor::MetricsRegistry* metrics)
    : orb_(orb), map_(std::move(initial)), metrics_(metrics) {}

void ShardRouter::route(const std::string& operation, const std::string& key,
                        std::optional<std::string> value, Callback cb) {
  auto state = std::make_shared<RouteState>();
  state->operation = operation;
  state->key = key;
  state->value = std::move(value);
  state->cb = std::move(cb);
  attempt(std::move(state));
}

void ShardRouter::attempt(std::shared_ptr<RouteState> state) {
  if (state->attempts >= kMaxAttempts) {
    state->cb(state->last_status, {});
    return;
  }
  ++state->attempts;

  const ShardEntry* entry = map_.lookup_key(state->key);
  if (entry == nullptr) {  // malformed cache — force a refresh and retry
    refresh_map([this, state] { attempt(state); });
    return;
  }
  ++routed_;
  if (metrics_ != nullptr) {
    metrics_->add("shard." + std::to_string(entry->shard) + ".requests");
  }

  obs::Tracer& tracer = orb_.process().kernel().tracer();
  obs::Span span =
      tracer.start_child("shard.route", "shard", orb_.process().name());
  span.note("shard", std::to_string(entry->shard));
  span.note("epoch", std::to_string(map_.epoch()));
  span.note("op", state->operation);
  obs::Tracer::Scope scope(tracer, span.context());

  orb::ObjectRef ref;
  ref.object_key = kObjectKey;
  ref.group = orb::GroupProfile{entry->group};
  const std::string* value = state->value ? &*state->value : nullptr;
  Bytes args = ShardServant::encode_data_args(map_.epoch(), state->key, value);

  orb_.invoke(ref, state->operation, std::move(args),
              [this, state](orb::ReplyStatus status, Bytes body) {
                if (status != orb::ReplyStatus::kNoException) {
                  state->last_status = ShardStatus::kBadRequest;
                  refresh_map([this, state] { attempt(state); });
                  return;
                }
                auto reply = ShardServant::decode_data_reply(body);
                if (reply.status == ShardStatus::kOk) {
                  state->cb(ShardStatus::kOk, std::move(reply.result));
                  return;
                }
                state->last_status = reply.status;
                ++stale_rejections_;
                if (metrics_ != nullptr) metrics_->add("shard.router.rejected");
                if (reply.status == ShardStatus::kFrozen) {
                  // Mid-donation: give the migration time to commit, then
                  // re-read the map and follow the range to its new group.
                  orb_.process().kernel().post(kFrozenBackoff, [this, state] {
                    refresh_map([this, state] { attempt(state); });
                  });
                } else {
                  refresh_map([this, state] { attempt(state); });
                }
              });
}

void ShardRouter::refresh_map(std::function<void()> then) {
  if (then) refresh_waiters_.push_back(std::move(then));
  if (refresh_in_flight_) return;
  refresh_in_flight_ = true;

  orb::ObjectRef ref;
  ref.object_key = kObjectKey;
  ref.group = orb::GroupProfile{kDirectoryGroup};
  orb_.invoke(ref, "dir.get", {}, [this](orb::ReplyStatus status, Bytes body) {
    refresh_in_flight_ = false;
    if (status == orb::ReplyStatus::kNoException) {
      auto reply = DirectoryServant::decode_get_reply(body);
      if (reply.status == ShardStatus::kOk && reply.map.epoch() > map_.epoch()) {
        map_ = std::move(reply.map);
        ++refreshes_;
        if (metrics_ != nullptr) metrics_->add("shard.router.refreshes");
      }
    }
    auto waiters = std::move(refresh_waiters_);
    refresh_waiters_.clear();
    for (auto& w : waiters) w();
  });
}

}  // namespace vdep::shard
