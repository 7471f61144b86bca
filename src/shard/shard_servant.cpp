#include "shard/shard_servant.hpp"

#include <algorithm>

#include "orb/cdr.hpp"
#include "replication/types.hpp"
#include "util/wire.hpp"

namespace vdep::shard {

namespace {

constexpr SimTime kRouteCheckTime = usec(2);  // fence lookup per request
constexpr double kBundleBytesPerSec = 100e6;  // donate/install (de)serialization

SimTime bundle_cpu(std::size_t bytes) {
  return usec_f(static_cast<double>(bytes) / kBundleBytesPerSec * 1e6);
}

// A snapshot or delta: the control state, then the store's snapshot or
// delta, each a length-prefixed blob. Encoding refers to both (the control
// state is written in place); decoding fills its own.
template <typename Control, typename Inner>
struct Frame {
  Control control;
  Inner inner;

  template <typename IO>
  friend void wire_fields(IO& io, Frame& m) {
    io.blob(m.control);
    io(m.inner);
  }
};

}  // namespace

std::string to_string(ShardStatus status) {
  switch (status) {
    case ShardStatus::kOk: return "ok";
    case ShardStatus::kWrongShard: return "wrong_shard";
    case ShardStatus::kFrozen: return "frozen";
    case ShardStatus::kStaleEpoch: return "stale_epoch";
    case ShardStatus::kBadRequest: return "bad_request";
  }
  return "unknown";
}

ShardServant::ShardServant(std::vector<KeyRange> owned, std::uint64_t fence_epoch) {
  control_.fence_epoch = fence_epoch;
  control_.owned = std::move(owned);
  std::sort(control_.owned.begin(), control_.owned.end(),
            [](const KeyRange& a, const KeyRange& b) { return a.lo < b.lo; });
}

bool ShardServant::owns(std::uint32_t hash) const {
  for (const auto& r : control_.owned) {
    if (r.contains(hash)) return true;
  }
  return false;
}

std::size_t ShardServant::stray_keys() const {
  std::size_t n = 0;
  for (const auto& [k, v] : inner_.items()) {
    if (!owns(shard_hash(k))) ++n;
  }
  return n;
}

ShardServant::Result ShardServant::status_reply(ShardStatus status, SimTime cpu) {
  Result result;
  result.output = orb::cdr_encode<Bytes>(StatusReply{status});
  result.cpu_time = cpu;
  return result;
}

ShardServant::Result ShardServant::invoke(const std::string& operation,
                                          const Bytes& args) {
  try {
    return operation.rfind("shard.", 0) == 0 ? control(operation, args)
                                             : data_op(operation, args);
  } catch (const DecodeError&) {
    // Malformed arguments, answered like an unknown operation.
    return status_reply(ShardStatus::kBadRequest, kRouteCheckTime);
  }
}

ShardServant::Result ShardServant::data_op(const std::string& operation,
                                           const Bytes& args) {
  const auto op = app::kv_op(operation);
  if (!op || *op == app::KvOp::kSize) {
    return status_reply(ShardStatus::kBadRequest, kRouteCheckTime);
  }
  auto decoded = orb::cdr_decode(args, DataArgs{0, {*op, {}, {}}});

  const std::uint32_t h = shard_hash(decoded.kv.key);
  if (control_.frozen && control_.frozen->range.contains(h)) {
    return status_reply(ShardStatus::kFrozen, kRouteCheckTime);
  }
  if (!owns(h)) {
    return status_reply(ShardStatus::kWrongShard, kRouteCheckTime);
  }

  Result inner = inner_.apply(std::move(decoded.kv));
  Result result;
  result.output = orb::cdr_encode<Bytes>(ResultReply{{ShardStatus::kOk}, std::move(inner.output)});
  result.cpu_time = kRouteCheckTime + inner.cpu_time;
  return result;
}

ShardServant::Result ShardServant::control(const std::string& operation,
                                           const Bytes& args) {
  if (operation == "shard.freeze") return freeze(orb::cdr_decode<Migration>(args));
  if (operation == "shard.donate") return donate(orb::cdr_decode<std::uint64_t>(args));
  if (operation == "shard.install") return install(orb::cdr_decode<InstallArgs>(args));
  if (operation == "shard.release") return release(orb::cdr_decode<std::uint64_t>(args));
  return status_reply(ShardStatus::kBadRequest, kRouteCheckTime);
}

ShardServant::Result ShardServant::freeze(const Migration& m) {
  const auto& frozen = control_.frozen;
  if (control_.done.count(m.id) != 0 || (frozen && frozen->id == m.id)) {
    return status_reply(ShardStatus::kOk, kRouteCheckTime);  // duplicate
  }
  if (frozen) {
    // One outbound migration at a time; the controller serializes them.
    return status_reply(ShardStatus::kBadRequest, kRouteCheckTime);
  }
  // The range must be entirely owned here.
  std::uint64_t covered = 0;
  for (const auto& o : control_.owned) {
    const std::uint32_t lo = std::max(o.lo, m.range.lo);
    const std::uint32_t hi = std::min(o.hi, m.range.hi);
    if (lo <= hi) covered += static_cast<std::uint64_t>(hi) - lo + 1;
  }
  if (covered != m.range.width()) {
    return status_reply(ShardStatus::kWrongShard, kRouteCheckTime);
  }
  control_.frozen = m;
  return status_reply(ShardStatus::kOk, kRouteCheckTime);
}

ShardServant::Result ShardServant::donate(std::uint64_t id) {
  if (!control_.frozen || control_.frozen->id != id) {
    return status_reply(ShardStatus::kBadRequest, kRouteCheckTime);
  }
  // Encode once: the frozen range as the anchor of a StateTransferMsg, the
  // same bundle format a joiner receives. The range cannot mutate while
  // frozen, so this cut is exact regardless of when the controller reads it.
  replication::CheckpointMsg anchor;
  anchor.kind = replication::CheckpointMsg::Kind::kFull;
  anchor.checkpoint_id = id;
  app::KvPairViews donated;
  for (const auto& [key, value] : inner_.items()) {
    if (control_.frozen->range.contains(shard_hash(key))) {
      donated.items.emplace_back(key, value);
    }
  }
  anchor.app_state = wire::encode(donated);
  replication::StateTransferMsg bundle;
  bundle.anchor = anchor.encode();
  Bytes encoded = wire::encode<Bytes>(bundle);

  Result result;
  result.cpu_time = kRouteCheckTime + bundle_cpu(encoded.size());
  result.output = orb::cdr_encode<Bytes>(ResultReply{{ShardStatus::kOk}, std::move(encoded)});
  return result;
}

ShardServant::Result ShardServant::install(const InstallArgs& args) {
  if (control_.done.count(args.id) != 0) {
    return status_reply(ShardStatus::kOk, kRouteCheckTime);  // duplicate
  }
  SimTime cpu = kRouteCheckTime + bundle_cpu(args.bundle.size());
  const auto msg = replication::StateTransferMsg::decode(Payload::copy_of(args.bundle));
  const auto anchor = replication::CheckpointMsg::decode(msg.anchor);
  // Decode the whole range before applying any of it: a malformed bundle
  // must leave the store untouched.
  auto range_items = wire::decode<app::KvPairs>(anchor.app_state).items;
  for (auto& [key, value] : range_items) {
    // As a put, so dirty-set tracking stays coherent with normal writes.
    cpu = cpu + inner_.apply({app::KvOp::kPut, std::move(key), std::move(value)}).cpu_time;
  }
  owned_add(args.range);
  control_.fence_epoch = std::max(control_.fence_epoch, args.post_epoch);
  control_.done.insert(args.id);
  return status_reply(ShardStatus::kOk, cpu);
}

ShardServant::Result ShardServant::release(std::uint64_t id) {
  if (control_.done.count(id) != 0) {
    return status_reply(ShardStatus::kOk, kRouteCheckTime);  // duplicate
  }
  if (!control_.frozen || control_.frozen->id != id) {
    return status_reply(ShardStatus::kBadRequest, kRouteCheckTime);
  }
  SimTime cpu = kRouteCheckTime;
  std::vector<std::string> moved;
  for (const auto& [k, v] : inner_.items()) {
    if (control_.frozen->range.contains(shard_hash(k))) moved.push_back(k);
  }
  for (auto& key : moved) {
    cpu = cpu + inner_.apply({app::KvOp::kErase, std::move(key), {}}).cpu_time;
  }
  owned_remove(control_.frozen->range);
  control_.fence_epoch = std::max(control_.fence_epoch, control_.frozen->post_epoch);
  control_.frozen.reset();
  control_.done.insert(id);
  return status_reply(ShardStatus::kOk, cpu);
}

void ShardServant::owned_add(KeyRange range) {
  control_.owned.push_back(range);
  std::sort(control_.owned.begin(), control_.owned.end(),
            [](const KeyRange& a, const KeyRange& b) { return a.lo < b.lo; });
  // Coalesce adjacent/overlapping ranges so the owned list stays canonical.
  std::vector<KeyRange> merged;
  for (const auto& r : control_.owned) {
    if (!merged.empty() && r.lo != 0 &&
        static_cast<std::uint64_t>(merged.back().hi) + 1 >= r.lo) {
      merged.back().hi = std::max(merged.back().hi, r.hi);
    } else {
      merged.push_back(r);
    }
  }
  control_.owned = std::move(merged);
}

void ShardServant::owned_remove(KeyRange range) {
  std::vector<KeyRange> next;
  for (const auto& o : control_.owned) {
    if (o.hi < range.lo || o.lo > range.hi) {
      next.push_back(o);
      continue;
    }
    if (o.lo < range.lo) next.push_back({o.lo, range.lo - 1});
    if (o.hi > range.hi) next.push_back({range.hi + 1, o.hi});
  }
  control_.owned = std::move(next);
}

Bytes ShardServant::encode_data_args(std::uint64_t map_epoch, const std::string& key,
                                     const std::string* value) {
  // kPut stands for any operation that carries a value.
  const auto op = value != nullptr ? app::KvOp::kPut : app::KvOp::kGet;
  return orb::cdr_encode<Bytes>(DataArgs{map_epoch, {op, key, value != nullptr ? *value : ""}});
}

ResultReply ShardServant::decode_data_reply(const Bytes& body) {
  return orb::cdr_decode<ResultReply>(body);
}

// --- checkpoint/state-transfer integration -----------------------------------

Bytes ShardServant::snapshot() const {
  const Bytes inner = inner_.snapshot();
  return wire::encode<Bytes>(Frame<const Control&, const Bytes&>{control_, inner});
}

void ShardServant::restore(std::span<const std::uint8_t> snapshot) {
  auto frame = wire::decode<Frame<Control, Bytes>>(snapshot);
  inner_.restore(frame.inner);
  control_ = std::move(frame.control);
}

std::size_t ShardServant::state_size() const {
  return inner_.state_size() + wire::encoded_size<ByteWriter>(control_);
}

std::uint64_t ShardServant::state_digest() const {
  return fnv1a(wire::encode(control_)) ^ (inner_.state_digest() * 0x9e3779b97f4a7c15ULL);
}

std::uint64_t ShardServant::cut_epoch() { return inner_.cut_epoch(); }

std::optional<Bytes> ShardServant::snapshot_delta(std::uint64_t since_epoch) const {
  const auto inner = inner_.snapshot_delta(since_epoch);
  if (!inner) return std::nullopt;
  return wire::encode<Bytes>(Frame<const Control&, const Bytes&>{control_, *inner});
}

void ShardServant::apply_delta(std::span<const std::uint8_t> delta) {
  auto frame = wire::decode<Frame<Control, Bytes>>(delta);
  inner_.apply_delta(frame.inner);
  control_ = std::move(frame.control);
}

}  // namespace vdep::shard
