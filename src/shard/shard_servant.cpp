#include "shard/shard_servant.hpp"

#include <algorithm>

#include "orb/cdr.hpp"
#include "replication/types.hpp"

namespace vdep::shard {

namespace {

constexpr SimTime kRouteCheckTime = usec(2);  // fence lookup per request
constexpr double kBundleBytesPerSec = 100e6;  // donate/install (de)serialization

SimTime bundle_cpu(std::size_t bytes) {
  return usec_f(static_cast<double>(bytes) / kBundleBytesPerSec * 1e6);
}

// The donated range as flat (key, value) pairs — the app_state of the
// bundle's anchor checkpoint.
Bytes encode_submap(const std::map<std::string, std::string>& items, KeyRange range) {
  std::uint32_t count = 0;
  for (const auto& [k, v] : items) {
    if (range.contains(shard_hash(k))) ++count;
  }
  ByteWriter w;
  w.u32(count);
  for (const auto& [k, v] : items) {
    if (!range.contains(shard_hash(k))) continue;
    w.str(k);
    w.str(v);
  }
  return std::move(w).take();
}

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

ShardServant::ShardServant(std::vector<KeyRange> owned, std::uint64_t fence_epoch)
    : fence_epoch_(fence_epoch), owned_(std::move(owned)) {
  std::sort(owned_.begin(), owned_.end(),
            [](const KeyRange& a, const KeyRange& b) { return a.lo < b.lo; });
}

bool ShardServant::owns(std::uint32_t hash) const {
  for (const auto& r : owned_) {
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
  orb::CdrWriter w;
  w.ulong(static_cast<std::uint32_t>(status));
  Result result;
  result.output = std::move(w).take();
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
  const bool needs_value = operation == "put" || operation == "append";
  const bool known = needs_value || operation == "get" || operation == "erase";
  if (!known) return status_reply(ShardStatus::kBadRequest, kRouteCheckTime);

  orb::CdrReader r(args);
  (void)r.ulonglong();  // client's cached map epoch — diagnostic; fencing is by ownership
  const std::string key = r.string();
  const std::string value = needs_value ? r.string() : std::string{};

  const std::uint32_t h = shard_hash(key);
  if (frozen_ && frozen_->range.contains(h)) {
    return status_reply(ShardStatus::kFrozen, kRouteCheckTime);
  }
  if (!owns(h)) {
    return status_reply(ShardStatus::kWrongShard, kRouteCheckTime);
  }

  Bytes inner_args;
  if (operation == "put") {
    inner_args = app::KvStoreServant::encode_put(key, value);
  } else if (operation == "append") {
    inner_args = app::KvStoreServant::encode_append(key, value);
  } else {
    inner_args = app::KvStoreServant::encode_key(key);
  }
  Result inner = inner_.invoke(operation, inner_args);
  if (!inner.ok) return inner;

  orb::CdrWriter w;
  w.ulong(static_cast<std::uint32_t>(ShardStatus::kOk));
  w.octets(inner.output);
  Result result;
  result.output = std::move(w).take();
  result.cpu_time = kRouteCheckTime + inner.cpu_time;
  return result;
}

ShardServant::Result ShardServant::control(const std::string& operation,
                                           const Bytes& args) {
  orb::CdrReader r(args);
  if (operation == "shard.freeze") {
    Migration m;
    m.id = r.ulonglong();
    m.range.lo = r.ulong();
    m.range.hi = r.ulong();
    m.post_epoch = r.ulonglong();
    m.target = GroupId{r.ulonglong()};
    return freeze(m);
  }
  if (operation == "shard.donate") return donate(r.ulonglong());
  if (operation == "shard.install") {
    const std::uint64_t id = r.ulonglong();
    KeyRange range;
    range.lo = r.ulong();
    range.hi = r.ulong();
    const std::uint64_t post_epoch = r.ulonglong();
    const Bytes bundle = r.octets();
    return install(id, range, post_epoch, bundle);
  }
  if (operation == "shard.release") return release(r.ulonglong());
  return status_reply(ShardStatus::kBadRequest, kRouteCheckTime);
}

ShardServant::Result ShardServant::freeze(const Migration& m) {
  if (done_migrations_.count(m.id) != 0 || (frozen_ && frozen_->id == m.id)) {
    return status_reply(ShardStatus::kOk, kRouteCheckTime);  // duplicate
  }
  if (frozen_) {
    // One outbound migration at a time; the controller serializes them.
    return status_reply(ShardStatus::kBadRequest, kRouteCheckTime);
  }
  // The range must be entirely owned here.
  std::uint64_t covered = 0;
  for (const auto& o : owned_) {
    const std::uint32_t lo = std::max(o.lo, m.range.lo);
    const std::uint32_t hi = std::min(o.hi, m.range.hi);
    if (lo <= hi) covered += static_cast<std::uint64_t>(hi) - lo + 1;
  }
  if (covered != m.range.width()) {
    return status_reply(ShardStatus::kWrongShard, kRouteCheckTime);
  }
  frozen_ = m;
  return status_reply(ShardStatus::kOk, kRouteCheckTime);
}

ShardServant::Result ShardServant::donate(std::uint64_t id) {
  if (!frozen_ || frozen_->id != id) {
    return status_reply(ShardStatus::kBadRequest, kRouteCheckTime);
  }
  // Encode once: the frozen range as the anchor of a StateTransferMsg, the
  // same bundle format a joiner receives. The range cannot mutate while
  // frozen, so this cut is exact regardless of when the controller reads it.
  replication::CheckpointMsg anchor;
  anchor.kind = replication::CheckpointMsg::Kind::kFull;
  anchor.checkpoint_id = id;
  anchor.app_state = Payload(encode_submap(inner_.items(), frozen_->range));
  replication::StateTransferMsg bundle;
  bundle.anchor = Payload(anchor.encode());
  Bytes encoded = bundle.encode();

  const SimTime cpu = kRouteCheckTime + bundle_cpu(encoded.size());
  orb::CdrWriter w;
  w.ulong(static_cast<std::uint32_t>(ShardStatus::kOk));
  w.octets(encoded);
  Result result;
  result.output = std::move(w).take();
  result.cpu_time = cpu;
  return result;
}

ShardServant::Result ShardServant::install(std::uint64_t id, KeyRange range,
                                           std::uint64_t post_epoch,
                                           const Bytes& bundle) {
  if (done_migrations_.count(id) != 0) {
    return status_reply(ShardStatus::kOk, kRouteCheckTime);  // duplicate
  }
  SimTime cpu = kRouteCheckTime + bundle_cpu(bundle.size());
  const auto msg = replication::StateTransferMsg::decode(Payload::copy_of(bundle));
  const auto anchor = replication::CheckpointMsg::decode(msg.anchor);
  // Decode the whole range before applying any of it: a malformed bundle
  // must leave the store untouched.
  ByteReader r(anchor.app_state.view());
  std::vector<std::pair<std::string, std::string>> items(r.count(8));  // two empty strings
  for (auto& [key, value] : items) {
    key = r.str();
    value = r.str();
  }
  for (const auto& [key, value] : items) {
    // Through the inner invoke so dirty-set tracking and on_apply stay
    // coherent with normal writes.
    Result put = inner_.invoke("put", app::KvStoreServant::encode_put(key, value));
    cpu = cpu + put.cpu_time;
  }
  owned_add(range);
  fence_epoch_ = std::max(fence_epoch_, post_epoch);
  done_migrations_.insert(id);
  return status_reply(ShardStatus::kOk, cpu);
}

ShardServant::Result ShardServant::release(std::uint64_t id) {
  if (done_migrations_.count(id) != 0) {
    return status_reply(ShardStatus::kOk, kRouteCheckTime);  // duplicate
  }
  if (!frozen_ || frozen_->id != id) {
    return status_reply(ShardStatus::kBadRequest, kRouteCheckTime);
  }
  SimTime cpu = kRouteCheckTime;
  std::vector<std::string> moved;
  for (const auto& [k, v] : inner_.items()) {
    if (frozen_->range.contains(shard_hash(k))) moved.push_back(k);
  }
  for (const auto& key : moved) {
    Result erase = inner_.invoke("erase", app::KvStoreServant::encode_key(key));
    cpu = cpu + erase.cpu_time;
  }
  owned_remove(frozen_->range);
  fence_epoch_ = std::max(fence_epoch_, frozen_->post_epoch);
  frozen_.reset();
  done_migrations_.insert(id);
  return status_reply(ShardStatus::kOk, cpu);
}

void ShardServant::owned_add(KeyRange range) {
  owned_.push_back(range);
  std::sort(owned_.begin(), owned_.end(),
            [](const KeyRange& a, const KeyRange& b) { return a.lo < b.lo; });
  // Coalesce adjacent/overlapping ranges so owned_ stays canonical.
  std::vector<KeyRange> merged;
  for (const auto& r : owned_) {
    if (!merged.empty() && r.lo != 0 &&
        static_cast<std::uint64_t>(merged.back().hi) + 1 >= r.lo) {
      merged.back().hi = std::max(merged.back().hi, r.hi);
    } else {
      merged.push_back(r);
    }
  }
  owned_ = std::move(merged);
}

void ShardServant::owned_remove(KeyRange range) {
  std::vector<KeyRange> next;
  for (const auto& o : owned_) {
    if (o.hi < range.lo || o.lo > range.hi) {
      next.push_back(o);
      continue;
    }
    if (o.lo < range.lo) next.push_back({o.lo, range.lo - 1});
    if (o.hi > range.hi) next.push_back({range.hi + 1, o.hi});
  }
  owned_ = std::move(next);
}

Bytes ShardServant::encode_data_args(std::uint64_t map_epoch, const std::string& key,
                                     const std::string* value) {
  orb::CdrWriter w;
  w.ulonglong(map_epoch);
  w.string(key);
  if (value != nullptr) w.string(*value);
  return std::move(w).take();
}

ShardServant::DataReply ShardServant::decode_data_reply(const Bytes& body) {
  orb::CdrReader r(body);
  DataReply reply;
  reply.status = static_cast<ShardStatus>(r.ulong());
  if (reply.status == ShardStatus::kOk) reply.inner = r.octets();
  return reply;
}

// --- checkpoint/state-transfer integration -----------------------------------
//
// The control state (fence epoch, ownership, in-flight migration, done set)
// rides in front of the inner store's encoding, in full, in both snapshots
// and deltas — it is tiny and must survive any chain position, because a
// replica promoted from a delta chain mid-migration has to keep enforcing
// the freeze.

Bytes ShardServant::encode_control() const {
  ByteWriter w;
  w.u64(fence_epoch_);
  w.u32(static_cast<std::uint32_t>(owned_.size()));
  for (const auto& r : owned_) {
    w.u32(r.lo);
    w.u32(r.hi);
  }
  w.boolean(frozen_.has_value());
  if (frozen_) {
    w.u64(frozen_->id);
    w.u32(frozen_->range.lo);
    w.u32(frozen_->range.hi);
    w.u64(frozen_->post_epoch);
    w.u64(frozen_->target.value());
  }
  w.u32(static_cast<std::uint32_t>(done_migrations_.size()));
  for (std::uint64_t id : done_migrations_) w.u64(id);
  return std::move(w).take();
}

std::span<const std::uint8_t> ShardServant::decode_control(
    std::span<const std::uint8_t> raw) {
  ByteReader r(raw);
  fence_epoch_ = r.u64();
  owned_.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    KeyRange range;
    range.lo = r.u32();
    range.hi = r.u32();
    owned_.push_back(range);
  }
  frozen_.reset();
  if (r.boolean()) {
    Migration m;
    m.id = r.u64();
    m.range.lo = r.u32();
    m.range.hi = r.u32();
    m.post_epoch = r.u64();
    m.target = GroupId{r.u64()};
    frozen_ = m;
  }
  done_migrations_.clear();
  const std::uint32_t d = r.u32();
  for (std::uint32_t i = 0; i < d; ++i) done_migrations_.insert(r.u64());
  return raw.subspan(raw.size() - r.remaining());
}

Bytes ShardServant::snapshot() const {
  ByteWriter w;
  const Bytes control = encode_control();
  w.bytes(control);
  w.bytes(inner_.snapshot());
  return std::move(w).take();
}

void ShardServant::restore(std::span<const std::uint8_t> snapshot) {
  ByteReader r(snapshot);
  const auto control = r.bytes_view();
  decode_control(control);
  inner_.restore(r.bytes_view());
}

std::size_t ShardServant::state_size() const {
  return inner_.state_size() + encode_control().size();
}

std::uint64_t ShardServant::state_digest() const {
  const Bytes control = encode_control();
  return fnv1a(control) ^ (inner_.state_digest() * 0x9e3779b97f4a7c15ULL);
}

std::uint64_t ShardServant::cut_epoch() { return inner_.cut_epoch(); }

std::optional<Bytes> ShardServant::snapshot_delta(std::uint64_t since_epoch) const {
  auto inner = inner_.snapshot_delta(since_epoch);
  if (!inner) return std::nullopt;
  ByteWriter w;
  w.bytes(encode_control());
  w.bytes(*inner);
  return std::move(w).take();
}

void ShardServant::apply_delta(std::span<const std::uint8_t> delta) {
  ByteReader r(delta);
  decode_control(r.bytes_view());
  inner_.apply_delta(r.bytes_view());
}

}  // namespace vdep::shard
