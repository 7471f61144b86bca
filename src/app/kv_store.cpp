#include "app/kv_store.hpp"

#include <algorithm>
#include <vector>

#include "orb/cdr.hpp"
#include "util/wire.hpp"

namespace vdep::app {

namespace {
// Simulated CPU time per operation: a read costs calib::kAppProcessing, a
// write three times that.
constexpr SimTime kWriteTime = calib::kAppProcessing * 3;
}  // namespace

std::optional<KvOp> kv_op(std::string_view name) {
  if (name == "put") return KvOp::kPut;
  if (name == "get") return KvOp::kGet;
  if (name == "erase") return KvOp::kErase;
  if (name == "append") return KvOp::kAppend;
  if (name == "size") return KvOp::kSize;
  return std::nullopt;
}

orb::Servant::Result KvStoreServant::invoke(const std::string& operation,
                                            const Bytes& args) {
  const auto op = kv_op(operation);
  try {
    if (op) return apply(orb::cdr_decode(args, KvArgs{*op, {}, {}}));
  } catch (const DecodeError&) {
    // Malformed arguments: fall through to the failure reply.
  }
  Result failed;
  failed.ok = false;
  return failed;
}

orb::Servant::Result KvStoreServant::apply(KvArgs args) {
  Result result;
  result.cpu_time = kWriteTime;
  switch (args.op) {
    case KvOp::kPut:
      result.output = orb::cdr_encode<Bytes>(assign(args.key, std::move(args.value)));
      break;
    case KvOp::kAppend: {
      auto [cell, fresh] = data_.try_emplace(std::move(args.key));
      cell->second += args.value;
      bytes_ += (fresh ? cell->first.size() + 8 : 0) + args.value.size();
      stamp(cell->first, &cell->second);
      result.output = orb::cdr_encode<Bytes>(static_cast<std::uint32_t>(cell->second.size()));
      break;
    }
    case KvOp::kGet: {
      result.cpu_time = calib::kAppProcessing;
      const auto it = data_.find(args.key);
      const bool found = it != data_.end();
      result.output = orb::cdr_encode<Bytes>(
          KvGot<std::string_view>{found, found ? std::string_view(it->second) : ""});
      break;
    }
    case KvOp::kErase:
      result.output = orb::cdr_encode<Bytes>(erase(args.key));
      break;
    case KvOp::kSize:
      result.cpu_time = calib::kAppProcessing;
      result.output = orb::cdr_encode<Bytes>(static_cast<std::uint32_t>(data_.size()));
      break;
  }
  return result;
}

Bytes KvStoreServant::snapshot() const {
  return wire::encode<Bytes>(KvItems<const std::map<std::string, std::string>&>{data_});
}

void KvStoreServant::restore(std::span<const std::uint8_t> snapshot) {
  data_ = wire::decode<KvItems<std::map<std::string, std::string>>>(snapshot).items;
  bytes_ = 4;
  for (const auto& [key, value] : data_) bytes_ += key.size() + value.size() + 8;
  // The stamps described the overwritten state; deltas can only be answered
  // for cuts taken from here on. Epochs stay monotone across restores so
  // stale `since` values are rejected, never misanswered.
  stamps_.clear();
  newest_ = nullptr;
  delta_floor_ = epoch_;
}

bool KvStoreServant::assign(const std::string& key, std::string value) {
  auto [it, fresh] = data_.try_emplace(key);
  bytes_ += (fresh ? key.size() + 8 : 0) + value.size();
  bytes_ -= it->second.size();
  it->second = std::move(value);
  stamp(it->first, &it->second);
  return !fresh;
}

bool KvStoreServant::erase(const std::string& key) {
  const auto it = data_.find(key);
  if (it == data_.end()) return false;
  bytes_ -= it->first.size() + it->second.size() + 8;
  data_.erase(it);
  stamp(key, nullptr);
  return true;
}

void KvStoreServant::stamp(const std::string& key, const std::string* value) {
  auto [it, fresh] = stamps_.try_emplace(key);
  StampNode* node = &*it;
  Stamp& s = node->second;
  s.value = value;
  if (!fresh) {
    if (s.epoch == epoch_) return;  // already the newest stamp
    // Unlink, to relink at the newest end below.
    if (s.older != nullptr) s.older->second.newer = s.newer;
    (s.newer != nullptr ? s.newer->second.older : newest_) = s.older;
  }
  s.epoch = epoch_;
  s.older = newest_;
  s.newer = nullptr;
  if (newest_ != nullptr) newest_->second.newer = node;
  newest_ = node;
}

std::uint64_t KvStoreServant::cut_epoch() { return epoch_++; }

std::optional<Bytes> KvStoreServant::snapshot_delta(std::uint64_t since_epoch) const {
  // Mutations in the cut labelled `e` carry stamp <= e; the delta since `e`
  // is everything stamped after it: the newest end of the stamp list.
  // Unanswerable once tracking was reset.
  if (since_epoch < delta_floor_ || since_epoch >= epoch_) return std::nullopt;
  KvDelta<std::string_view> delta;
  for (const StampNode* n = newest_; n != nullptr && n->second.epoch > since_epoch;
       n = n->second.older) {
    const std::string& key = n->first;
    if (n->second.value == nullptr) {
      delta.erased.emplace_back(key);
    } else {
      delta.upserts.items.emplace_back(key, *n->second.value);
    }
  }
  std::ranges::sort(delta.upserts.items);
  std::ranges::sort(delta.erased);
  return wire::encode<Bytes>(delta);
}

void KvStoreServant::apply_delta(std::span<const std::uint8_t> delta) {
  auto decoded = wire::decode<KvDelta<std::string>>(delta);
  for (auto& [key, value] : decoded.upserts.items) assign(key, std::move(value));
  for (const auto& key : decoded.erased) {
    if (!erase(key)) stamp(key, nullptr);
  }
}

std::size_t KvStoreServant::state_size() const { return bytes_; }

std::uint64_t KvStoreServant::state_digest() const {
  // std::map iterates in key order, so the digest is replica-deterministic.
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;  // field separator
    h *= 1099511628211ULL;
  };
  for (const auto& [key, value] : data_) {
    mix(key);
    mix(value);
  }
  return h;
}

Bytes KvStoreServant::encode_put(const std::string& key, const std::string& value) {
  return orb::cdr_encode<Bytes>(KvArgs{KvOp::kPut, key, value});
}

Bytes KvStoreServant::encode_key(const std::string& key) {
  return orb::cdr_encode<Bytes>(KvArgs{KvOp::kGet, key, {}});
}

Bytes KvStoreServant::encode_append(const std::string& key, const std::string& value) {
  return orb::cdr_encode<Bytes>(KvArgs{KvOp::kAppend, key, value});
}

KvStoreServant::GetResult KvStoreServant::decode_get(const Bytes& body) {
  return orb::cdr_decode<GetResult>(body);
}

bool KvStoreServant::decode_flag(const Bytes& body) { return orb::cdr_decode<bool>(body); }

std::optional<std::string> KvStoreServant::lookup(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

}  // namespace vdep::app
