#include "app/kv_store.hpp"

#include "orb/cdr.hpp"
#include "util/assert.hpp"

namespace vdep::app {

namespace {
// Simulated CPU time per operation: a read costs calib::kAppProcessing, a
// write three times that.
constexpr SimTime kWriteTime = calib::kAppProcessing * 3;
}  // namespace

orb::Servant::Result KvStoreServant::invoke(const std::string& operation,
                                            const Bytes& args) {
  Result result;
  try {
    orb::CdrReader r(args);
    if (operation == "put") {
      const std::string key = r.string();
      const std::string value = r.string();
      result.cpu_time = kWriteTime;
      const bool existed = data_.contains(key);
      data_[key] = value;
      mark_written(key);
      orb::CdrWriter w;
      w.boolean(existed);
      result.output = std::move(w).take();
      return result;
    }
    if (operation == "append") {
      const std::string key = r.string();
      const std::string value = r.string();
      result.cpu_time = kWriteTime;
      std::string& cell = data_[key];
      cell += value;
      mark_written(key);
      orb::CdrWriter w;
      w.ulong(static_cast<std::uint32_t>(cell.size()));
      result.output = std::move(w).take();
      return result;
    }
    if (operation == "get") {
      const std::string key = r.string();
      result.cpu_time = calib::kAppProcessing;
      orb::CdrWriter w;
      auto it = data_.find(key);
      w.boolean(it != data_.end());
      w.string(it != data_.end() ? it->second : "");
      result.output = std::move(w).take();
      return result;
    }
    if (operation == "erase") {
      const std::string key = r.string();
      result.cpu_time = kWriteTime;
      orb::CdrWriter w;
      const bool existed = data_.erase(key) > 0;
      if (existed) mark_erased(key);
      w.boolean(existed);
      result.output = std::move(w).take();
      return result;
    }
    if (operation == "size") {
      result.cpu_time = calib::kAppProcessing;
      orb::CdrWriter w;
      w.ulong(static_cast<std::uint32_t>(data_.size()));
      result.output = std::move(w).take();
      return result;
    }
  } catch (const DecodeError&) {
    // Malformed arguments: fall through to the failure reply.
  }
  result.ok = false;
  return result;
}

Bytes KvStoreServant::snapshot() const {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(data_.size()));
  for (const auto& [key, value] : data_) {
    w.str(key);
    w.str(value);
  }
  return std::move(w).take();
}

void KvStoreServant::restore(std::span<const std::uint8_t> snapshot) {
  data_.clear();
  ByteReader r(snapshot);
  const auto n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string key = r.str();
    data_[std::move(key)] = r.str();
  }
  // The per-key stamps described the overwritten state; deltas can only be
  // answered for cuts taken from here on. Epochs stay monotone across
  // restores so stale `since` values are rejected, never misanswered.
  write_epoch_.clear();
  tombstone_.clear();
  delta_floor_ = epoch_;
}

void KvStoreServant::mark_written(const std::string& key) {
  write_epoch_[key] = epoch_;
  tombstone_.erase(key);
}

void KvStoreServant::mark_erased(const std::string& key) {
  write_epoch_.erase(key);
  tombstone_[key] = epoch_;
}

std::uint64_t KvStoreServant::cut_epoch() { return epoch_++; }

std::optional<Bytes> KvStoreServant::snapshot_delta(std::uint64_t since_epoch) const {
  // Mutations in the cut labelled `e` carry stamp <= e; the delta since `e`
  // is everything stamped after it. Unanswerable once tracking was reset.
  if (since_epoch < delta_floor_ || since_epoch >= epoch_) return std::nullopt;
  ByteWriter w;
  std::uint32_t upserts = 0;
  for (const auto& [key, stamp] : write_epoch_) {
    if (stamp > since_epoch) ++upserts;
  }
  w.u32(upserts);
  for (const auto& [key, stamp] : write_epoch_) {
    if (stamp <= since_epoch) continue;
    const auto it = data_.find(key);
    VDEP_ASSERT_MSG(it != data_.end(), "dirty key missing from store");
    w.str(key);
    w.str(it->second);
  }
  std::uint32_t erased = 0;
  for (const auto& [key, stamp] : tombstone_) {
    if (stamp > since_epoch) ++erased;
  }
  w.u32(erased);
  for (const auto& [key, stamp] : tombstone_) {
    if (stamp > since_epoch) w.str(key);
  }
  return std::move(w).take();
}

void KvStoreServant::apply_delta(std::span<const std::uint8_t> delta) {
  ByteReader r(delta);
  const auto upserts = r.u32();
  for (std::uint32_t i = 0; i < upserts; ++i) {
    std::string key = r.str();
    std::string value = r.str();
    data_[key] = std::move(value);
    mark_written(key);
  }
  const auto erased = r.u32();
  for (std::uint32_t i = 0; i < erased; ++i) {
    const std::string key = r.str();
    data_.erase(key);
    mark_erased(key);
  }
}

std::size_t KvStoreServant::state_size() const {
  std::size_t total = 4;
  for (const auto& [key, value] : data_) total += key.size() + value.size() + 8;
  return total;
}

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
  orb::CdrWriter w;
  w.string(key);
  w.string(value);
  return std::move(w).take();
}

Bytes KvStoreServant::encode_key(const std::string& key) {
  orb::CdrWriter w;
  w.string(key);
  return std::move(w).take();
}

KvStoreServant::GetResult KvStoreServant::decode_get(const Bytes& body) {
  orb::CdrReader r(body);
  GetResult out;
  out.found = r.boolean();
  out.value = r.string();
  return out;
}

bool KvStoreServant::decode_flag(const Bytes& body) {
  orb::CdrReader r(body);
  return r.boolean();
}

Bytes KvStoreServant::encode_append(const std::string& key, const std::string& value) {
  return encode_put(key, value);
}

std::optional<std::string> KvStoreServant::lookup(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

}  // namespace vdep::app
