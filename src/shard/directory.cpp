#include "shard/directory.hpp"

#include <optional>

#include "orb/cdr.hpp"
#include "util/assert.hpp"

namespace vdep::shard {

namespace {
constexpr SimTime kOpTime = usec(5);
}  // namespace

DirectoryServant::DirectoryServant(ShardMap initial) : map_(std::move(initial)) {
  std::string why;
  VDEP_ASSERT_MSG(map_.validate(&why), "initial shard map invalid");
  (void)why;
}

DirectoryServant::Result DirectoryServant::invoke(const std::string& operation,
                                                  const Bytes& args) {
  Result result;
  result.cpu_time = kOpTime;
  orb::CdrWriter w;

  if (operation == "dir.get") {
    w.ulong(static_cast<std::uint32_t>(ShardStatus::kOk));
    w.octets(map_.encode());
    result.output = std::move(w).take();
    return result;
  }

  if (operation == "dir.commit") {
    std::optional<ShardMap> proposed;
    try {
      orb::CdrReader r(args);
      proposed = ShardMap::decode(r.octets());
    } catch (const DecodeError&) {
      // Malformed arguments: answered as a bad request below.
    }
    ShardStatus status = ShardStatus::kOk;
    std::string why;
    if (!proposed || !proposed->validate(&why)) {
      status = ShardStatus::kBadRequest;
    } else if (proposed->epoch() == map_.epoch() && *proposed == map_) {
      // Retransmitted commit of the map already in force: idempotent accept.
    } else if (proposed->epoch() != map_.epoch() + 1) {
      status = ShardStatus::kStaleEpoch;  // lost a reconfiguration race
    } else {
      map_ = std::move(*proposed);
      ++commits_;
    }
    w.ulong(static_cast<std::uint32_t>(status));
    w.ulonglong(map_.epoch());
    result.output = std::move(w).take();
    return result;
  }

  w.ulong(static_cast<std::uint32_t>(ShardStatus::kBadRequest));
  w.ulonglong(map_.epoch());
  result.output = std::move(w).take();
  return result;
}

Bytes DirectoryServant::encode_commit(const ShardMap& map) {
  orb::CdrWriter w;
  w.octets(map.encode());
  return std::move(w).take();
}

DirectoryServant::GetReply DirectoryServant::decode_get_reply(const Bytes& body) {
  orb::CdrReader r(body);
  GetReply reply;
  reply.status = static_cast<ShardStatus>(r.ulong());
  if (reply.status == ShardStatus::kOk) {
    const Bytes encoded = r.octets();
    reply.map = ShardMap::decode(encoded);
  }
  return reply;
}

ShardStatus DirectoryServant::decode_commit_reply(const Bytes& body) {
  orb::CdrReader r(body);
  return static_cast<ShardStatus>(r.ulong());
}

}  // namespace vdep::shard
