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
  if (operation == "dir.get") {
    result.output = orb::cdr_encode<Bytes>(ResultReply{{ShardStatus::kOk}, map_.encode()});
    return result;
  }

  ShardStatus status = ShardStatus::kBadRequest;  // also for an unknown operation
  if (operation == "dir.commit") {
    std::optional<ShardMap> proposed;
    try {
      proposed = ShardMap::decode(orb::cdr_decode<Bytes>(args));
    } catch (const DecodeError&) {
      // Malformed arguments: a bad request.
    }
    if (proposed && proposed->validate()) {
      if (*proposed == map_) {
        status = ShardStatus::kOk;  // retransmitted commit of the map in force
      } else if (proposed->epoch() == map_.epoch() + 1) {
        map_ = std::move(*proposed);
        status = ShardStatus::kOk;
      } else {
        status = ShardStatus::kStaleEpoch;  // lost a reconfiguration race
      }
    }
  }
  result.output = orb::cdr_encode<Bytes>(CommitReply{{status}, map_.epoch()});
  return result;
}

Bytes DirectoryServant::encode_commit(const ShardMap& map) {
  return orb::cdr_encode<Bytes>(map.encode());
}

DirectoryServant::GetReply DirectoryServant::decode_get_reply(const Bytes& body) {
  const auto reply = orb::cdr_decode<ResultReply>(body);
  GetReply out;
  out.status = reply.status;
  if (reply.status == ShardStatus::kOk) out.map = ShardMap::decode(reply.result);
  return out;
}

ShardStatus DirectoryServant::decode_commit_reply(const Bytes& body) {
  return orb::cdr_decode<CommitReply>(body).status;
}

}  // namespace vdep::shard
