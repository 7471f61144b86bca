// A replicated key-value store — a second, realistic application on top of
// the replication API (the micro-benchmark TestServant is deliberately
// synthetic). Demonstrates that Checkpointable is application-agnostic:
// deterministic CDR-typed operations, full-state snapshots, and a digest for
// consistency checking.
//
// Operations (CDR-encoded arguments/results):
//   "put"    in: string key, string value      out: boolean existed
//   "get"    in: string key                    out: boolean found, string value
//   "erase"  in: string key                    out: boolean existed
//   "size"   in: -                             out: ulong entries
//   "append" in: string key, string value      out: ulong new length
//
// "append" exists for the chaos engine's exactly-once oracle: appending a
// unique token makes a duplicated execution visible in the final state,
// where an idempotent "put" would hide it.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "replication/app_state.hpp"
#include "util/calibration.hpp"

namespace vdep::app {

class KvStoreServant final : public replication::Checkpointable {
 public:
  struct Config {
    // Simulated CPU time per operation (writes cost more than reads).
    SimTime read_time = calib::kAppProcessing;
    SimTime write_time = calib::kAppProcessing * 3;
  };

  KvStoreServant() : KvStoreServant(Config{}) {}
  explicit KvStoreServant(Config config);

  Result invoke(const std::string& operation, const Bytes& args) override;

  [[nodiscard]] Bytes snapshot() const override;
  void restore(std::span<const std::uint8_t> snapshot) override;
  [[nodiscard]] std::size_t state_size() const override;
  [[nodiscard]] std::uint64_t state_digest() const override;

  // Incremental checkpointing: every mutation stamps its key with the open
  // epoch; erasures leave tombstones. A delta since epoch `e` carries the
  // keys written after the cut labelled `e` plus the tombstones newer than
  // it — O(dirty set), not O(state). restore() resets the tracking, after
  // which only cuts taken from the restored state are answerable.
  [[nodiscard]] bool supports_delta() const override { return true; }
  std::uint64_t cut_epoch() override;
  [[nodiscard]] std::optional<Bytes> snapshot_delta(
      std::uint64_t since_epoch) const override;
  void apply_delta(std::span<const std::uint8_t> delta) override;

  [[nodiscard]] std::size_t entries() const { return data_.size(); }
  // Direct read of the stored value (oracles inspect replica state without
  // going through the request path).
  [[nodiscard]] std::optional<std::string> lookup(const std::string& key) const;
  // Whole-store view, for range extraction (shard donation) and audits.
  [[nodiscard]] const std::map<std::string, std::string>& items() const {
    return data_;
  }

  // --- typed client-side helpers (encode args / decode results) -------------
  static Bytes encode_put(const std::string& key, const std::string& value);
  static Bytes encode_key(const std::string& key);  // for get/erase
  static Bytes encode_append(const std::string& key, const std::string& value);
  static std::uint32_t decode_ulong(const Bytes& body);  // append/size result
  struct GetResult {
    bool found = false;
    std::string value;
  };
  static GetResult decode_get(const Bytes& body);
  static bool decode_flag(const Bytes& body);  // put/erase result

 private:
  void mark_written(const std::string& key);
  void mark_erased(const std::string& key);

  Config config_;
  std::map<std::string, std::string> data_;

  // Dirty-key tracking. `epoch_` is the open (still-mutating) epoch;
  // cut_epoch() closes it. `delta_floor_` is the oldest cut a delta can
  // still be computed against (bumped to the open epoch on restore, which
  // discards the per-key stamps).
  std::uint64_t epoch_ = 1;
  std::uint64_t delta_floor_ = 0;
  std::map<std::string, std::uint64_t> write_epoch_;  // key -> last write epoch
  std::map<std::string, std::uint64_t> tombstone_;    // erased key -> erase epoch
};

}  // namespace vdep::app
