// Decoder mutation sweep: every proper prefix and every single-bit flip of
// each pinned wire blob (plus a shard map) either decodes or throws
// DecodeError. A decoder that crashes, trips an assertion or reads out of
// bounds fails the run (the sweep runs under ASan/UBSan in CI). A mutant
// that decodes must re-encode to a stable form.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>

#include "shard/map.hpp"
#include "wire_blobs.hpp"

namespace vdep::wire_test {
namespace {

std::vector<WireBlob> sweep_blobs() {
  auto blobs = wire_blobs();
  blobs.push_back({"ShardMap", shard::ShardMap::uniform(3, 100, shard::ShardPolicy{}).encode(),
                   [](std::span<const std::uint8_t> raw) {
                     return shard::ShardMap::decode(raw).encode();
                   }});
  return blobs;
}

// Decodes `mutant`; true when it decoded, false on DecodeError. Any other
// exception fails the test.
bool decodes(const WireBlob& blob, std::span<const std::uint8_t> mutant) {
  try {
    const Bytes once = blob.reencode(mutant);
    EXPECT_EQ(blob.reencode(once), once) << "re-encoding is not stable";
    return true;
  } catch (const DecodeError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-DecodeError exception: " << e.what();
    return false;
  }
}

TEST(WireMutation, TruncationsThrowDecodeError) {
  for (const auto& blob : sweep_blobs()) {
    SCOPED_TRACE(blob.name);
    for (std::size_t len = 0; len < blob.bytes.size(); ++len) {
      EXPECT_FALSE(decodes(blob, std::span(blob.bytes).first(len))) << "prefix " << len;
    }
  }
}

TEST(WireMutation, BitFlipsDecodeOrThrowDecodeError) {
  std::size_t rejected = 0;
  std::size_t total = 0;
  for (const auto& blob : sweep_blobs()) {
    SCOPED_TRACE(blob.name);
    Bytes mutant = blob.bytes;
    for (std::size_t i = 0; i < mutant.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        mutant[i] ^= static_cast<std::uint8_t>(1u << bit);
        if (!decodes(blob, mutant)) ++rejected;
        ++total;
        mutant[i] = blob.bytes[i];
      }
    }
  }
  // Flips inside payloads, ids and counters decode; flips in tags, kinds
  // and length prefixes are rejected.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, total);
}

}  // namespace
}  // namespace vdep::wire_test
