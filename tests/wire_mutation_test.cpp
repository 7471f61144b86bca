// Decoder mutation sweep: every proper prefix and every single-bit flip of
// each pinned wire blob (plus a shard map), and a seeded set of inflated
// length fields and spliced blobs, either decodes or throws DecodeError.
// GIOP blobs enter through decode_giop and servant arguments through the
// servant's invoke(). A decoder that crashes, trips an assertion or reads
// out of bounds fails the run (the sweep runs under ASan/UBSan in CI). A
// mutant that decodes must re-encode to a stable form.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <string>

#include "shard/map.hpp"
#include "util/rng.hpp"
#include "wire_blobs.hpp"

namespace vdep::wire_test {
namespace {

std::vector<WireBlob> sweep_blobs() {
  auto blobs = wire_blobs();
  for (auto& blob : cdr_blobs()) blobs.push_back(std::move(blob));
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

// Inflates one u32 that could be a length or count: a little-endian window
// whose value fits in the bytes after it (any window when none does).
Bytes inflate_length(const Bytes& blob, Rng& rng) {
  Bytes out = blob;
  if (out.size() < 4) return out;
  std::vector<std::size_t> candidates;
  const auto at = [&out](std::size_t i) {
    return static_cast<std::uint32_t>(out[i] | out[i + 1] << 8 | out[i + 2] << 16 |
                                      static_cast<std::uint32_t>(out[i + 3]) << 24);
  };
  for (std::size_t i = 0; i + 4 <= out.size(); ++i) {
    if (at(i) > 0 && at(i) <= out.size() - i - 4) candidates.push_back(i);
  }
  const std::size_t i = candidates.empty() ? rng.below(out.size() - 3)
                                           : candidates[rng.below(candidates.size())];
  const std::uint32_t inflated =
      rng.chance(0.25) ? 0xffffffffu
                       : at(i) + 1 + static_cast<std::uint32_t>(rng.below(1u << 16));
  for (std::size_t b = 0; b < 4; ++b) out[i + b] = static_cast<std::uint8_t>(inflated >> (8 * b));
  return out;
}

// A prefix of `head` followed by a suffix of `tail`.
Bytes splice(const Bytes& head, const Bytes& tail, Rng& rng) {
  Bytes out(head.begin(), head.begin() + static_cast<std::ptrdiff_t>(rng.below(head.size() + 1)));
  out.insert(out.end(), tail.begin() + static_cast<std::ptrdiff_t>(rng.below(tail.size() + 1)),
             tail.end());
  return out;
}

TEST(WireMutation, InflatedLengthsAndSplicesDecodeOrThrowDecodeError) {
  const auto blobs = sweep_blobs();
  Rng rng(0x29);
  constexpr int kMutants = 4000;
  std::size_t rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const WireBlob& blob = blobs[rng.below(blobs.size())];
    const Bytes mutant = i % 2 == 0
                             ? inflate_length(blob.bytes, rng)
                             : splice(blob.bytes, blobs[rng.below(blobs.size())].bytes, rng);
    SCOPED_TRACE(blob.name + " mutant " + std::to_string(i));
    if (!decodes(blob, mutant)) ++rejected;
  }
  EXPECT_GT(rejected, static_cast<std::size_t>(kMutants / 4));
  EXPECT_LT(rejected, static_cast<std::size_t>(kMutants));
}

}  // namespace
}  // namespace vdep::wire_test
