#include "orb/cdr.hpp"

#include <cstring>

namespace vdep::orb {

// --- reader ------------------------------------------------------------------

DecodeError CdrReader::error(const std::string& what, std::size_t at) const {
  return DecodeError("CDR " + what + " at byte " + std::to_string(at) + " of " +
                     std::to_string(data_.size()));
}

std::span<const std::uint8_t> CdrReader::take(std::size_t n) {
  if (remaining() < n) throw error("underrun");
  auto s = data_.subspan(pos_, n);
  pos_ += n;
  return s;
}

void CdrReader::align(std::size_t n) {
  const std::size_t pad = (n - pos_ % n) % n;
  (void)take(pad);
}

std::uint8_t CdrReader::u8() { return take(1)[0]; }

bool CdrReader::boolean() {
  const auto v = u8();
  if (v > 1) throw error("boolean out of range", pos_ - 1);
  return v == 1;
}

double CdrReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string CdrReader::str() {
  const std::size_t at = pos_;
  const std::uint32_t len = u32();
  if (len == 0) throw error("string must include its NUL", at);
  const auto s = take(len);
  if (s.back() != 0) throw error("string missing NUL", at);
  return std::string(reinterpret_cast<const char*>(s.data()), len - 1);
}

Bytes CdrReader::bytes() {
  const auto s = take(u32());
  return Bytes(s.begin(), s.end());
}

std::uint32_t CdrReader::count(std::size_t min_element_bytes) {
  const std::size_t at = pos_;
  const std::uint32_t n = u32();
  if (n > remaining() / min_element_bytes) throw error("element count exceeds frame", at);
  return n;
}

}  // namespace vdep::orb
