#include "orb/giop.hpp"

#include <array>

namespace vdep::orb {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'G', 'I', 'O', 'P'};
constexpr std::uint8_t kVersionMajor = 1;
constexpr std::uint8_t kVersionMinor = 2;
constexpr std::uint8_t kFlagsLittleEndian = 0x01;
constexpr std::size_t kHeaderBytes = 12;

struct Header {
  std::array<std::uint8_t, 4> magic = kMagic;
  std::uint8_t major = kVersionMajor;
  std::uint8_t minor = kVersionMinor;
  std::uint8_t flags = kFlagsLittleEndian;
  std::uint8_t type = 0;
  std::uint32_t size = 0;  // bytes after the header

  template <typename IO>
  friend void wire_fields(IO& io, Header& m) {
    io(m.magic[0], m.magic[1], m.magic[2], m.magic[3], m.major, m.minor, m.flags, m.type,
       m.size);
    io.check(m.magic == kMagic, "bad GIOP magic");
    io.check(m.major == kVersionMajor && m.minor <= kVersionMinor, "unsupported GIOP version");
    // Every field is read little-endian, as every ORB here writes it.
    io.check((m.flags & kFlagsLittleEndian) != 0, "big-endian GIOP is not supported");
    io.check(m.type <= static_cast<std::uint8_t>(GiopMsgType::kCancelRequest) ||
                 m.type == static_cast<std::uint8_t>(GiopMsgType::kCloseConnection) ||
                 m.type == static_cast<std::uint8_t>(GiopMsgType::kMessageError),
             "bad GIOP message type");
  }
};

template <typename Body>
Payload encode_giop(GiopMsgType type, const Body& body) {
  const std::size_t size = wire::encoded_size<CdrWriter>(Header{}, body);
  const Header header{.type = static_cast<std::uint8_t>(type),
                      .size = static_cast<std::uint32_t>(size - kHeaderBytes)};
  return wire::encode_sized<Payload, CdrWriter>(size, header, body);
}

template <typename Raw>
GiopMessage decode(const Raw& raw) {
  wire::BasicReader<CdrReader> r(raw);
  const auto header = r.read<Header>();
  r.check(header.size == raw.size() - kHeaderBytes, "GIOP size does not match the message");
  GiopMessage msg;
  msg.type = static_cast<GiopMsgType>(header.type);
  if (msg.type == GiopMsgType::kRequest) msg.request = r.read<RequestMessage>();
  if (msg.type == GiopMsgType::kReply) msg.reply = r.read<ReplyMessage>();
  return msg;
}

}  // namespace

Payload RequestMessage::encode() const { return encode_giop(GiopMsgType::kRequest, *this); }

Payload ReplyMessage::encode() const { return encode_giop(GiopMsgType::kReply, *this); }

GiopMessage decode_giop(const Payload& raw) { return decode(raw); }

GiopMessage decode_giop(std::span<const std::uint8_t> raw) { return decode(raw); }

}  // namespace vdep::orb
