#include "netsim/message.h"

#include <bit>

namespace dflp::net {

int bits_for_value(std::int64_t v) noexcept {
  const std::uint64_t mag =
      v < 0 ? ~static_cast<std::uint64_t>(v) + 1 : static_cast<std::uint64_t>(v);
  if (mag == 0) return 1;
  return 64 - std::countl_zero(mag) + 1;  // +1 sign bit
}

int min_payload_bits(const std::array<std::int64_t, 3>& fields) noexcept {
  int bits = 8;  // opcode
  for (std::int64_t word : fields) {
    if (word != 0) bits += bits_for_value(word);
  }
  return bits;
}

int header_bits(const TransportHeader& hdr) noexcept {
  return bits_for_value(hdr.seq) + bits_for_value(hdr.ack) +
         bits_for_value(hdr.tag) + TransportHeader::kFlagBits;
}

int min_message_bits(const Message& msg) noexcept {
  return min_payload_bits(msg.field) +
         (msg.has_header ? header_bits(msg.hdr) : 0);
}

}  // namespace dflp::net
