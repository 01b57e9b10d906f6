// Wire format for the CONGEST simulator.
//
// The CONGEST model allows each node to send one message of O(log N) bits
// per incident edge per synchronous round. The simulator makes that budget
// *checkable*: every message carries a declared wire size in bits, and the
// network rejects (throws) any send whose declared size exceeds the round
// budget or which under-declares relative to its payload magnitudes. This is
// how the tests assert that the reconstructed algorithms really are CONGEST
// algorithms rather than LOCAL algorithms in disguise.
//
// Two representations
// -------------------
// `Message` is the *delivery view*: what a Process reads from its inbox and
// what the staging sinks validate. It carries the reliable transport header
// inline, which makes it comfortable to program against but heavy to move
// in bulk (sizeof(Message) is 80 bytes, most of it unused on ordinary
// protocol traffic).
//
// `WireRecord` is the *transport staging view*: the packed 40-byte record
// the engine's structure-of-arrays arena stores and scatters. It drops the
// inline header — a frame's TransportHeader goes into its staging log's
// header column at the record's index (netsim/network.h `StageLog`), which
// only frames extend — and folds broadcast fan-out into a single flagged
// record that is expanded over the sender's adjacency at commit time.
// Records are materialized back into `Message` form only at delivery, one
// inbox slice at a time.
#pragma once

#include <array>
#include <cstdint>

namespace dflp::net {

/// Node identifier within one simulated network (dense, 0-based).
using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

/// Transport-layer header carried by reliable-channel frames
/// (netsim/reliable.h): a per-link sequence number, a cumulative ack, and
/// the logical round tag, plus flag bits. Ordinary protocol messages do not
/// carry one; when present (`Message::has_header`) its words are charged
/// into the honest wire size, so recovery overhead is paid out of the same
/// CONGEST budget as the payload.
struct TransportHeader {
  std::int64_t seq = 0;   ///< per-link item sequence number
  std::int64_t ack = 0;   ///< cumulative: items [0, ack) received in order
  std::int64_t tag = 0;   ///< logical round of the carried item
  std::uint8_t flags = 0; ///< TransportFlag bits

  /// Wire bits of the flag field (item / end-of-round / fin).
  static constexpr int kFlagBits = 3;
};

/// Flag bits of TransportHeader::flags.
enum TransportFlag : std::uint8_t {
  kFrameItem = 1, ///< frame carries a sequenced item (data, token or FIN)
  kFrameEor = 2,  ///< item is the sender's last for logical round `tag`
  kFrameFin = 4,  ///< item is the sender's final one on this link
};

/// A single message. `kind` is a protocol-defined opcode; `field` holds up
/// to three integer payload words (costs are transported quantized — see
/// core/quantize.h). `bits` is the declared on-wire size.
struct Message {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  /// The link the message arrived on: the index of `src` in the receiver's
  /// `NodeContext::neighbors()`, so `ctx.neighbors()[msg.port] == msg.src`.
  /// The engine sets it on every delivery, duplicated copies included,
  /// and so does the reliable channel on the inbox it hands its inner
  /// protocol; a hand-built inbox must set it too. It is the receiver's
  /// own knowledge of its incident edge, not wire content, so it is never
  /// billed. Protocols index per-link state by it instead of searching for
  /// `src`.
  std::int32_t port = -1;
  std::uint8_t kind = 0;
  std::array<std::int64_t, 3> field{0, 0, 0};
  int bits = 0;
  /// Reliable-transport framing; absent (and free) on ordinary messages.
  bool has_header = false;
  /// Meaningful ONLY when `has_header` is set. On delivery the transport
  /// reuses inbox storage across rounds and does not re-zero this field
  /// for headerless messages, so its bytes are unspecified (they are
  /// whatever an earlier delivery left) — never read it without checking
  /// `has_header`.
  TransportHeader hdr;
};
static_assert(sizeof(Message) == 80,
              "the delivery view a receiver reads stays 80 bytes; `port` "
              "sits in alignment padding");

/// Flag bits of WireRecord::flags.
enum WireFlag : std::uint8_t {
  /// The record is one staged broadcast: `dst` is kNoNode and the commit
  /// scatter expands it over the sender's sorted adjacency, one delivered
  /// copy per neighbour, in adjacency order.
  kWireBroadcast = 1,
  /// The record is a frame: its TransportHeader is in the staging log's
  /// header column at the record's index (reliable-channel frames only;
  /// never set on broadcasts).
  kWireHasHeader = 2,
};

/// One staged send in the transport's packed structure-of-arrays wire
/// format: the hot routing words (`src`, `dst`), the three payload words,
/// the declared bit size and the opcode — nothing else. Exactly 40 bytes so
/// a commit pass streams 2x the records per cache line that the 80-byte
/// `Message` view would allow; the static_assert below keeps it honest.
struct WireRecord {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;  ///< kNoNode on broadcast records (see WireFlag)
  std::array<std::int64_t, 3> field{0, 0, 0};
  std::int32_t bits = 0;
  std::uint8_t kind = 0;
  std::uint8_t flags = 0;  ///< WireFlag bits
};
static_assert(sizeof(WireRecord) == 40,
              "WireRecord is the packed staging format; widening it taxes "
              "every commit pass — check field order before growing it");

/// Number of bits needed to represent |v| plus a sign bit; 1 for v == 0.
[[nodiscard]] int bits_for_value(std::int64_t v) noexcept;

/// Minimum honest wire size of an unframed payload: opcode (8 bits) plus
/// the bits of every nonzero payload word. Equals min_message_bits of a
/// headerless Message with the same fields; the staging sinks and the
/// reliable channel use it to price WireRecords without building a Message.
[[nodiscard]] int min_payload_bits(
    const std::array<std::int64_t, 3>& fields) noexcept;

/// Wire bits of a transport header: its three words and the flag field.
/// A frame's honest size is its payload's plus this; the reliable channel
/// subtracts it again to restore the inner message's size.
[[nodiscard]] int header_bits(const TransportHeader& hdr) noexcept;

/// Minimum honest wire size for a message: opcode (8 bits) plus the bits of
/// every nonzero payload word, plus — for framed messages — header_bits().
/// The network checks `msg.bits >= min_message_bits(msg)` so algorithms
/// cannot cheat the budget by under-declaring.
[[nodiscard]] int min_message_bits(const Message& msg) noexcept;

}  // namespace dflp::net
