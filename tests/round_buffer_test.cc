// Unit tests for RoundBuffer used standalone, the way the reliable channel
// (netsim/reliable.h) stages its wrapped protocol's logical rounds: the
// staged view with its sender-side ports, the silent-link query behind the
// end-of-round tokens, re-arming between steps, the frame path's
// exemptions, and the owner, sleep-hint and annotation rules.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "netsim/message.h"
#include "netsim/network.h"
#include "netsim/round_buffer.h"
#include "rejection.h"

namespace dflp::net {
namespace {

// The owner has neighbours 2, 5 and 9, on ports 0, 1 and 2.
constexpr NodeId kOwner = 4;
const std::vector<NodeId> kNeighbors = {2, 5, 9};

RoundBuffer::Limits limits(int bit_budget = 64,
                           std::uint8_t max_kind = 0xFF) {
  RoundBuffer::Limits l;
  l.bit_budget = bit_budget;
  l.max_kind = max_kind;
  return l;
}

/// One message copy as for_each_staged reports it.
struct Copy {
  std::size_t port = 0;
  NodeId dst = kNoNode;
  std::uint8_t kind = 0;
  std::int64_t field0 = 0;
  bool operator==(const Copy&) const = default;
};

std::vector<Copy> copies(const RoundBuffer& buf) {
  std::vector<Copy> out;
  buf.for_each_staged(
      [&](std::size_t port, NodeId dst, const WireRecord& rec) {
        out.push_back({port, dst, rec.kind, rec.field[0]});
      });
  return out;
}

/// A framed message from the owner to `dst`, declared at 0 bits.
Message frame_to(NodeId dst, std::uint8_t kind) {
  Message f;
  f.src = kOwner;
  f.dst = dst;
  f.kind = kind;
  f.has_header = true;
  f.hdr.seq = 3;
  f.hdr.ack = 2;
  f.hdr.tag = 1;
  f.hdr.flags = kFrameItem;
  return f;
}

TEST(RoundBuffer, StagesUnicastsInSendOrderWithSenderPorts) {
  RoundBuffer buf;
  buf.begin(kOwner, 1, kNeighbors, limits());
  buf.send(kOwner, 9, 1, {7, 0, 0}, -1);
  buf.send(kOwner, 2, 2, {0, 0, 0}, -1);
  buf.send(kOwner, 5, 3, {-1, 0, 0}, 40);

  const std::vector<Copy> want = {{2, 9, 1, 7}, {0, 2, 2, 0}, {1, 5, 3, -1}};
  EXPECT_EQ(copies(buf), want);
  ASSERT_EQ(buf.staged().size(), 3u);
  for (const WireRecord& rec : buf.staged()) {
    EXPECT_EQ(rec.src, kOwner);
    EXPECT_EQ(rec.flags, 0);
  }
  // An omitted size is the honest minimum; a larger one is kept as padding.
  EXPECT_EQ(buf.staged()[0].bits, min_payload_bits({7, 0, 0}));
  EXPECT_EQ(buf.staged()[1].bits, 8);
  EXPECT_EQ(buf.staged()[2].bits, 40);
}

TEST(RoundBuffer, BroadcastIsOneRecordExpandedInAdjacencyOrder) {
  RoundBuffer buf;
  buf.begin(kOwner, 1, kNeighbors, limits());
  buf.broadcast(kOwner, 6, {11, 0, 0}, -1);

  ASSERT_EQ(buf.staged().size(), 1u);
  EXPECT_EQ(buf.staged()[0].flags, kWireBroadcast);
  EXPECT_EQ(buf.staged()[0].dst, kNoNode);
  const std::vector<Copy> want = {{0, 2, 6, 11}, {1, 5, 6, 11}, {2, 9, 6, 11}};
  EXPECT_EQ(copies(buf), want);
}

TEST(RoundBuffer, SentToMarksUnicastLinksAndEveryLinkAfterABroadcast) {
  RoundBuffer buf;
  buf.begin(kOwner, 1, kNeighbors, limits());
  buf.send(kOwner, 5, 1, {0, 0, 0}, -1);
  EXPECT_FALSE(buf.sent_to(0));
  EXPECT_TRUE(buf.sent_to(1));
  EXPECT_FALSE(buf.sent_to(2));

  buf.begin(kOwner, 2, kNeighbors, limits());
  buf.broadcast(kOwner, 1, {0, 0, 0}, -1);
  for (std::size_t port = 0; port < kNeighbors.size(); ++port)
    EXPECT_TRUE(buf.sent_to(port)) << "port " << port;
}

TEST(RoundBuffer, BeginReArmsTheLinksHaltAndPrivateLog) {
  RoundBuffer buf;
  buf.begin(kOwner, 1, kNeighbors, limits());
  buf.send(kOwner, 5, 1, {1, 0, 0}, -1);
  buf.halt(kOwner);
  buf.halt(kOwner);  // a repeated halt is one request
  EXPECT_TRUE(buf.halt_requested());

  buf.begin(kOwner, 2, kNeighbors, limits());
  EXPECT_TRUE(buf.staged().empty());
  EXPECT_FALSE(buf.halt_requested());
  EXPECT_FALSE(buf.sent_to(1));
  // Last step's link is free again, and only this step's send is staged.
  buf.send(kOwner, 5, 1, {2, 0, 0}, -1);
  const std::vector<Copy> want = {{1, 5, 1, 2}};
  EXPECT_EQ(copies(buf), want);
}

TEST(RoundBuffer, StagedViewIsTheOwnersSliceOfASharedLog) {
  // The engine stages every node of a round into one log; each buffer's
  // staged() view starts at its owner's first record.
  StageLog log;
  LinkStamps links;
  const std::vector<NodeId> first_nbrs = {4};
  RoundBuffer first;
  first.begin(2, 1, first_nbrs, limits(), &log, &links);
  first.send(2, 4, 1, {5, 0, 0}, -1);

  RoundBuffer buf;
  buf.begin(kOwner, 1, kNeighbors, limits(), &log, &links);
  buf.broadcast(kOwner, 2, {0, 0, 0}, -1);
  EXPECT_EQ(log.records.size(), 2u);
  ASSERT_EQ(buf.staged().size(), 1u);
  EXPECT_EQ(buf.staged()[0].src, kOwner);
  // The broadcast is billed once per neighbour, the unicast once.
  EXPECT_EQ(log.messages, 1u + kNeighbors.size());
  EXPECT_EQ(log.broadcasts, 1u);
  EXPECT_EQ(log.bits_sum,
            static_cast<std::uint64_t>(min_payload_bits({5, 0, 0})) +
                8u * kNeighbors.size());
}

TEST(RoundBuffer, FramesPassTheOpcodeCapAndAreRaisedToTheirHonestSize) {
  // Under the reliable channel's cap a protocol send of a control opcode
  // is refused, while a frame carrying it is staged at its header-inclusive
  // honest size, with its header in the log's header column.
  StageLog log;
  RoundBuffer buf;
  buf.begin(kOwner, 1, kNeighbors, limits(128, 0xFA), &log);
  const std::string msg =
      rejection_message([&] { buf.send(kOwner, 2, 0xFE, {0, 0, 0}, -1); });
  EXPECT_NE(msg.find("opcode 254 exceeds the allowed maximum 250"),
            std::string::npos)
      << msg;

  buf.send(kOwner, 2, 1, {0, 0, 0}, -1);
  const Message frame = frame_to(9, 0xFE);
  buf.send_frame(kOwner, frame);
  ASSERT_EQ(buf.staged().size(), 2u);
  const WireRecord& rec = buf.staged()[1];
  EXPECT_EQ(rec.kind, 0xFE);
  EXPECT_EQ(rec.flags, kWireHasHeader);
  EXPECT_EQ(rec.bits, min_message_bits(frame));
  EXPECT_EQ(rec.bits, 8 + header_bits(frame.hdr));
  // The header column is padded over the unframed record before it.
  ASSERT_EQ(log.headers.size(), 2u);
  EXPECT_EQ(log.headers[1].seq, 3);
  EXPECT_EQ(log.headers[1].ack, 2);
  EXPECT_EQ(log.headers[1].tag, 1);
  const std::vector<Copy> want = {{0, 2, 1, 0}, {2, 9, 0xFE, 0}};
  EXPECT_EQ(copies(buf), want);
}

TEST(RoundBuffer, FramesStillPayTheBudgetAdjacencyAndLinkRules) {
  RoundBuffer buf;
  const Message frame = frame_to(5, 1);
  const int honest = min_message_bits(frame);

  buf.begin(kOwner, 1, kNeighbors, limits(honest - 1));
  std::string msg = rejection_message([&] { buf.send_frame(kOwner, frame); });
  EXPECT_NE(msg.find("exceeds CONGEST budget " + std::to_string(honest - 1)),
            std::string::npos)
      << msg;

  buf.begin(kOwner, 2, kNeighbors, limits(honest));
  msg = rejection_message([&] { buf.send_frame(kOwner, frame_to(3, 1)); });
  EXPECT_NE(msg.find("node 4 is not adjacent to 3"), std::string::npos) << msg;

  buf.begin(kOwner, 3, kNeighbors, limits(honest));
  buf.send(kOwner, 5, 1, {0, 0, 0}, -1);
  msg = rejection_message([&] { buf.send_frame(kOwner, frame); });
  EXPECT_NE(msg.find("edge allowance exceeded on 4->5 in round 3"),
            std::string::npos)
      << msg;
}

TEST(RoundBuffer, RejectsStagingForAnotherNode) {
  RoundBuffer buf;
  buf.begin(kOwner, 1, kNeighbors, limits());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {rejection_message([&] { buf.send(5, 2, 1, {0, 0, 0}, -1); }),
       "send from node 5 staged into the buffer of node 4"},
      {rejection_message([&] { buf.broadcast(5, 1, {0, 0, 0}, -1); }),
       "send from node 5 staged into the buffer of node 4"},
      {rejection_message([&] { buf.halt(5); }),
       "halt for node 5 staged into the buffer of node 4"},
      {rejection_message([&] { buf.sleep_until(5, 9); }),
       "sleep for node 5 staged into the buffer of node 4"},
      {rejection_message([&] { buf.send_frame(5, frame_to(2, 1)); }),
       "frame from node 4 sent by node 5"},
  };
  for (const auto& [msg, want] : cases)
    EXPECT_NE(msg.find(want), std::string::npos) << msg;
  EXPECT_TRUE(buf.staged().empty());
  EXPECT_FALSE(buf.halt_requested());
}

TEST(RoundBuffer, SleepHintsFillTheWakeSlotSaturatedOrAreDropped) {
  RoundBuffer buf;
  std::uint32_t wake = 77;
  buf.begin(kOwner, 1, kNeighbors, limits(), nullptr, nullptr,
            /*clique=*/false, &wake);
  EXPECT_EQ(wake, 0u);  // a step without a hint stays awake
  buf.sleep_until(kOwner, 10);
  EXPECT_EQ(wake, 10u);
  buf.sleep_until(kOwner, std::uint64_t{1} << 40);
  EXPECT_EQ(wake, std::numeric_limits<std::uint32_t>::max());

  // Standalone (no wake slot): the hint is dropped and stages nothing.
  buf.begin(kOwner, 2, kNeighbors, limits());
  buf.sleep_until(kOwner, 10);
  EXPECT_EQ(wake, std::numeric_limits<std::uint32_t>::max());
  EXPECT_TRUE(buf.staged().empty());
  EXPECT_FALSE(buf.halt_requested());
}

TEST(RoundBuffer, AnnotationsAreLoggedOnlyWhenCaptured) {
  StageLog log;
  RoundBuffer buf;
  buf.begin(kOwner, 1, kNeighbors, limits(), &log);
  buf.annotate(kOwner, "offer");
  buf.annotate(kOwner, "");  // dropped before any check
  EXPECT_TRUE(log.annotations.empty());

  RoundBuffer::Limits traced = limits();
  traced.capture_annotations = true;
  buf.begin(kOwner, 2, kNeighbors, traced, &log);
  buf.annotate(kOwner, "offer");
  buf.annotate(kOwner, "open");
  ASSERT_EQ(log.annotations.size(), 2u);
  EXPECT_EQ(log.annotations[0], "offer");
  EXPECT_EQ(log.annotations[1], "open");
  const std::string msg =
      rejection_message([&] { buf.annotate(kOwner, ""); });
  EXPECT_NE(msg.find("empty phase annotation from node 4"), std::string::npos)
      << msg;
}

}  // namespace
}  // namespace dflp::net
