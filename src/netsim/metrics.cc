#include "netsim/metrics.h"

#include <algorithm>
#include <sstream>

namespace dflp::net {

void NetMetrics::merge(const NetMetrics& later) noexcept {
  if (dropped == 0 && later.dropped > 0) {
    first_drop_round = later.first_drop_round;
    first_drop_src = later.first_drop_src;
    first_drop_dst = later.first_drop_dst;
    first_drop_kind = later.first_drop_kind;
  }
  rounds += later.rounds;
  messages += later.messages;
  total_bits += later.total_bits;
  dropped += later.dropped;
  duplicated += later.duplicated;
  crashed += later.crashed;
  max_message_bits = std::max(max_message_bits, later.max_message_bits);
  max_messages_in_round =
      std::max(max_messages_in_round, later.max_messages_in_round);
}

std::string NetMetrics::to_string() const {
  std::ostringstream os;
  os << "rounds=" << rounds << " messages=" << messages
     << " total_bits=" << total_bits << " max_msg_bits=" << max_message_bits
     << " max_msgs_in_round=" << max_messages_in_round;
  if (dropped > 0) os << " dropped=" << dropped;
  if (duplicated > 0) os << " duplicated=" << duplicated;
  if (crashed > 0) os << " crashed=" << crashed;
  return os.str();
}

}  // namespace dflp::net
