// Runtime invariant checking.
//
// DFLP is a research library: invariant violations indicate programming
// errors or malformed inputs, and we prefer a loud, always-on failure with a
// useful message over UB-adjacent asserts that vanish in release builds.
// Checks throw `dflp::CheckError` (derived from std::logic_error) so tests
// can assert on them and applications can contain failures per-experiment.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dflp {

/// Thrown when a DFLP_CHECK fails. Carries the stringified condition,
/// source location and an optional user message.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void check_failed(const char* cond, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "CHECK failed: " << cond << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

}  // namespace detail

/// `text` with every ` at <file>:<line>` that check_failed wrote removed.
/// The location names the checkout directory and moves with each edit of
/// the throwing file; the condition and the message do not. Records that
/// keep a CheckError's text (fault-campaign diagnostics, committed hashes)
/// store this form.
inline std::string without_check_location(std::string_view text) {
  std::string out;
  std::size_t kept = 0;  // text[0, kept) has been handled
  for (std::size_t at = text.find(" at "); at != std::string_view::npos;
       at = text.find(" at ", at + 1)) {
    // <file> runs from after " at " to the last ':' of the same word, and
    // <line> is the digits after that ':'.
    const std::size_t file = at + 4;
    const std::size_t blank = text.find_first_of(" \t\n", file);
    const std::size_t word_end =
        blank == std::string_view::npos ? text.size() : blank;
    const std::size_t colon = text.rfind(':', word_end - 1);
    if (colon == std::string_view::npos || colon <= file) continue;
    std::size_t line_end = colon + 1;
    while (line_end < word_end && text[line_end] >= '0' &&
           text[line_end] <= '9')
      ++line_end;
    if (line_end == colon + 1) continue;
    out += text.substr(kept, at - kept);
    kept = line_end;
    at = line_end - 1;
  }
  out += text.substr(kept);
  return out;
}

}  // namespace dflp

/// Always-on invariant check. Usage:
///   DFLP_CHECK(x > 0);
///   DFLP_CHECK_MSG(x > 0, "x=" << x);
#define DFLP_CHECK(cond)                                              \
  do {                                                                \
    if (!(cond))                                                      \
      ::dflp::detail::check_failed(#cond, __FILE__, __LINE__, {});    \
  } while (0)

#define DFLP_CHECK_MSG(cond, stream_expr)                             \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::ostringstream dflp_os_;                                    \
      dflp_os_ << stream_expr;                                        \
      ::dflp::detail::check_failed(#cond, __FILE__, __LINE__,         \
                                   dflp_os_.str());                   \
    }                                                                 \
  } while (0)
