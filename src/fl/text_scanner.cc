#include "fl/text_scanner.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <sstream>
#include <system_error>

#include "common/check.h"

namespace dflp::fl {
namespace {

/// The C locale's isspace: space, \t, \n, \v, \f, \r.
bool is_space(char c) noexcept { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Steps over the optional leading '+'. A '-' after it is left in place so
/// that from_chars rejects "+-5".
const char* skip_plus(const char* p, const char* end) noexcept {
  return p != end && *p == '+' && (p + 1 == end || p[1] != '-') ? p + 1 : p;
}

}  // namespace

void TextScanner::header(std::string_view magic) {
  if (word("format") != magic)
    fail_token("is not '" + std::string(magic) + "'");
  (void)integer("version", 1, 1);
}

std::int64_t TextScanner::integer(const char* field, std::int64_t lo,
                                  std::int64_t hi) {
  const char* p = skip_plus(begin_token(field), end_);
  std::int64_t value = 0;
  const auto [next, ec] = std::from_chars(p, end_, value);
  if (ec == std::errc::invalid_argument || !at_boundary(next))
    fail_token("is not an integer");
  if (ec == std::errc::result_out_of_range || value < lo || value > hi) {
    std::ostringstream os;
    os << "is out of range [" << lo << ", " << hi << "]";
    fail_token(os.str());
  }
  pos_ = next;
  return value;
}

double TextScanner::cost(const char* field) {
  const char* p = skip_plus(begin_token(field), end_);
  double value = 0.0;
  const auto [next, ec] = std::from_chars(p, end_, value);
  if (ec == std::errc::invalid_argument || !at_boundary(next))
    fail_token("is not a number");
  if (ec == std::errc::result_out_of_range)
    fail_token("is out of the range of a double");
  if (!std::isfinite(value) || value < 0.0)
    fail_token("is not a finite non-negative number");
  pos_ = next;
  return value;
}

std::string_view TextScanner::word(const char* field) {
  const char* p = begin_token(field);
  while (!at_boundary(p)) ++p;
  const std::string_view token(pos_, static_cast<std::size_t>(p - pos_));
  pos_ = p;
  return token;
}

void TextScanner::expect_room(std::int64_t tokens) {
  const std::int64_t left = end_ - pos_;
  if (tokens <= left / 2) return;
  std::ostringstream os;
  os << "announces " << tokens << " more tokens (at least " << 2 * tokens
     << " bytes), but only " << left << " bytes are left";
  fail(os.str());
}

void TextScanner::expect_end() {
  skip_space();
  if (pos_ == end_) return;
  ++field_;
  field_name_ = "end of input";
  token_ = pos_;
  fail_token("follows the last field");
}

void TextScanner::fail(std::string_view what) const {
  std::ostringstream os;
  os << "line " << line_ << ", field " << field_ << " (" << field_name_
     << "): " << what;
  throw CheckError(os.str());
}

void TextScanner::fail_token(std::string_view problem) const {
  // Quote at most 40 bytes of the token, with control and non-ASCII bytes
  // masked, so a corrupt file cannot flood or garble the message.
  constexpr std::size_t kShown = 40;
  std::string shown;
  const char* p = token_;
  for (; !at_boundary(p) && shown.size() < kShown; ++p)
    shown += *p >= 0x20 && *p < 0x7f ? *p : '?';
  if (!at_boundary(p)) shown += "...";
  std::string what = "'" + shown + "' ";
  what += problem;
  fail(what);
}

void TextScanner::skip_space() noexcept {
  for (; pos_ != end_ && is_space(*pos_); ++pos_) {
    if (*pos_ == '\n') {
      ++line_;
      field_ = 0;
    }
  }
}

const char* TextScanner::begin_token(const char* field) {
  skip_space();
  ++field_;
  field_name_ = field;
  token_ = pos_;
  if (pos_ == end_) fail("unexpected end of input");
  return pos_;
}

bool TextScanner::at_boundary(const char* p) const noexcept {
  return p == end_ || is_space(*p);
}

std::string read_all(std::istream& is) {
  std::streambuf* buf = is.rdbuf();
  DFLP_CHECK_MSG(buf != nullptr, "stream has no buffer to read from");
  // in_avail() reports what is left of a file or string stream, so most
  // inputs arrive in the first chunk; the spare byte lets that first read
  // come up short, which is how the loop sees the end of the stream.
  const std::streamsize avail = buf->in_avail();
  std::string text(
      std::max<std::size_t>(
          avail > 0 ? static_cast<std::size_t>(avail) + 1 : 0,
          std::size_t{1} << 16),
      '\0');
  std::size_t size = 0;
  for (;;) {
    size += static_cast<std::size_t>(
        buf->sgetn(text.data() + size,
                   static_cast<std::streamsize>(text.size() - size)));
    if (size < text.size()) break;
    text.resize(2 * text.size());
  }
  text.resize(size);
  is.setstate(std::ios::eofbit);
  return text;
}

}  // namespace dflp::fl
