// Token scanner of the `.ufl` reader (serialize.cc).
//
// The reader slurps its std::istream with read_all() and parses the
// in-memory buffer with one TextScanner. The token grammar and the error
// format are specified in fl/serialize.h; numbers are parsed with
// std::from_chars.
//
// Private to src/fl; not part of the public API.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace dflp::fl {

class TextScanner {
 public:
  explicit TextScanner(std::string_view text) noexcept
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// Consumes the `<magic> 1` header line every format starts with.
  void header(std::string_view magic);

  /// Next token as a decimal integer in [lo, hi].
  [[nodiscard]] std::int64_t integer(const char* field, std::int64_t lo,
                                     std::int64_t hi);

  /// Next token as a finite, non-negative double.
  [[nodiscard]] double cost(const char* field);

  /// Throws unless the unread bytes can hold `tokens` more tokens (each
  /// takes at least a separator and one character). Readers call it with a
  /// count they just read, before any loop or allocation sized by that
  /// count; `tokens` must be below 2^62.
  void expect_room(std::int64_t tokens);

  /// Throws unless nothing but whitespace is left.
  void expect_end();

  /// Throws a CheckError located at the last token read, quoting that
  /// token in front of `problem`.
  [[noreturn]] void fail_token(std::string_view problem) const;

  /// Throws a CheckError located at the last token read.
  [[noreturn]] void fail(std::string_view what) const;

  /// Line of the last token read, counted from 1.
  [[nodiscard]] std::int64_t line() const noexcept { return line_; }

 private:
  /// Next token, verbatim.
  [[nodiscard]] std::string_view word(const char* field);
  /// Skips whitespace, counting lines.
  void skip_space() noexcept;
  /// Skips whitespace and starts the next token; throws at end of input.
  const char* begin_token(const char* field);
  /// True when `p` ends a token.
  [[nodiscard]] bool at_boundary(const char* p) const noexcept;

  const char* pos_;
  const char* end_;
  std::int64_t line_ = 1;
  std::int64_t field_ = 0;  ///< tokens begun on line_ so far
  const char* field_name_ = "";
  const char* token_ = nullptr;  ///< start of the last token
};

/// Reads everything left in `is` into memory, in large chunks, and sets the
/// stream's eofbit.
[[nodiscard]] std::string read_all(std::istream& is);

}  // namespace dflp::fl
