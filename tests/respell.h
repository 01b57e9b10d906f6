// Test helper: a serialized text re-spelled in the ways the fl readers
// accept besides their own output.
#pragma once

#include <string>
#include <vector>

namespace dflp::fl {

/// `text` with CRLF line ends, with tabs between fields, and with a '+'
/// in front of every unsigned number.
inline std::vector<std::string> respellings(const std::string& text) {
  std::string crlf;
  std::string tabs;
  std::string plus;
  for (std::size_t k = 0; k < text.size(); ++k) {
    const char c = text[k];
    crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
    tabs += c == ' ' ? '\t' : c;
    const bool token_start = k == 0 || text[k - 1] == ' ' ||
                             text[k - 1] == '\n';
    if (token_start && c >= '0' && c <= '9') plus += '+';
    plus += c;
  }
  return {crlf, tabs, plus};
}

}  // namespace dflp::fl
