// Test helpers for the `.ufl` text: a string parsed the way dflp_cli reads
// a file, and re-spellings the reader accepts besides its own output.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "fl/serialize.h"

namespace dflp::fl {

/// Parses `text` through read_instance on a stream, as dflp_cli does.
inline Instance parse_ufl(const std::string& text) {
  std::istringstream in(text);
  return read_instance(in);
}

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
