#include "common/table.h"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace dflp {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  std::string s = os.str();
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  DFLP_CHECK(!headers_.empty());
}

Table& Table::row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::cell(const std::string& value) {
  DFLP_CHECK_MSG(!rows_.empty(), "call row() before cell()");
  DFLP_CHECK_MSG(rows_.back().size() < headers_.size(),
                 "row has more cells than headers");
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }

Table& Table::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

Table& Table::cell(std::int64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(std::uint64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(int value) { return cell(std::to_string(value)); }

std::string Table::to_markdown() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = headers_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      width[c] = std::max(width[c], r[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string();
      os << ' ' << v << std::string(width[c] - v.size(), ' ') << " |";
    }
    os << '\n';
  };
  emit_row(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << std::string(width[c] + 2, '-') << '|';
  os << '\n';
  for (const auto& r : rows_) emit_row(r);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Table& t) {
  return os << t.to_markdown();
}

}  // namespace dflp
