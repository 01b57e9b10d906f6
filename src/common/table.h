// Minimal tabular reporting: the bench binaries print the experiment rows
// (the paper's "tables/figures") as aligned Markdown.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dflp {

/// A simple column-oriented table. Cells are strings; numeric helpers format
/// with sensible precision. Rendering aligns columns for terminal reading
/// and is also valid GitHub Markdown.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row. Subsequent cell() calls fill it left to right.
  Table& row();

  Table& cell(const std::string& value);
  Table& cell(const char* value);
  Table& cell(double value, int precision = 3);
  Table& cell(std::int64_t value);
  Table& cell(std::uint64_t value);
  Table& cell(int value);

  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }

  /// Renders as aligned Markdown. Incomplete rows are padded with "".
  [[nodiscard]] std::string to_markdown() const;

  /// Convenience: stream the Markdown rendering.
  friend std::ostream& operator<<(std::ostream& os, const Table& t);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision, trimming trailing zeros
/// ("1.25", "3", "0.001").
[[nodiscard]] std::string format_double(double value, int precision = 3);

}  // namespace dflp
