// Plain-text table printer used by the bench binaries to print paper tables
// and figure data series in aligned, human-readable form, plus CSV export.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace easycrash {

/// A simple column-aligned table. Cells are strings; helpers format numbers.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Start a new row. Subsequent cell() calls append to it.
  Table& row();
  Table& cell(std::string value);
  Table& cell(double value, int precision = 3);
  Table& cell(long long value);
  Table& cell(unsigned long long value);
  Table& cellPercent(double fraction, int precision = 1);

  /// Render with unicode-free ASCII rules, aligned columns.
  void print(std::ostream& os, const std::string& title = "") const;
  /// Render as CSV (RFC-4180-ish; quotes cells containing commas).
  void printCsv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a byte count as a human-readable string ("3.4GB", "264MB", "80B").
[[nodiscard]] std::string formatBytes(std::uint64_t bytes);

/// Format a double with fixed precision.
[[nodiscard]] std::string formatDouble(double value, int precision = 3);

}  // namespace easycrash
