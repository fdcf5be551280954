// Plain-text table and CSV emission for benches and examples.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ftsched {

/// Column-aligned text table with an optional header row.
///
/// Usage:
///   TextTable t({"granularity", "FTSA", "FTBAR"});
///   t.add_row({"0.2", "4.1", "5.3"});
///   std::cout << t.str();
class TextTable {
 public:
  TextTable() = default;
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Formats a numeric row with fixed precision.
  void add_numeric_row(const std::string& label,
                       const std::vector<double>& values, int precision = 3);

  [[nodiscard]] std::string str() const;
  void print(std::ostream& os) const;

  /// Comma-separated rendition (header first if present).
  [[nodiscard]] std::string csv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `precision` digits after the point.
[[nodiscard]] std::string format_double(double v, int precision = 3);

}  // namespace ftsched
