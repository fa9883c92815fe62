// Aligned text tables for experiment harnesses.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace atacsim {

/// Accumulates rows of strings and prints them with aligned columns, in the
/// style the benches use to regenerate the paper's tables/figures as text.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 3);

  void print(std::ostream& os) const;

  const std::vector<std::string>& row(std::size_t i) const { return rows_[i]; }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace atacsim
