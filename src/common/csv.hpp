// Minimal CSV writing for bench output (--csv flags): quoted-when-needed
// cells, fixed schema per file, append-row interface mirroring TextTable so
// harnesses can emit both the human table and a machine-readable series for
// replotting the paper's figures.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace micco {

class CsvWriter {
 public:
  /// Declares the column schema; must run before the first row.
  void add_column(std::string header);

  /// Appends a row; cell count must match the declared columns.
  void add_row(std::vector<std::string> cells);

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return headers_.size(); }

  /// RFC-4180-ish rendering: cells containing commas, quotes or newlines
  /// are quoted, embedded quotes doubled.
  std::string render() const;
  void write(std::ostream& out) const;

  /// Writes to a file; aborts on I/O failure.
  void write_file(const std::string& path) const;

  /// Escapes one cell (exposed for tests).
  static std::string escape(const std::string& cell);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace micco
