#include "common/csv.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/assert.hpp"

namespace micco {

void CsvWriter::add_column(std::string header) {
  MICCO_EXPECTS_MSG(rows_.empty(), "declare all columns before adding rows");
  headers_.push_back(std::move(header));
}

void CsvWriter::add_row(std::vector<std::string> cells) {
  MICCO_EXPECTS(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quoting =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string CsvWriter::render() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

void CsvWriter::write(std::ostream& out) const {
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c > 0) out << ',';
    out << escape(headers_[c]);
  }
  out << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ',';
      out << escape(row[c]);
    }
    out << '\n';
  }
}

void CsvWriter::write_file(const std::string& path) const {
  std::ofstream out(path);
  MICCO_EXPECTS_MSG(out.good(), "cannot open csv file for writing");
  write(out);
  out.flush();
  MICCO_EXPECTS_MSG(out.good(), "csv file write failed");
}

}  // namespace micco
