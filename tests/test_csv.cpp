#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace micco {
namespace {

TEST(Csv, HeaderAndRows) {
  CsvWriter csv;
  csv.add_column("name");
  csv.add_column("gflops");
  csv.add_row({"Groute", "7676"});
  csv.add_row({"MICCO", "10199"});
  EXPECT_EQ(csv.render(), "name,gflops\nGroute,7676\nMICCO,10199\n");
  EXPECT_EQ(csv.rows(), 2u);
  EXPECT_EQ(csv.columns(), 2u);
}

TEST(Csv, EscapesCommas) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
}

TEST(Csv, EscapesQuotes) {
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, EscapesNewlines) {
  EXPECT_EQ(CsvWriter::escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, PlainCellsUntouched) {
  EXPECT_EQ(CsvWriter::escape("plain-cell_1.5"), "plain-cell_1.5");
}

TEST(Csv, QuotedCellsRoundTripInRender) {
  CsvWriter csv;
  csv.add_column("label");
  csv.add_row({"vec=64, rate=50%"});
  EXPECT_EQ(csv.render(), "label\n\"vec=64, rate=50%\"\n");
}

TEST(Csv, WrongCellCountAborts) {
  CsvWriter csv;
  csv.add_column("only");
  EXPECT_DEATH(csv.add_row({"a", "b"}), "size");
}

TEST(Csv, ColumnsAfterRowsAbort) {
  CsvWriter csv;
  csv.add_column("a");
  csv.add_row({"1"});
  EXPECT_DEATH(csv.add_column("late"), "before");
}

TEST(Csv, FileWriting) {
  CsvWriter csv;
  csv.add_column("x");
  csv.add_row({"42"});
  const std::string path = "/tmp/micco_test.csv";
  csv.write_file(path);
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "x");
  EXPECT_EQ(line2, "42");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace micco
