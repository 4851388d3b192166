#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace tcb {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class CsvTest : public ::testing::Test {
 protected:
  // One file per test case: ctest runs the cases as concurrent processes,
  // and a shared path let one case's TearDown delete another's file.
  std::string path_ =
      ::testing::TempDir() + "tcb_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"rate", "utility"});
    csv.row({"40", "12.5"});
    csv.row_numeric({80, 25});
  }
  EXPECT_EQ(slurp(path_), "rate,utility\n40,12.5\n80,25\n");
}

TEST_F(CsvTest, EscapesCommasAndQuotes) {
  {
    CsvWriter csv(path_, {"name", "note"});
    csv.row({"a,b", "say \"hi\""});
  }
  EXPECT_EQ(slurp(path_), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, RowWidthMismatchThrows) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
}

TEST_F(CsvTest, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), std::runtime_error);
}

TEST(FormatNumberTest, IntegersHaveNoDecimals) {
  EXPECT_EQ(format_number(42.0), "42");
  EXPECT_EQ(format_number(-3.0), "-3");
  EXPECT_EQ(format_number(0.0), "0");
}

TEST(FormatNumberTest, FractionsKeepPrecisionWithoutTrailingZeros) {
  EXPECT_EQ(format_number(12.5), "12.5");
  EXPECT_EQ(format_number(0.001), "0.001");
}

}  // namespace
}  // namespace tcb
