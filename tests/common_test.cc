// Unit tests for common/: mathx, stats, table, check.
#include <gtest/gtest.h>

#include "common/check.h"
#include "common/mathx.h"
#include "common/stats.h"
#include "common/table.h"

namespace dflp {
namespace {

// ---------------------------------------------------------------- mathx --

TEST(Mathx, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
  EXPECT_EQ(ceil_log2(1ULL << 63), 63);
}

TEST(Mathx, GeometricLevels) {
  const auto levels = geometric_levels(1.0, 2.0, 5);
  ASSERT_EQ(levels.size(), 5u);
  EXPECT_DOUBLE_EQ(levels[0], 1.0);
  EXPECT_DOUBLE_EQ(levels[4], 16.0);
  EXPECT_THROW(geometric_levels(0.0, 2.0, 3), CheckError);
  EXPECT_THROW(geometric_levels(1.0, 1.0, 3), CheckError);
  EXPECT_THROW(geometric_levels(1.0, 2.0, 0), CheckError);
}

// ---------------------------------------------------------------- stats --

TEST(Stats, RunningStatBasics) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Stats, RunningStatEmpty) {
  const RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

// ---------------------------------------------------------------- table --

TEST(Table, MarkdownRendering) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5, 2);
  t.row().cell("beta").cell(std::int64_t{42});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| name"), std::string::npos);
  EXPECT_NE(md.find("alpha"), std::string::npos);
  EXPECT_NE(md.find("42"), std::string::npos);
  EXPECT_NE(md.find("|---"), std::string::npos);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().cell("ok");
  EXPECT_THROW(t.cell("overflow"), CheckError);
}

TEST(Table, CellBeforeRowThrows) {
  Table t({"h"});
  EXPECT_THROW(t.cell("x"), CheckError);
}

TEST(Table, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.25, 3), "1.25");
  EXPECT_EQ(format_double(3.0, 3), "3");
  EXPECT_EQ(format_double(0.001, 3), "0.001");
  EXPECT_EQ(format_double(0.0001, 3), "0");
}

// ---------------------------------------------------------------- check --

TEST(Check, ThrowsWithContext) {
  try {
    DFLP_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

TEST(Check, PassingConditionIsSilent) {
  EXPECT_NO_THROW(DFLP_CHECK(2 + 2 == 4));
}

}  // namespace
}  // namespace dflp
