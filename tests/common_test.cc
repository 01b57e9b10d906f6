// Unit tests for common/: mathx, stats, table, check.
#include <gtest/gtest.h>

#include <cmath>

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

TEST(Mathx, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(4), 2);
  EXPECT_EQ(floor_log2(1023), 9);
  EXPECT_EQ(floor_log2(1024), 10);
}

TEST(Mathx, LogStar) {
  EXPECT_EQ(log_star(1.0), 0);
  EXPECT_EQ(log_star(2.0), 1);
  EXPECT_EQ(log_star(4.0), 2);
  EXPECT_EQ(log_star(16.0), 3);
  EXPECT_EQ(log_star(65536.0), 4);
  EXPECT_EQ(log_star(std::pow(2.0, 1000.0)), 5);
  // Overflowing inputs saturate instead of looping.
  EXPECT_EQ(log_star(std::numeric_limits<double>::infinity()), 5);
}

TEST(Mathx, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2u);
  EXPECT_EQ(ceil_div(11, 5), 3u);
  EXPECT_EQ(ceil_div(1, 100), 1u);
}

TEST(Mathx, HarmonicExactSmall) {
  EXPECT_DOUBLE_EQ(harmonic(0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic(1), 1.0);
  EXPECT_DOUBLE_EQ(harmonic(2), 1.5);
  EXPECT_NEAR(harmonic(10), 2.9289682539682538, 1e-12);
}

TEST(Mathx, HarmonicAsymptoticAgreesWithExactAtBoundary) {
  // Exact sum at 4096 vs asymptotic expansion at 4097: must be within 1e-9.
  double exact = 0.0;
  for (int i = 1; i <= 4097; ++i) exact += 1.0 / i;
  EXPECT_NEAR(harmonic(4097), exact, 1e-9);
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

TEST(Mathx, ApproxEq) {
  EXPECT_TRUE(approx_eq(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_eq(1.0, 1.001));
  EXPECT_TRUE(approx_eq(1e12, 1e12 + 1.0, 1e-9));
  EXPECT_TRUE(approx_eq(0.0, 0.0));
}

TEST(Mathx, ClampFinite) {
  EXPECT_EQ(clamp_finite(5.0, 0.0, 10.0), 5.0);
  EXPECT_EQ(clamp_finite(-1.0, 0.0, 10.0), 0.0);
  EXPECT_EQ(clamp_finite(11.0, 0.0, 10.0), 10.0);
  EXPECT_EQ(clamp_finite(std::nan(""), 0.0, 10.0), 0.0);
}

// ---------------------------------------------------------------- stats --

TEST(Stats, RunningStatBasics) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(Stats, RunningStatEmpty) {
  const RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, RunningStatMergeMatchesSequential) {
  RunningStat all;
  RunningStat left;
  RunningStat right;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i < 20 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 0.7), 5.0);
  EXPECT_THROW((void)percentile({}, 0.5), CheckError);
}

TEST(Stats, SummaryFields) {
  const Summary s = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
  EXPECT_NEAR(geometric_mean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_THROW((void)geometric_mean({1.0, 0.0}), CheckError);
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
