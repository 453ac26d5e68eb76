#include "util/string_util.h"

#include <gtest/gtest.h>

namespace shoal::util {
namespace {

TEST(SplitTest, BasicSplit) {
  auto parts = Split("a\tb\tc", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, PreservesEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoDelimiterYieldsWhole) {
  auto parts = Split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(SplitWhitespaceTest, CollapsesRuns) {
  auto parts = SplitWhitespace("  beach \t dress\nnow ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "beach");
  EXPECT_EQ(parts[1], "dress");
  EXPECT_EQ(parts[2], "now");
}

TEST(SplitWhitespaceTest, EmptyAndBlank) {
  EXPECT_TRUE(SplitWhitespace("").empty());
  EXPECT_TRUE(SplitWhitespace("  \t\n ").empty());
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, TrimsBothEnds) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(ToLowerTest, AsciiLowercasing) {
  EXPECT_EQ(ToLower("Beach DRESS 42"), "beach dress 42");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("shoal_core", "shoal"));
  EXPECT_FALSE(StartsWith("core", "shoal"));
  EXPECT_TRUE(EndsWith("graph.tsv", ".tsv"));
  EXPECT_FALSE(EndsWith("graph.tsv", ".csv"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(ParseUnsignedTest, AcceptsOnlyWholeInRangeDecimals) {
  uint32_t u32 = 7;
  EXPECT_TRUE(ParseUnsigned("0", &u32));
  EXPECT_EQ(u32, 0u);
  EXPECT_TRUE(ParseUnsigned("4294967295", &u32));
  EXPECT_EQ(u32, 4294967295u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "7x", "2junk", "0x10",
                          "1.0", "4294967296", "4294967301"}) {
    u32 = 7;
    EXPECT_FALSE(ParseUnsigned(bad, &u32)) << "'" << bad << "'";
    EXPECT_EQ(u32, 7u) << "'" << bad << "'";
  }
  uint64_t u64 = 0;
  EXPECT_TRUE(ParseUnsigned("18446744073709551615", &u64));
  EXPECT_EQ(u64, 18446744073709551615ull);
  EXPECT_FALSE(ParseUnsigned("18446744073709551616", &u64));
}

TEST(StringPrintfTest, FormatsLikePrintf) {
  EXPECT_EQ(StringPrintf("%d items in %s", 7, "topic"), "7 items in topic");
  EXPECT_EQ(StringPrintf("%.2f", 1.005), "1.00");
}

TEST(StringPrintfTest, EmptyFormat) {
  EXPECT_EQ(StringPrintf("%s", ""), "");
}

TEST(FormatDoubleTest, StripsTrailingZeros) {
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(0.30, 4), "0.3");
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(1.2345, 2), "1.23");
}

TEST(FormatWithCommasTest, GroupsThousands) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(200000000), "200,000,000");
}

}  // namespace
}  // namespace shoal::util
