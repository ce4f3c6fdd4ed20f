#include "common/string_util.h"

#include <gtest/gtest.h>

namespace gmpsvm {
namespace {

TEST(SplitTokensTest, BasicSplit) {
  auto tokens = SplitTokens("1:0.5 3:1.25 7:2", " ");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "1:0.5");
  EXPECT_EQ(tokens[2], "7:2");
}

TEST(SplitTokensTest, MultipleDelimitersAndEmptyTokens) {
  auto tokens = SplitTokens("  a\t\tb  c ", " \t");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "b");
  EXPECT_EQ(tokens[2], "c");
}

TEST(SplitTokensTest, EmptyInput) {
  EXPECT_TRUE(SplitTokens("", " ").empty());
  EXPECT_TRUE(SplitTokens("   ", " ").empty());
}

TEST(SplitTokensTest, ColonSplit) {
  auto kv = SplitTokens("17:0.25", ":");
  ASSERT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv[0], "17");
  EXPECT_EQ(kv[1], "0.25");
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  hello \r\n"), "hello");
  EXPECT_EQ(StripWhitespace("x"), "x");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("gaussian(gamma=1)", "gaussian"));
  EXPECT_FALSE(StartsWith("gauss", "gaussian"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(ParseDoubleTest, ParsesWholeFiniteTokens) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("-2.5e-3", &v));
  EXPECT_EQ(v, -2.5e-3);
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("1e999", &v));
  EXPECT_EQ(v, -2.5e-3);  // untouched on failure
}

TEST(ParseDoubleTest, RejectsNonFiniteSpellings) {
  for (const char* token : {"nan", "-nan", "NaN", "inf", "-inf", "infinity",
                            "-Infinity"}) {
    double v = 7.0;
    EXPECT_FALSE(ParseDouble(token, &v)) << token;
    EXPECT_EQ(v, 7.0) << token;
  }
}

TEST(HumanSecondsTest, UnitSelection) {
  EXPECT_EQ(HumanSeconds(0.0000005), "0.5 us");
  EXPECT_EQ(HumanSeconds(0.25), "250 ms");
  EXPECT_EQ(HumanSeconds(34.1), "34.10 s");
  EXPECT_EQ(HumanSeconds(600), "10.0 min");
  EXPECT_EQ(HumanSeconds(7200), "2.00 h");
}

TEST(HumanSecondsTest, Negative) { EXPECT_EQ(HumanSeconds(-2.0), "-2.00 s"); }

TEST(HumanBytesTest, UnitSelection) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(12.0 * (1ull << 30)), "12.00 GB");
}

TEST(StrPrintfTest, FormatsLikePrintf) {
  EXPECT_EQ(StrPrintf("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrPrintf("%s", ""), "");
}

TEST(StrPrintfTest, LongOutput) {
  std::string long_arg(1000, 'a');
  std::string out = StrPrintf("[%s]", long_arg.c_str());
  EXPECT_EQ(out.size(), 1002u);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

}  // namespace
}  // namespace gmpsvm
