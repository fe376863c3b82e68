#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <optional>

#include "util/logging.h"

namespace rudolf {
namespace {

TEST(Split, Basic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Split, NoSeparator) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Split, EmptyInput) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("nothing"), "nothing");
}

TEST(Trim, AllWhitespace) { EXPECT_EQ(Trim("   "), ""); }

TEST(StartsWith, Basic) {
  EXPECT_TRUE(StartsWith("rule time >= 5", "rule "));
  EXPECT_FALSE(StartsWith("rul", "rule"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(Join, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(ToLower, Basic) { EXPECT_EQ(ToLower("AbC123"), "abc123"); }

TEST(ParseInt64, Valid) {
  EXPECT_EQ(ParseInt64("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("-17").ValueOrDie(), -17);
  EXPECT_EQ(ParseInt64("  8 ").ValueOrDie(), 8);
  EXPECT_EQ(ParseInt64("0").ValueOrDie(), 0);
}

TEST(ParseInt64, Invalid) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

// Every integer RUDOLF_* knob goes through IntFromEnv: unset or empty means
// "not configured"; anything else must be a whole integer in range, or it is
// ignored with a warning naming the variable and the accepted range.
TEST(IntFromEnv, AcceptsOnlyWholeIntegersInRange) {
  constexpr char kVar[] = "RUDOLF_TEST_INT_KNOB";
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Case {
    const char* value;  // nullptr: unset
    int64_t lo;
    int64_t hi;
    std::optional<int64_t> want;
    const char* range;  // in the warning; nullptr: no warning
  };
  const Case kCases[] = {
      {nullptr, 1, 10, std::nullopt, nullptr},
      {"", 1, 10, std::nullopt, nullptr},
      {"8", 1, 10, 8, nullptr},
      {" 8 ", 1, 10, 8, nullptr},  // surrounding whitespace is trimmed
      {"+8", 1, 10, 8, nullptr},
      {"1", 1, 10, 1, nullptr},  // both bounds are inclusive
      {"10", 1, 10, 10, nullptr},
      {"-3", -5, 5, -3, nullptr},
      {"0", 1, 10, std::nullopt, "in [1, 10]"},
      {"11", 1, 10, std::nullopt, "in [1, 10]"},
      {"0", 1, kMax, std::nullopt, ">= 1"},
      {"8x", 1, 10, std::nullopt, "in [1, 10]"},
      {"x8", 1, 10, std::nullopt, "in [1, 10]"},
      {"8 8", 1, 10, std::nullopt, "in [1, 10]"},
      {"8.0", 1, 10, std::nullopt, "in [1, 10]"},
      {"0x10", 0, 100, std::nullopt, "in [0, 100]"},
      {"9223372036854775807", 1, kMax, kMax, nullptr},
      {"9223372036854775808", 1, kMax, std::nullopt, ">= 1"},  // overflows
      // The 0/1 switch (RUDOLF_INDEX).
      {"false", 0, 1, std::nullopt, "in [0, 1]"},
      {"00", 0, 1, 0, nullptr},
      {" 1 ", 0, 1, 1, nullptr},
  };
  LogLevel level = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  for (const Case& c : kCases) {
    const std::string shown = c.value != nullptr ? c.value : "(unset)";
    if (c.value != nullptr) {
      setenv(kVar, c.value, 1);
    } else {
      unsetenv(kVar);
    }
    testing::internal::CaptureStderr();
    std::optional<int64_t> got = IntFromEnv(kVar, c.lo, c.hi);
    std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_EQ(got, c.want) << "'" << shown << "'";
    if (c.range == nullptr) {
      EXPECT_EQ(warning, "") << "'" << shown << "'";
    } else {
      EXPECT_NE(warning.find(std::string(kVar) + "='" + c.value + "'"),
                std::string::npos)
          << warning;
      EXPECT_NE(warning.find(c.range), std::string::npos) << warning;
    }
  }
  unsetenv(kVar);
  SetLogLevel(level);
}

TEST(ParseDouble, Valid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").ValueOrDie(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-0.25").ValueOrDie(), -0.25);
  EXPECT_DOUBLE_EQ(ParseDouble("1e3").ValueOrDie(), 1000.0);
}

TEST(ParseDouble, Invalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("x").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
}

TEST(FormatClock, Basic) {
  EXPECT_EQ(FormatClock(0), "00:00");
  EXPECT_EQ(FormatClock(18 * 60 + 5), "18:05");
  EXPECT_EQ(FormatClock(23 * 60 + 59), "23:59");
}

TEST(FormatClock, WrapsAcrossDays) {
  EXPECT_EQ(FormatClock(24 * 60 + 30), "00:30");
}

TEST(FormatClock, NegativeClampsToZero) { EXPECT_EQ(FormatClock(-5), "00:00"); }

TEST(ParseClock, Valid) {
  EXPECT_EQ(ParseClock("18:05").ValueOrDie(), 18 * 60 + 5);
  EXPECT_EQ(ParseClock("00:00").ValueOrDie(), 0);
  EXPECT_EQ(ParseClock("23:59").ValueOrDie(), 23 * 60 + 59);
  EXPECT_EQ(ParseClock(" 9:30 ").ValueOrDie(), 9 * 60 + 30);
}

TEST(ParseClock, Invalid) {
  EXPECT_FALSE(ParseClock("1805").ok());
  EXPECT_FALSE(ParseClock("24:00").ok());
  EXPECT_FALSE(ParseClock("12:60").ok());
  EXPECT_FALSE(ParseClock("-1:30").ok());
  EXPECT_FALSE(ParseClock("ab:cd").ok());
}

TEST(ParseClock, RoundTripsFormatClock) {
  for (int64_t m : {0, 59, 60, 719, 720, 1439}) {
    EXPECT_EQ(ParseClock(FormatClock(m)).ValueOrDie(), m);
  }
}

TEST(StringPrintf, Formats) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 1.005), "1.00");
  EXPECT_EQ(StringPrintf("plain"), "plain");
}

TEST(StringPrintf, LongOutput) {
  std::string long_arg(500, 'a');
  EXPECT_EQ(StringPrintf("%s", long_arg.c_str()).size(), 500u);
}

}  // namespace
}  // namespace rudolf
