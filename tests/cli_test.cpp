#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace graphct {
namespace {

Cli make(std::initializer_list<const char*> args,
         std::map<std::string, std::string> spec) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data(), std::move(spec));
}

TEST(CliTest, ParsesSpaceSeparatedValues) {
  auto cli = make({"--scale", "20"}, {{"scale", "rmat scale"}});
  EXPECT_TRUE(cli.has("scale"));
  EXPECT_EQ(cli.get("scale", std::int64_t{0}), 20);
}

TEST(CliTest, ParsesEqualsValues) {
  auto cli = make({"--frac=0.25"}, {{"frac", "fraction"}});
  EXPECT_DOUBLE_EQ(cli.get("frac", 0.0), 0.25);
}

TEST(CliTest, BooleanFlags) {
  auto cli = make({"--verbose"}, {{"verbose", "chatty!"}});
  EXPECT_TRUE(cli.has("verbose"));
}

TEST(CliTest, DefaultsWhenAbsent) {
  auto cli = make({}, {{"scale", "s"}, {"name", "n"}});
  EXPECT_FALSE(cli.has("scale"));
  EXPECT_EQ(cli.get("scale", std::int64_t{14}), 14);
  EXPECT_EQ(cli.get("name", std::string("x")), "x");
}

TEST(CliTest, UnknownFlagThrows) {
  EXPECT_THROW(make({"--bogus", "1"}, {{"scale", "s"}}), Error);
}

TEST(CliTest, MissingValueThrows) {
  EXPECT_THROW(make({"--scale"}, {{"scale", "s"}}), Error);
}

TEST(CliTest, BadIntegerThrows) {
  auto cli = make({"--scale", "abc"}, {{"scale", "s"}});
  EXPECT_THROW((void)cli.get("scale", std::int64_t{0}), Error);
}

TEST(CliTest, RangeCheckedIntegerRejectsValuesOutsideTheBounds) {
  // 2^32 + 1 narrows to 1 as an int, so the check must come first.
  for (const char* bad : {"4294967297", "-1"}) {
    auto cli = make({"--threads", bad}, {{"threads", "t"}});
    EXPECT_THROW((void)cli.get_in_range("threads", 0, 0, 256), Error) << bad;
  }
}

TEST(CliTest, RangeCheckedIntegerReturnsInRangeValuesAndTheDefault) {
  auto given = make({"--threads", "4"}, {{"threads", "t"}});
  EXPECT_EQ(given.get_in_range("threads", 0, 0, 256), 4);
  auto absent = make({}, {{"threads", "t"}});
  EXPECT_EQ(absent.get_in_range("threads", 1, 1, 256), 1);
}

// The range message names the text as given: values past int64 included.
TEST(CliTest, IntegerInRangeRejectsValuesPastEitherBound) {
  EXPECT_EQ(parse_int_in_range("serve: port", "0", 0, 65535), 0);
  EXPECT_EQ(parse_int_in_range("serve: port", "65535", 0, 65535), 65535);
  EXPECT_EQ(parse_int_in_range("n", "-3", -5, 5), -3);
  for (const std::string bad :
       {"65536", "-1", "4294967297", "99999999999999999999999"}) {
    try {
      (void)parse_int_in_range("serve: port", bad, 0, 65535);
      ADD_FAILURE() << bad;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                "serve: port must be in [0, 65535], got " + bad);
    }
  }
}

TEST(CliTest, IntegerInRangeRejectsTextThatIsNotAnInteger) {
  for (const std::string bad : {"", "abc", "12abc", " 7", "+7", "-", "1.5"}) {
    try {
      (void)parse_int_in_range("partition: N", bad, 1, 4096);
      ADD_FAILURE() << "'" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                "partition: N expects an integer, got '" + bad + "'");
    }
  }
  // Flags take the same parse: trailing characters are no longer dropped.
  auto cli = make({"--threads", "4abc"}, {{"threads", "t"}});
  EXPECT_THROW((void)cli.get_in_range("threads", 0, 0, 256), Error);
}

TEST(CliTest, QueryingUndeclaredFlagThrows) {
  auto cli = make({}, {{"scale", "s"}});
  EXPECT_THROW((void)cli.has("other"), Error);
}

TEST(CliTest, PositionalArguments) {
  auto cli = make({"file1.txt", "--scale", "3", "file2.txt"}, {{"scale", "s"}});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "file1.txt");
  EXPECT_EQ(cli.positional()[1], "file2.txt");
}

TEST(CliTest, HelpListsFlags) {
  auto cli = make({}, {{"scale", "rmat scale"}, {"quick", "fast mode!"}});
  const std::string h = cli.help("prog");
  EXPECT_NE(h.find("--scale"), std::string::npos);
  EXPECT_NE(h.find("--quick"), std::string::npos);
  EXPECT_NE(h.find("rmat scale"), std::string::npos);
}

}  // namespace
}  // namespace graphct
