#include "common/cli.hpp"

#include <gtest/gtest.h>

namespace micco {
namespace {

CliArgs parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, EqualsForm) {
  const CliArgs args = parse({"--gpus=8"});
  EXPECT_EQ(args.get_int("gpus", 0), 8);
}

TEST(CliArgs, SpaceSeparatedForm) {
  const CliArgs args = parse({"--gpus", "4"});
  EXPECT_EQ(args.get_int("gpus", 0), 4);
}

TEST(CliArgs, BareFlagIsBooleanTrue) {
  const CliArgs args = parse({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.has("verbose"));
}

TEST(CliArgs, MissingFlagFallsBack) {
  const CliArgs args = parse({});
  EXPECT_EQ(args.get("name", "default"), "default");
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(args.has("name"));
}

TEST(CliArgs, BooleanSpellings) {
  EXPECT_TRUE(parse({"--a=true"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=on"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=yes"}).get_bool("a", false));
  EXPECT_FALSE(parse({"--a=false"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=off"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=0"}).get_bool("a", true));
}

TEST(CliArgs, UnknownBooleanSpellingFallsBack) {
  EXPECT_TRUE(parse({"--a=banana"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=banana"}).get_bool("a", false));
}

TEST(CliArgs, DoubleParsing) {
  const CliArgs args = parse({"--rate=0.75"});
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.75);
}

TEST(CliArgs, PositionalArguments) {
  const CliArgs args = parse({"file1", "--flag=1", "file2"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "file1");
  EXPECT_EQ(args.positional()[1], "file2");
}

TEST(CliArgs, LastOccurrenceWins) {
  const CliArgs args = parse({"--n=1", "--n=2"});
  EXPECT_EQ(args.get_int("n", 0), 2);
}

TEST(CliArgs, UnusedFlagsReported) {
  const CliArgs args = parse({"--used=1", "--typo=2"});
  (void)args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(CliArgs, UnknownFlagsReportedBeforeAnyRead) {
  const CliArgs args =
      parse({"--gpus=4", "--evict-polcy=lru", "file", "--oversub", "2"});
  EXPECT_TRUE(args.unknown({"gpus", "oversub", "evict-policy"}) ==
              std::vector<std::string>{"evict-polcy"});
  EXPECT_TRUE(args.unknown({"gpus", "oversub", "evict-polcy"}).empty());
  // unknown() does not count as a read.
  EXPECT_EQ(args.unused().size(), 3u);
}

TEST(CliArgs, MalformedNumbersAreErrorsAndFallBack) {
  // strtoll/strtod stop at the first bad character; a value they cannot
  // consume in full is an error, not a shorter number.
  const CliArgs args = parse({"--gpus=4x", "--oversub=2x", "--n=", "--big",
                              "99999999999999999999", "--rate=1e999"});
  EXPECT_FALSE(args.error().has_value());  // nothing read yet
  EXPECT_EQ(args.get_int("gpus", 8), 8);
  ASSERT_TRUE(args.error().has_value());
  EXPECT_EQ(*args.error(), "malformed value for --gpus: '4x'");
  EXPECT_DOUBLE_EQ(args.get_double("oversub", 0.0), 0.0);
  EXPECT_EQ(args.get_int("n", 3), 3);
  EXPECT_EQ(args.get_int("big", 5), 5);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.5), 0.5);
  // The first malformed value read stays the reported one.
  EXPECT_EQ(*args.error(), "malformed value for --gpus: '4x'");

  for (const char* flag : {"--oversub=2x", "--oversub=", "--oversub=1e999"}) {
    const CliArgs one = parse({flag});
    (void)one.get_double("oversub", 0.0);
    ASSERT_TRUE(one.error().has_value()) << flag;
    EXPECT_NE(one.error()->find("--oversub"), std::string::npos) << flag;
  }
}

TEST(CliArgs, UnknownBooleanWordIsError) {
  const CliArgs args = parse({"--p2p=ture"});
  EXPECT_FALSE(args.get_bool("p2p", false));
  ASSERT_TRUE(args.error().has_value());
  EXPECT_EQ(*args.error(), "malformed value for --p2p: 'ture'");
}

TEST(CliArgs, WellFormedValuesLeaveNoError) {
  const CliArgs args =
      parse({"--gpus=4", "--seed=-3", "--rate=0.75", "--tiny=1e-4",
             "--p2p=ON", "--quick", "--name=4x", "--evict-policy="});
  EXPECT_EQ(args.get_int("gpus", 0), 4);
  EXPECT_EQ(args.get_int("seed", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.75);
  EXPECT_DOUBLE_EQ(args.get_double("tiny", 0.0), 1e-4);
  EXPECT_TRUE(args.get_bool("p2p", false));
  EXPECT_TRUE(args.get_bool("quick", false));
  // String values are taken as they are, empty ones included.
  EXPECT_EQ(args.get("name", ""), "4x");
  EXPECT_EQ(args.get("evict-policy", "lru"), "");
  EXPECT_FALSE(args.error().has_value());
}

TEST(CliArgs, EmptyFlagNameIsError) {
  const CliArgs args = parse({"--=x"});
  EXPECT_TRUE(args.error().has_value());
}

TEST(CliArgs, ProgramName) {
  const CliArgs args = parse({});
  EXPECT_EQ(args.program(), "prog");
}

}  // namespace
}  // namespace micco
