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

TEST(CliArgs, BareFlagHasNoValue) {
  // `run w.mw --trace` must not write a timeline to a file named "1": a
  // bare flag read for a value is an error, and the getter falls back.
  const CliArgs args = parse({"w.mw", "--trace"});
  EXPECT_TRUE(args.has("trace"));
  EXPECT_FALSE(args.error().has_value());  // nothing read yet
  EXPECT_EQ(args.get("trace", ""), "");
  ASSERT_TRUE(args.error().has_value());
  EXPECT_EQ(*args.error(), "--trace needs a value");

  const CliArgs numbers = parse({"--gpus", "--oversub"});
  EXPECT_EQ(numbers.get_int("gpus", 8), 8);
  EXPECT_DOUBLE_EQ(numbers.get_double("oversub", 0.0), 0.0);
  ASSERT_TRUE(numbers.error().has_value());
  EXPECT_EQ(*numbers.error(), "--gpus needs a value");

  // A later valued occurrence wins over the bare one, and back.
  EXPECT_EQ(parse({"--trace", "--trace=t.json"}).get("trace", ""), "t.json");
  const CliArgs bare_last = parse({"--trace=t.json", "--trace"});
  EXPECT_EQ(bare_last.get("trace", "none"), "none");
  EXPECT_TRUE(bare_last.error().has_value());
  EXPECT_TRUE(bare_last.get_bool("trace", false));
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

  // A value outside the type it is read as is malformed too, not wrapped:
  // an int flag past 2^31, a negative size or count. The int64 default
  // takes any int64, which is how seeds read.
  const CliArgs wide = parse({"--gpus=4294967297"});
  EXPECT_EQ(wide.get_int<int>("gpus", 8), 8);
  EXPECT_EQ(wide.error().value_or(""),
            "malformed value for --gpus: '4294967297'");
  EXPECT_EQ(wide.get_int("gpus", 8), 4294967297);
  const CliArgs low = parse({"--gpus=-2147483649"});
  EXPECT_EQ(low.get_int<int>("gpus", 8), 8);
  EXPECT_TRUE(low.error().has_value());
  const CliArgs queue = parse({"--max-queue=-1"});
  EXPECT_EQ(queue.get_int<std::size_t>("max-queue", 64), 64u);
  EXPECT_EQ(queue.error().value_or(""),
            "malformed value for --max-queue: '-1'");
  const CliArgs crash = parse({"--journal-crash-after=-1"});
  EXPECT_EQ(crash.get_int<std::uint64_t>("journal-crash-after", 0), 0u);
  EXPECT_TRUE(crash.error().has_value());
  const CliArgs edges =
      parse({"--gpus=2147483647", "--max-queue=0", "--seed=-1"});
  EXPECT_EQ(edges.get_int<int>("gpus", 8), 2147483647);
  EXPECT_EQ(edges.get_int<std::size_t>("max-queue", 64), 0u);
  EXPECT_EQ(edges.get_int("seed", 0), -1);
  EXPECT_FALSE(edges.error().has_value());

  // strtod reads "nan" and "inf" in full, but no flag means either.
  for (const char* flag : {"--oversub=2x", "--oversub=", "--oversub=1e999",
                           "--oversub=nan", "--oversub=inf", "--oversub=-inf",
                           "--oversub=NaN", "--oversub=infinity"}) {
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
