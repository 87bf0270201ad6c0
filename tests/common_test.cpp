// Tests for the common utilities: deterministic RNG, CLI parsing, and the
// table/format helpers.
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/common/cli.hpp"
#include "easycrash/common/rng.hpp"
#include "easycrash/common/table.hpp"

namespace ec = easycrash;

TEST(Rng, DeterministicForSameSeed) {
  ec::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  ec::Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  ec::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  ec::Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BetweenIsInclusive) {
  ec::Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.between(5, 8));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(5));
  EXPECT_TRUE(seen.count(8));
}

TEST(Rng, Uniform01InRange) {
  ec::Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  ec::Rng parent(9);
  ec::Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 3);
}

TEST(Rng, CoversFullRangeEventually) {
  ec::Rng rng(11);
  bool highBitSeen = false;
  for (int i = 0; i < 1000 && !highBitSeen; ++i) {
    highBitSeen = (rng() >> 63) != 0;
  }
  EXPECT_TRUE(highBitSeen);
}

TEST(Cli, ParsesSpaceSeparatedValues) {
  ec::CliParser cli("test");
  cli.addInt("count", 3, "a count");
  const char* argv[] = {"prog", "--count", "42"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.getInt("count"), 42);
}

TEST(Cli, ParsesEqualsSeparatedValues) {
  ec::CliParser cli("test");
  cli.addDouble("ratio", 0.5, "a ratio");
  const char* argv[] = {"prog", "--ratio=0.25"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_DOUBLE_EQ(cli.getDouble("ratio"), 0.25);
}

TEST(Cli, DefaultsApplyWhenNotGiven) {
  ec::CliParser cli("test");
  cli.addString("name", "fallback", "a name");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.getString("name"), "fallback");
}

TEST(Cli, FlagsDefaultFalseAndSet) {
  ec::CliParser cli("test");
  cli.addFlag("verbose", "talk a lot");
  {
    const char* argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, argv));
    EXPECT_FALSE(cli.getFlag("verbose"));
  }
  ec::CliParser cli2("test");
  cli2.addFlag("verbose", "talk a lot");
  const char* argv2[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli2.parse(2, argv2));
  EXPECT_TRUE(cli2.getFlag("verbose"));
}

TEST(Cli, UnknownOptionThrows) {
  ec::CliParser cli("test");
  const char* argv[] = {"prog", "--nonsense", "1"};
  EXPECT_THROW((void)cli.parse(3, argv), std::runtime_error);
}

TEST(Cli, HelpReturnsFalse) {
  ec::CliParser cli("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, MissingValueThrows) {
  ec::CliParser cli("test");
  cli.addInt("n", 1, "n");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW((void)cli.parse(2, argv), std::runtime_error);
}

namespace {

/// The message parse() throws for `args`, or "" when it accepts them.
std::string parseError(ec::CliParser& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  try {
    (void)cli.parse(static_cast<int>(args.size()), args.data());
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

ec::CliParser everyKind() {
  ec::CliParser cli("test");
  cli.addString("name", "x", "a name");
  cli.addInt("count", 3, "a count");
  cli.addDouble("ratio", 0.5, "a ratio");
  cli.addFlag("quiet", "say less");
  cli.addStringList("input", "an input");
  return cli;
}

}  // namespace

TEST(Cli, AScalarOptionGivenTwiceIsRefused) {
  for (const char* name : {"--name", "--count", "--ratio"}) {
    auto cli = everyKind();
    EXPECT_EQ(parseError(cli, {name, "1", name, "2"}),
              std::string(name) + " given more than once");
  }
  auto cli = everyKind();
  EXPECT_EQ(parseError(cli, {"--count=1", "--count", "1"}), "--count given more than once");
}

TEST(Cli, FlagsRepeatAndListsAppend) {
  auto cli = everyKind();
  ASSERT_EQ(parseError(cli, {"--quiet", "--input", "a", "--quiet", "--input=b"}), "");
  EXPECT_TRUE(cli.getFlag("quiet"));
  EXPECT_EQ(cli.getStringList("input"), (std::vector<std::string>{"a", "b"}));
}

TEST(Cli, NumbersMustParseWhole) {
  const std::vector<std::pair<std::vector<const char*>, std::string>> cases = {
      {{"--count", "3x"}, "--count expects an integer, got '3x'"},
      {{"--count", "abc"}, "--count expects an integer, got 'abc'"},
      {{"--count", ""}, "--count expects an integer, got ''"},
      {{"--count", "1.5"}, "--count expects an integer, got '1.5'"},
      {{"--count", "99999999999999999999"}, "--count: 99999999999999999999 is out of range"},
      {{"--ratio", "2.5zz"}, "--ratio expects a number, got '2.5zz'"},
      {{"--ratio", "1e999"}, "--ratio: 1e999 is out of range"},
  };
  for (const auto& [args, message] : cases) {
    auto cli = everyKind();
    EXPECT_EQ(parseError(cli, args), message);
  }
  auto cli = everyKind();
  ASSERT_EQ(parseError(cli, {"--count", "-7", "--ratio", "1e-3"}), "");
  EXPECT_EQ(cli.getInt("count"), -7);
  EXPECT_EQ(cli.getDouble("ratio"), 1e-3);
}

TEST(Cli, GetIntInHoldsTheValueToItsRange) {
  const auto read = [](const char* value, int min, int max) {
    auto cli = everyKind();
    EXPECT_EQ(parseError(cli, {"--count", value}), "");
    return cli.getIntIn<int>("count", min, max);
  };
  EXPECT_EQ(read("5", 0, 9), 5);
  EXPECT_EQ(read("-1", -1, 9), -1);
  const auto refusal = [&](const char* value, int min, int max) {
    try {
      (void)read(value, min, max);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(refusal("-1", 0, 9), "--count must not be negative (got -1)");
  EXPECT_EQ(refusal("0", 1, 9), "--count must be positive (got 0)");
  EXPECT_EQ(refusal("-2", -1, 9), "--count must be at least -1 (got -2)");
  EXPECT_EQ(refusal("10", 0, 9), "--count must be at most 9 (got 10)");
  auto cli = everyKind();
  ASSERT_EQ(parseError(cli, {"--count", "4294967298"}), "");
  EXPECT_THROW((void)cli.getIntIn<int>("count", 0), std::runtime_error) << "no wrap to 2";
  EXPECT_EQ(cli.getIntIn<std::uint64_t>("count", 0), 4294967298u);
}

TEST(Table, RendersAlignedColumns) {
  ec::Table table({"a", "name"});
  table.row().cell("1").cell("xx");
  table.row().cell("22").cell("y");
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a  | name |"), std::string::npos);
  EXPECT_NE(out.find("| 22 | y    |"), std::string::npos);
}

TEST(Table, CsvEscapesCommas) {
  ec::Table table({"x"});
  table.row().cell("a,b");
  std::ostringstream os;
  table.printCsv(os);
  EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
}

TEST(Table, PercentFormatting) {
  ec::Table table({"p"});
  table.row().cellPercent(0.1234);
  std::ostringstream os;
  table.printCsv(os);
  EXPECT_NE(os.str().find("12.3%"), std::string::npos);
}

TEST(Table, TooManyCellsThrows) {
  ec::Table table({"only"});
  table.row().cell("1");
  EXPECT_THROW(table.cell("2"), std::logic_error);
}

TEST(Table, CellBeforeRowThrows) {
  ec::Table table({"x"});
  EXPECT_THROW(table.cell("oops"), std::logic_error);
}

TEST(FormatBytes, HumanReadableUnits) {
  EXPECT_EQ(ec::formatBytes(80), "80B");
  EXPECT_EQ(ec::formatBytes(4 * 1024), "4.0KB");
  EXPECT_EQ(ec::formatBytes(3ull * 1024 * 1024 + 512 * 1024), "3.5MB");
  EXPECT_EQ(ec::formatBytes(2ull * 1024 * 1024 * 1024), "2.0GB");
}
