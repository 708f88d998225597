/// Tests for the strict command-line parser shared by every tool.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.h"

namespace icollect::cli {
namespace {

std::vector<std::string_view> args(std::initializer_list<const char*> list) {
  return {list.begin(), list.end()};
}

/// The message of the UsageError `flags` throws on `tokens` ("" if none).
std::string error_of(const Flags& flags,
                     std::initializer_list<const char*> tokens) {
  try {
    flags.parse(args(tokens));
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(CliFlags, BothSpellingsAndBareKeys) {
  std::size_t peers = 0;
  double rate = 0.0;
  std::string out;
  Flags flags;
  flags.add("--peers", "N", "peers", peers)
      .add("--out", "FILE", "output", out)
      .add("lambda", "X", "rate", rate);

  flags.parse(args({"--peers", "12", "--out=a.json", "lambda=2.5"}));
  EXPECT_EQ(peers, 12u);
  EXPECT_EQ(out, "a.json");
  EXPECT_DOUBLE_EQ(rate, 2.5);

  flags.parse(args({"--peers=7", "--out", "b.json", "lambda=1e3"}));
  EXPECT_EQ(peers, 7u);
  EXPECT_EQ(out, "b.json");
  EXPECT_DOUBLE_EQ(rate, 1000.0);
}

TEST(CliFlags, LaterTokensWin) {
  int n = 0;
  Flags flags;
  flags.add("--n", "N", "n", n);
  flags.parse(args({"--n", "1", "--n=-3"}));
  EXPECT_EQ(n, -3);
}

TEST(CliFlags, RejectsTrailingGarbage) {
  std::size_t peers = 4;
  double rate = 1.0;
  Flags flags;
  flags.add("--peers", "N", "peers", peers).add("lambda", "X", "rate", rate);
  for (const char* bad : {"8x", "abc", "", " 8", "+8", "0x10"}) {
    const std::string what = error_of(flags, {"--peers", bad});
    EXPECT_NE(what.find("--peers"), std::string::npos) << bad << ": " << what;
  }
  EXPECT_NE(error_of(flags, {"lambda=1.5.2"}).find("lambda"),
            std::string::npos);
  EXPECT_NE(error_of(flags, {"lambda=fast"}).find("fast"),
            std::string::npos);
  EXPECT_EQ(peers, 4u);  // a rejected value leaves the target alone
  EXPECT_DOUBLE_EQ(rate, 1.0);
}

TEST(CliFlags, RejectsNegativeIntoUnsigned) {
  std::size_t peers = 4;
  Flags flags;
  flags.add("--peers", "N", "peers", peers);
  EXPECT_NE(error_of(flags, {"--peers", "-1"}), "");
  EXPECT_NE(error_of(flags, {"--peers=-1"}), "");
  EXPECT_EQ(peers, 4u);
}

TEST(CliFlags, RejectsUint32Overflow) {
  std::uint32_t id = 0;
  Flags flags;
  flags.add("--node-id", "N", "id", id);
  const std::string what = error_of(flags, {"--node-id", "5000000000"});
  EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
  flags.parse(args({"--node-id", "4294967295"}));
  EXPECT_EQ(id, 4294967295u);
}

TEST(CliFlags, MissingValue) {
  std::size_t peers = 0;
  Flags flags;
  flags.add("--peers", "N", "peers", peers);
  EXPECT_NE(error_of(flags, {"--peers"}).find("missing value for --peers"),
            std::string::npos);
}

TEST(CliFlags, UnknownFlagAndKey) {
  std::size_t peers = 0;
  Flags flags;
  flags.add("--peers", "N", "peers", peers).add("s", "N", "size", peers);
  EXPECT_NE(error_of(flags, {"--bogus"}).find("unknown flag '--bogus'"),
            std::string::npos);
  EXPECT_NE(error_of(flags, {"--bogus=1"}).find("'--bogus'"),
            std::string::npos);
  EXPECT_NE(error_of(flags, {"peesr=3"}).find("unknown key 'peesr'"),
            std::string::npos);
  // A key is only a key in the key=value form, and a flag needs dashes.
  EXPECT_NE(error_of(flags, {"s"}).find("key=value"), std::string::npos);
  EXPECT_NE(error_of(flags, {"=5"}).find("key=value"), std::string::npos);
  EXPECT_NE(error_of(flags, {"--s=4"}), "");
  EXPECT_NE(error_of(flags, {"peers=4"}), "");
}

TEST(CliFlags, RepeatableFlag) {
  std::vector<std::string> connect;
  Flags flags;
  flags.add("--connect", "ADDR", "dial", connect);
  flags.parse(args({"--connect", "a", "--connect=b", "--connect", "c"}));
  EXPECT_EQ(connect, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CliFlags, ChoiceList) {
  enum class Role { kUnset, kPeer, kServer };
  Role role = Role::kUnset;
  Flags flags;
  flags.choice("--role", "role", role,
               {{"peer", Role::kPeer}, {"server", Role::kServer}});
  flags.parse(args({"--role", "server"}));
  EXPECT_EQ(role, Role::kServer);
  flags.parse(args({"--role=peer"}));
  EXPECT_EQ(role, Role::kPeer);
  const std::string what = error_of(flags, {"--role", "superserver"});
  EXPECT_NE(what.find("peer|server"), std::string::npos) << what;
  EXPECT_EQ(role, Role::kPeer);
}

TEST(CliFlags, CustomParser) {
  std::optional<int> even;
  Flags flags;
  flags.parsed("--even", "N", "an even number", even,
               [](std::string_view text) -> std::optional<int> {
                 const auto v = parse_number<int>(text);
                 if (!v || *v % 2 != 0) return std::nullopt;
                 return v;
               });
  flags.parse(args({}));
  EXPECT_FALSE(even.has_value());  // an optional target records presence
  flags.parse(args({"--even", "4"}));
  EXPECT_EQ(even, 4);
  EXPECT_NE(error_of(flags, {"--even", "3"}), "");
}

TEST(CliFlags, SwitchesAndOptionalValues) {
  bool quick = false;
  bool profile = false;
  std::optional<std::string> trace;
  Flags flags;
  flags.add("--quick", "", "quick", quick)
      .add("--profile", "0|1", "profile", profile)
      .optional_value("--trace-out", "FILE", "trace", trace);
  flags.parse(args({"--quick", "--profile=1"}));
  EXPECT_TRUE(quick);
  EXPECT_TRUE(profile);
  flags.parse(args({"--quick=0", "--profile=0"}));
  EXPECT_FALSE(quick);
  EXPECT_FALSE(profile);
  EXPECT_NE(error_of(flags, {"--profile=2"}), "");

  flags.parse(args({"--trace-out"}));
  EXPECT_EQ(trace, "");
  flags.parse(args({"--trace-out=t.jsonl"}));
  EXPECT_EQ(trace, "t.jsonl");
  // The value of an optional-value flag is never the next token.
  EXPECT_NE(error_of(flags, {"--trace-out", "t.jsonl"}), "");
}

TEST(CliFlags, HostPortIsStrict) {
  const auto ok = split_host_port("127.0.0.1:9100");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->host, "127.0.0.1");
  EXPECT_EQ(ok->port, 9100);
  EXPECT_TRUE(split_host_port(":65535").has_value());
  for (const char* bad : {"nonsense", "127.0.0.1:", "127.0.0.1:0",
                          "127.0.0.1:1x", "127.0.0.1:65536",
                          "127.0.0.1:-1", "127.0.0.1: 80"}) {
    EXPECT_FALSE(split_host_port(bad).has_value()) << bad;
  }
  HostPort target;
  Flags flags;
  flags.add("--target", "HOST:PORT", "target", target);
  EXPECT_NE(error_of(flags, {"--target", "127.0.0.1:1x"}), "");
  EXPECT_EQ(target.port, 0);
}

TEST(CliFlags, HelpNamesEveryFlag) {
  std::size_t n = 0;
  double x = 0.0;
  bool on = false;
  std::optional<std::string> file;
  std::vector<std::string> many;
  int mode = 0;
  Flags flags{"[things]"};
  flags.section("group:")
      .add("--count", "N", "a count", n)
      .add("rate", "X", "a rate\nover two lines", x)
      .add("--on", "", "a switch", on)
      .optional_value("--file", "FILE", "a file", file)
      .add("--many", "M", "repeatable", many)
      .choice("--mode", "a mode", mode, {{"a", 1}, {"b", 2}})
      .note("trailing note\n");
  const std::string help = flags.help();
  for (const char* spelling :
       {"usage: ? [things]\n", "group:\n", "  --count N ", "  rate=X ",
        "  --on ", "  --file[=FILE] ", "  --many M ", "  --mode a|b ",
        "a count", "over two lines", "trailing note"}) {
    EXPECT_NE(help.find(spelling), std::string::npos) << spelling;
  }
}

TEST(CliFlags, UsageErrorsExitTwo) {
  std::size_t peers = 0;
  Flags flags;
  flags.add("--peers", "N", "live peers", peers);
  const char* argv[] = {"tool", "--peers", "8x"};
  EXPECT_EXIT(flags.parse_or_exit(3, argv), ::testing::ExitedWithCode(2),
              "tool: bad value '8x' for --peers");
  const char* help[] = {"tool", "--help"};
  EXPECT_EXIT(flags.parse_or_exit(2, help), ::testing::ExitedWithCode(0),
              "");
}

}  // namespace
}  // namespace icollect::cli
