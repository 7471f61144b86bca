#include <gtest/gtest.h>

#include "util/config.hpp"

namespace vdep {
namespace {

Config parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(Config, ParsesKeyValuesAndPositionals) {
  Config cfg = parse({"requests=500", "seed=7", "verbose"});
  EXPECT_EQ(cfg.get_int("requests", 0), 500);
  EXPECT_EQ(cfg.get_int("seed", 0), 7);
  ASSERT_EQ(cfg.positional().size(), 1u);
  EXPECT_EQ(cfg.positional()[0], "verbose");
}

TEST(Config, FallbacksWhenMissing) {
  Config cfg = parse({});
  EXPECT_EQ(cfg.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(cfg.get_double("y", 2.5), 2.5);
  EXPECT_EQ(cfg.get_str("z", "abc"), "abc");
  EXPECT_TRUE(cfg.get_bool("b", true));
  EXPECT_FALSE(cfg.get("missing").has_value());
}

TEST(Config, DoublesAndBooleans) {
  Config cfg = parse({"rate=3.5", "on=true", "off=0"});
  EXPECT_DOUBLE_EQ(cfg.get_double("rate", 0), 3.5);
  EXPECT_TRUE(cfg.get_bool("on", false));
  EXPECT_FALSE(cfg.get_bool("off", true));
}

TEST(Config, DuplicateKeyThrows) {
  EXPECT_THROW(parse({"a=1", "a=2"}), std::invalid_argument);
}

TEST(Config, BadBooleanThrows) {
  Config cfg = parse({"b=maybe"});
  EXPECT_THROW((void)cfg.get_bool("b", false), std::invalid_argument);
}

TEST(Config, MalformedNumbersThrow) {
  Config cfg = parse({"clients=5x", "seed=0x2a", "n=abc", "rate=1.5ms", "empty="});
  EXPECT_THROW((void)cfg.get_int("clients", 0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_int("seed", 0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_int("empty", 0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_double("rate", 0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_double("n", 0), std::invalid_argument);
  // The error names the offending key.
  for (const char* key : {"clients", "n", "rate"}) {
    try {
      (void)cfg.get_double(key, 0);
      ADD_FAILURE() << key << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
}

TEST(Config, ValueWithEqualsSign) {
  Config cfg = parse({"expr=a=b"});
  EXPECT_EQ(cfg.get_str("expr", ""), "a=b");
}

TEST(Config, SetOverridesAndAdds) {
  Config cfg = parse({"a=1"});
  cfg.set("a", "2");
  cfg.set("b", "3");
  EXPECT_EQ(cfg.get_int("a", 0), 2);
  EXPECT_EQ(cfg.get_int("b", 0), 3);
}

}  // namespace
}  // namespace vdep
