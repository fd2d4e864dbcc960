// Benchmark environment parsing (bench/bench_common.hpp).  A malformed
// LFST_BENCH_* value must fail loudly, naming the variable, instead of
// silently becoming 0 ops or a thread count the EBR domain cannot hold.
//
// Every case only parses: no test here starts a thread from a parsed count.
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace lfst::bench {
namespace {

constexpr const char* kVar = "LFST_BENCH_CONFIG_TEST";

/// Sets kVar for one test and clears it afterwards.
class BenchConfig : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv(kVar); }
  static void set(const char* value) { ::setenv(kVar, value, 1); }

  /// The message of the std::invalid_argument `f` throws ("" if none).
  template <typename F>
  static std::string rejection(F f) {
    try {
      f();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  }
};

TEST_F(BenchConfig, UnsetOrEmptyFallsBack) {
  ::unsetenv(kVar);
  EXPECT_EQ(env_size(kVar, 7), 7u);
  EXPECT_EQ(env_threads(kVar, {1, 2}), (std::vector<int>{1, 2}));
  set("");
  EXPECT_EQ(env_size(kVar, 7), 7u);
  EXPECT_EQ(env_threads(kVar, {1, 2}), (std::vector<int>{1, 2}));
}

TEST_F(BenchConfig, WellFormedValuesParse) {
  set("200000");
  EXPECT_EQ(env_size(kVar, 7), 200000u);
  set("1,2,4");
  EXPECT_EQ(env_threads(kVar, {}), (std::vector<int>{1, 2, 4}));
  set("256");
  EXPECT_EQ(env_threads(kVar, {}), (std::vector<int>{256}));
}

TEST_F(BenchConfig, DefaultThreadSweepIsCappedAtTheCpuCount) {
  EXPECT_EQ(capped_threads(1), (std::vector<int>{1}));
  EXPECT_EQ(capped_threads(3), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(capped_threads(4), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(capped_threads(6), (std::vector<int>{1, 2, 4, 6}));
  EXPECT_EQ(capped_threads(64), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(bench_config{}.threads, capped_threads(allowed_cpus().size()));
}

TEST_F(BenchConfig, SizeRejectsMalformedOrNonPositive) {
  for (const char* bad : {"abc", "12abc", "0", "-5", " 5", "5 ", "1.5",
                          "99999999999999999999999"}) {
    set(bad);
    const std::string msg = rejection([] { env_size(kVar, 7); });
    EXPECT_NE(msg.find(kVar), std::string::npos)
        << "value \"" << bad << "\" was not rejected by name: " << msg;
  }
}

TEST_F(BenchConfig, ThreadsRejectMalformedOrOutOfRange) {
  for (const char* bad : {"abc", "4x", "0", "-1", "1,,2", "1,2,", ",1",
                          "1;2", "257", "1,4096"}) {
    set(bad);
    const std::string msg = rejection([] { env_threads(kVar, {1}); });
    EXPECT_NE(msg.find(kVar), std::string::npos)
        << "value \"" << bad << "\" was not rejected by name: " << msg;
  }
}

TEST_F(BenchConfig, SizeHonoursItsUpperBound) {
  set("10");
  EXPECT_EQ(env_size(kVar, 7, 10), 10u);
  set("11");
  EXPECT_NE(rejection([] { env_size(kVar, 7, 10); }).find(kVar),
            std::string::npos);
}

TEST_F(BenchConfig, FromEnvRejectsBadValues) {
  ::setenv("LFST_BENCH_OPS", "abc", 1);
  std::string msg = rejection([] { bench_config::from_env(); });
  ::unsetenv("LFST_BENCH_OPS");
  EXPECT_NE(msg.find("LFST_BENCH_OPS"), std::string::npos) << msg;
  // A trial count must fit bench_config::trials (an int).
  ::setenv("LFST_BENCH_TRIALS", "3000000000", 1);
  msg = rejection([] { bench_config::from_env(); });
  ::unsetenv("LFST_BENCH_TRIALS");
  EXPECT_NE(msg.find("LFST_BENCH_TRIALS"), std::string::npos) << msg;
}

}  // namespace
}  // namespace lfst::bench
