// Per-test scratch directories for the storage suites.
//
// gtest_discover_tests runs every TEST as its own process and `ctest -j`
// runs those processes in parallel, so a directory shared between tests
// (and removed by one test's TearDown) races with its neighbours.  Each test
// instead gets <TempDir>/lfst-<pid>-<suite>-<test> and removes only that.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace lfst::storage::testing {

/// The calling test's private scratch path (not created).
inline std::string test_scratch_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string leaf = "lfst-" + std::to_string(::getpid()) + "-" +
                     info->test_suite_name() + "-" + info->name();
  std::replace(leaf.begin(), leaf.end(), '/', '_');  // parameterized names
  return (std::filesystem::path(::testing::TempDir()) / leaf).string();
}

}  // namespace lfst::storage::testing
