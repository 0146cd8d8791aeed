// Helpers shared by the test suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace ompfuzz {

namespace test_detail {

/// Removes, when a test ends, every directory temp_dir() made during it.
class TempDirCleaner final : public ::testing::EmptyTestEventListener {
 public:
  std::vector<std::string> dirs;

  void OnTestEnd(const ::testing::TestInfo& /*info*/) override {
    for (const auto& dir : dirs) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
    dirs.clear();
  }
};

inline TempDirCleaner& temp_dir_cleaner() {
  static TempDirCleaner* const cleaner = [] {
    auto* listener = new TempDirCleaner;  // gtest owns its listeners
    ::testing::UnitTest::GetInstance()->listeners().Append(listener);
    return listener;
  }();
  return *cleaner;
}

}  // namespace test_detail

/// A new, empty directory `ompfuzz_<TestSuite>_XXXXXX` under gtest's
/// TempDir(), made by mkdtemp, so it never held another run's files. It is
/// removed with its contents when the current test ends. A child-mode
/// helper re-exec'd by a test takes its paths from that parent test instead.
inline std::string temp_dir() {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string suite = test != nullptr ? test->test_suite_name() : "test";
  std::replace(suite.begin(), suite.end(), '/', '_');  // Seeds/InterpVsBinary
  std::string path = (std::filesystem::path(::testing::TempDir()) /
                      ("ompfuzz_" + suite + "_XXXXXX"))
                         .string();
  if (mkdtemp(path.data()) == nullptr) {
    throw std::system_error(errno, std::generic_category(), "mkdtemp " + path);
  }
  test_detail::temp_dir_cleaner().dirs.push_back(path);
  return path;
}

}  // namespace ompfuzz
