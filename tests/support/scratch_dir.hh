/**
 * @file
 * Per-test scratch directory.
 *
 * ctest runs every test in its own process, and with `-j` many of
 * them at once, so a fixed temp path is shared by whichever tests
 * happen to overlap. ScratchDir names the directory after the running
 * suite, test and pid instead, which no other process uses.
 */

#ifndef HAWKSIM_TESTS_SUPPORT_SCRATCH_DIR_HH
#define HAWKSIM_TESTS_SUPPORT_SCRATCH_DIR_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace hawksim::test {

/**
 * An empty directory `<tmp>/hawksim-<suite>.<test>-<pid>`, created on
 * construction and removed with everything under it on destruction.
 * Construct at most one per test, inside a running TEST or TEST_F.
 */
class ScratchDir
{
  public:
    ScratchDir()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = "hawksim-";
        name += info->test_suite_name();
        name += '.';
        name += info->name();
        name += '-';
        name += std::to_string(::getpid());
        path_ = std::filesystem::temp_directory_path() / name;
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::filesystem::path &path() const { return path_; }

    std::filesystem::path
    operator/(const std::string &name) const
    {
        return path_ / name;
    }

  private:
    std::filesystem::path path_;
};

} // namespace hawksim::test

#endif // HAWKSIM_TESTS_SUPPORT_SCRATCH_DIR_HH
