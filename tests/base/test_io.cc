/**
 * @file
 * Atomic durable I/O tests: replace-or-nothing semantics, parent
 * directory creation with real error reporting, durable appends,
 * and the injected torn-write / failed-rename chaos sites.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "base/error.hh"
#include "base/io.hh"
#include "fault/fault.hh"
#include "support/scratch_dir.hh"

namespace hawksim::base {
namespace {

namespace fs = std::filesystem;

class IoTest : public ::testing::Test
{
  protected:
    std::string p(const std::string &name) { return (dir_ / name).string(); }

    test::ScratchDir dir_;
};

TEST_F(IoTest, AtomicWriteRoundTripsAndCreatesParents)
{
    const std::string path = p("a/b/c.bin");
    const std::string payload("hello\0world", 11); // NUL-safe
    atomicWriteFile(path, payload, nullptr);
    EXPECT_EQ(readFile(path), payload);
    // No temp file left behind.
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(IoTest, AtomicWriteReplacesExistingContent)
{
    const std::string path = p("f.bin");
    atomicWriteFile(path, "old");
    atomicWriteFile(path, "new content");
    EXPECT_EQ(readFile(path), "new content");
}

TEST_F(IoTest, ReadFileThrowsIoWithCause)
{
    try {
        readFile(p("missing/nope.bin"));
        FAIL() << "expected RecoverableError";
    } catch (const RecoverableError &e) {
        EXPECT_EQ(e.kind(), RecoverableError::Kind::kIo);
        EXPECT_NE(std::string(e.what()).find("nope.bin"),
                  std::string::npos);
    }
}

TEST_F(IoTest, UnwritableParentReportsRealCause)
{
    // A regular file where a directory is needed: create_directories
    // fails, and unlike the old writeFileOrDie the error says so.
    atomicWriteFile(p("blocker"), "x");
    try {
        atomicWriteFile(p("blocker/child.bin"), "y");
        FAIL() << "expected RecoverableError";
    } catch (const RecoverableError &e) {
        EXPECT_EQ(e.kind(), RecoverableError::Kind::kIo);
    }
}

TEST_F(IoTest, AppendDurableAccumulatesRecords)
{
    const std::string path = p("log.bin");
    appendFileDurable(path, "one");
    appendFileDurable(path, "two");
    EXPECT_EQ(readFile(path), "onetwo");
}

TEST_F(IoTest, TruncateFileCutsTail)
{
    const std::string path = p("log.bin");
    appendFileDurable(path, "0123456789");
    truncateFile(path, 4);
    EXPECT_EQ(readFile(path), "0123");
    // Truncating a missing file creates it empty.
    truncateFile(p("fresh.bin"), 0);
    EXPECT_EQ(readFile(p("fresh.bin")), "");
}

TEST_F(IoTest, InjectedShortWriteLandsTornButReportsSuccess)
{
    fault::FaultConfig cfg;
    cfg.script.emplace_back(fault::Site::kSnapShortWrite, 1);
    fault::FaultInjector fi(7, cfg);

    const std::string path = p("snap.bin");
    const std::string payload(64, 'x');
    atomicWriteFile(path, payload, &fi); // no throw: silent tear
    EXPECT_EQ(readFile(path).size(), payload.size() / 2);
    EXPECT_EQ(fi.degradation().tornWrites, 1u);

    // Occurrence 2 is not scripted: the next write is whole again.
    atomicWriteFile(path, payload, &fi);
    EXPECT_EQ(readFile(path).size(), payload.size());
}

TEST_F(IoTest, InjectedRenameFailureKeepsOldBytesAndThrows)
{
    fault::FaultConfig cfg;
    cfg.script.emplace_back(fault::Site::kSnapRename, 1);
    fault::FaultInjector fi(7, cfg);

    const std::string path = p("snap.bin");
    atomicWriteFile(path, "old bytes");
    try {
        atomicWriteFile(path, "new bytes", &fi);
        FAIL() << "expected RecoverableError";
    } catch (const RecoverableError &e) {
        EXPECT_EQ(e.kind(), RecoverableError::Kind::kIo);
        EXPECT_NE(std::string(e.what()).find("snap-rename"),
                  std::string::npos);
    }
    // Replace-or-nothing: the failed write left the old content.
    EXPECT_EQ(readFile(path), "old bytes");
    EXPECT_EQ(fi.degradation().lostWrites, 1u);
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    // The occurrence counter advanced, so a retry succeeds.
    atomicWriteFile(path, "new bytes", &fi);
    EXPECT_EQ(readFile(path), "new bytes");
}

} // namespace
} // namespace hawksim::base
