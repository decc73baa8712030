/** @file CLI front-end tests: output-path handling and flag errors. */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/json.hh"
#include "harness/runner.hh"
#include "support/scratch_dir.hh"

namespace hawksim::harness {
namespace {

namespace fs = std::filesystem;

void
registerTiny(Registry &reg)
{
    reg.add("tiny", "cli probe").axis("k", {"1", "2"}).run(
        [](const RunContext &ctx) {
            RunOutput out;
            out.scalar("k", std::stod(ctx.param("k")));
            out.simTimeNs = 1000;
            return out;
        });
}

/** Run the CLI with exactly @p args after the program name. */
int
cliExact(std::vector<std::string> args)
{
    args.insert(args.begin(), "hawksim_bench");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    Registry reg;
    registerTiny(reg);
    return runCli(static_cast<int>(argv.size()), argv.data(), reg);
}

/** Run the CLI, quietly on one worker, with @p args. */
int
cli(std::vector<std::string> args)
{
    args.insert(args.end(), {"--quiet", "--jobs", "1"});
    return cliExact(std::move(args));
}

/** What one CLI invocation printed, and its exit code. */
struct Captured
{
    int rc = 0;
    std::string out, err;
};

Captured
captureCli(std::vector<std::string> args)
{
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    Captured c;
    c.rc = cliExact(std::move(args));
    c.err = testing::internal::GetCapturedStderr();
    c.out = testing::internal::GetCapturedStdout();
    return c;
}

/** Flags the CLI no longer has, each with a plausible value. */
std::vector<std::vector<std::string>>
removedFlags()
{
    return {{"--progress"},
            {"--telemetry-out", "hb.jsonl"},
            {"--telemetry-port", "0"},
            {"--telemetry-interval", "1"},
            {"--pretty"},
            {"--fault-rate", "0.1"},
            {"--analyze"}};
}

std::string
slurp(const fs::path &p)
{
    std::ifstream is(p, std::ios::binary);
    std::string s{std::istreambuf_iterator<char>(is),
                  std::istreambuf_iterator<char>()};
    return s;
}

class CliTest : public ::testing::Test
{
  protected:
    test::ScratchDir scratch_;
};

TEST_F(CliTest, CreatesMissingParentDirsForAllOutputs)
{
    const fs::path out = scratch_ / "a" / "b" / "report.json";
    const fs::path prof = scratch_ / "c" / "profile.json";
    const fs::path trace = scratch_ / "d" / "e" / "trace.json";
    ASSERT_EQ(cli({"--out", out.string(), "--profile", prof.string(),
                   "--trace", trace.string()}),
              0);
    for (const fs::path &p : {out, prof, trace}) {
        ASSERT_TRUE(fs::exists(p)) << p;
        std::string err;
        Json::parse(slurp(p), &err);
        EXPECT_TRUE(err.empty()) << p << ": " << err;
    }
}

TEST_F(CliTest, BareFilenameOutNeedsNoParentDir)
{
    // Regression guard: a path with no directory component must not
    // trip the parent-creation logic.
    const fs::path cwd = fs::current_path();
    fs::current_path(scratch_.path());
    const int rc = cli({"--out", "report.json"});
    fs::current_path(cwd);
    EXPECT_EQ(rc, 0);
    EXPECT_TRUE(fs::exists(scratch_ / "report.json"));
}

TEST_F(CliTest, RejectsUnknownTraceFilterCategory)
{
    const fs::path trace = scratch_ / "trace.json";
    EXPECT_EQ(cli({"--trace", trace.string(), "--trace-filter",
                   "bogus"}),
              2);
    EXPECT_FALSE(fs::exists(trace));
}

TEST_F(CliTest, EveryRejectedArgumentPrintsOneErrorLine)
{
    const fs::path negative = scratch_ / "negative.script";
    const fs::path suffixed = scratch_ / "suffixed.script";
    std::ofstream(negative) << "buddy-alloc -1\n";
    std::ofstream(suffixed) << "buddy-alloc 2x\n";
    std::vector<std::vector<std::string>> cases = {
        {"--jobs", "x"},
        {"--trace-filter", "bogus"},
        {"--checkpoint-every", "x"},
        {"--replay-to", "0"},
        {"--point-timeout", "nan"},
        {"--tolerance", "-1"},
        {"--fault-script", (scratch_ / "no-such-script").string()},
        {"--fault-script", negative.string()},
        {"--fault-script", suffixed.string()},
        {"--out"}, // missing value
        {"--diff", "a"},
        {"--no-such-flag"},
    };
    for (auto &flag : removedFlags())
        cases.push_back(flag);
    for (const auto &args : cases) {
        const Captured c = captureCli(args);
        EXPECT_EQ(c.rc, 2) << args[0];
        EXPECT_EQ(c.err.rfind("error: ", 0), 0u)
            << args[0] << ": " << c.err;
        EXPECT_EQ(std::count(c.err.begin(), c.err.end(), '\n'), 1)
            << args[0] << ": " << c.err;
    }
    // An unknown flag also prints the usage, on stdout.
    const Captured c = captureCli({"--no-such-flag"});
    EXPECT_EQ(c.out.rfind("usage: ", 0), 0u) << c.out;
}

TEST_F(CliTest, HelpNamesNoRemovedFlag)
{
    const Captured c = captureCli({"--help"});
    EXPECT_EQ(c.rc, 0);
    EXPECT_TRUE(c.err.empty()) << c.err;
    EXPECT_NE(c.out.find("--diff A B"), std::string::npos);
    for (const auto &flag : removedFlags())
        EXPECT_EQ(c.out.find(flag[0]), std::string::npos) << flag[0];
}

TEST_F(CliTest, AnalyzeDiffGatesOnRegression)
{
    const fs::path a = scratch_ / "a.json";
    const fs::path b = scratch_ / "b.json";
    const fs::path sum = scratch_ / "sum.json";
    // Same seed twice: byte-identical reports, clean diff.
    ASSERT_EQ(cli({"--out", a.string(), "--seed", "7"}), 0);
    ASSERT_EQ(cli({"--out", b.string(), "--seed", "7"}), 0);
    EXPECT_EQ(cli({"--diff", a.string(), b.string(), "--summary-out",
                   sum.string()}),
              0);
    std::string err;
    Json s = Json::parse(slurp(sum), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(s["clean"].asBool());
    EXPECT_GT(s["fields_compared"].asInt(), 0);

    // Different seed: a pinned deterministic field moved -> exit 3
    // with a machine-readable summary naming it.
    const fs::path c = scratch_ / "c.json";
    ASSERT_EQ(cli({"--out", c.string(), "--seed", "8"}), 0);
    EXPECT_EQ(cli({"--diff", a.string(), c.string(), "--summary-out",
                   sum.string()}),
              3);
    s = Json::parse(slurp(sum), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_FALSE(s["clean"].asBool());
    EXPECT_GT(s["regressions"].asInt(), 0);
    EXPECT_GT(s["regression_entries"].size(), 0u);
}

TEST_F(CliTest, AnalyzeUsageErrors)
{
    // Bad tolerance.
    EXPECT_EQ(cli({"--diff", "a", "b", "--tolerance", "nope"}), 2);
    // Missing input file is an environment failure, not usage.
    EXPECT_EQ(cli({"--diff", (scratch_ / "no.json").string(),
                   (scratch_ / "no2.json").string()}),
              1);
}

TEST_F(CliTest, TraceFilterLimitsCategories)
{
    const fs::path trace = scratch_ / "trace.json";
    const fs::path out = scratch_ / "report.json";
    ASSERT_EQ(cli({"--out", out.string(), "--trace", trace.string(),
                   "--trace-filter", "proc"}),
              0);
    std::string err;
    const Json j = Json::parse(slurp(trace), &err);
    ASSERT_TRUE(err.empty()) << err;
    for (const Json &e : j["traceEvents"].items()) {
        if (e["ph"].asString() == "M" || e["tid"].asInt() == 0)
            continue; // metadata and run spans are category-less
        EXPECT_EQ(e["cat"].asString(), "proc");
    }
}

} // namespace
} // namespace hawksim::harness
