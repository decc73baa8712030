/** @file CLI front-end tests: output-path handling and flag errors. */

#include <gtest/gtest.h>

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

/** Run the CLI with the given extra args inside a scratch dir. */
int
cli(std::vector<std::string> args)
{
    args.insert(args.begin(), "hawksim_bench");
    args.insert(args.end(), {"--quiet", "--jobs", "1"});
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    Registry reg;
    registerTiny(reg);
    return runCli(static_cast<int>(argv.size()), argv.data(), reg);
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

TEST_F(CliTest, TelemetryFlagsLeaveTheReportByteIdentical)
{
    const fs::path plain = scratch_ / "plain.json";
    const fs::path tele = scratch_ / "tele.json";
    const fs::path hb = scratch_ / "hb.jsonl";
    ASSERT_EQ(cli({"--out", plain.string()}), 0);
    ASSERT_EQ(cli({"--out", tele.string(), "--telemetry-out",
                   hb.string(), "--telemetry-interval", "0.01"}),
              0);
    EXPECT_EQ(slurp(plain), slurp(tele));
    // And the heartbeat JSONL landed.
    const std::string lines = slurp(hb);
    EXPECT_NE(lines.find("hawksim-telemetry/v1"),
              std::string::npos);
}

TEST_F(CliTest, RejectsBadTelemetryValues)
{
    EXPECT_EQ(cli({"--telemetry-port", "99999"}), 2);
    EXPECT_EQ(cli({"--telemetry-port", "abc"}), 2);
    EXPECT_EQ(cli({"--telemetry-interval", "0"}), 2);
    EXPECT_EQ(cli({"--telemetry-interval", "-1"}), 2);
}

TEST_F(CliTest, AnalyzeDiffGatesOnRegression)
{
    const fs::path a = scratch_ / "a.json";
    const fs::path b = scratch_ / "b.json";
    const fs::path sum = scratch_ / "sum.json";
    // Same seed twice: byte-identical reports, clean diff.
    ASSERT_EQ(cli({"--out", a.string(), "--seed", "7"}), 0);
    ASSERT_EQ(cli({"--out", b.string(), "--seed", "7"}), 0);
    EXPECT_EQ(cli({"--analyze", "--diff", a.string(), b.string(),
                   "--summary-out", sum.string()}),
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
    EXPECT_EQ(cli({"--analyze", "--diff", a.string(), c.string(),
                   "--summary-out", sum.string()}),
              3);
    s = Json::parse(slurp(sum), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_FALSE(s["clean"].asBool());
    EXPECT_GT(s["regressions"].asInt(), 0);
    EXPECT_GT(s["regression_entries"].size(), 0u);
}

TEST_F(CliTest, AnalyzeUsageErrors)
{
    // --analyze with nothing to do.
    EXPECT_EQ(cli({"--analyze"}), 2);
    // Bad tolerance.
    EXPECT_EQ(cli({"--analyze", "--diff", "a", "b", "--tolerance",
                   "nope"}),
              2);
    // Missing input file is an environment failure, not usage.
    EXPECT_EQ(cli({"--analyze", "--diff",
                   (scratch_ / "no.json").string(),
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
