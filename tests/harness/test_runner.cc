#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "base/error.hh"
#include "base/rng.hh"
#include "harness/runner.hh"
#include "harness/seed.hh"
#include "support/scratch_dir.hh"

namespace hawksim::harness {
namespace {

/**
 * Synthetic experiment: cheap, seed-dependent, and records metrics —
 * enough surface to notice any scheduling-dependent result routing.
 */
void
registerSynthetic(Registry &reg)
{
    reg.add("synthetic", "thread-pool determinism probe")
        .axis("alpha", {"a", "b", "c", "d"})
        .axis("beta", {"x", "y", "z"})
        .run([](const RunContext &ctx) {
            Rng rng(ctx.seed());
            RunOutput out;
            double acc = 0;
            for (int i = 0; i < 1000; i++)
                acc += rng.uniform();
            out.scalar("acc", acc);
            out.scalar("alpha_len",
                       static_cast<double>(ctx.param("alpha").size()));
            const auto sid = out.metrics.seriesId("probe");
            for (int i = 0; i < 10; i++)
                out.metrics.record(sid, i * 1000, rng.uniform());
            out.simTimeNs = 10'000;
            return out;
        });
}

Report
runWith(unsigned jobs, const std::string &filter = "")
{
    Registry reg;
    registerSynthetic(reg);
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.masterSeed = 42;
    opts.filter = filter;
    return Runner(opts).run(reg);
}

TEST(Runner, SerialAndParallelReportsAreByteIdentical)
{
    const Report serial = runWith(1);
    const Report parallel = runWith(8);
    ASSERT_EQ(serial.runs.size(), 12u);
    ASSERT_EQ(parallel.runs.size(), 12u);
    EXPECT_EQ(serial.toJson().dump(), parallel.toJson().dump());
}

TEST(Runner, ResultsArriveInExpansionOrder)
{
    const Report r = runWith(8);
    for (std::size_t i = 0; i < r.runs.size(); i++)
        EXPECT_EQ(r.runs[i].point.index, i);
    // First axis slowest: runs 0..2 are alpha=a with beta=x,y,z.
    EXPECT_EQ(r.runs[0].point.param("beta"), "x");
    EXPECT_EQ(r.runs[1].point.param("beta"), "y");
    EXPECT_EQ(r.runs[2].point.param("alpha"), "a");
    EXPECT_EQ(r.runs[3].point.param("alpha"), "b");
}

TEST(Runner, SeedsMatchDerivationAndFilterKeepsThem)
{
    const Report all = runWith(2);
    for (const auto &rec : all.runs) {
        EXPECT_EQ(rec.seed, deriveSeed(42, "synthetic",
                                       rec.point.index));
    }
    // Filtering away points must not re-seed the survivors.
    const Report filtered = runWith(2, "alpha=c");
    ASSERT_EQ(filtered.runs.size(), 3u);
    for (const auto &rec : filtered.runs) {
        EXPECT_EQ(rec.point.param("alpha"), "c");
        EXPECT_EQ(rec.seed, deriveSeed(42, "synthetic",
                                       rec.point.index));
    }
}

TEST(Runner, MasterSeedChangesResults)
{
    Registry reg;
    registerSynthetic(reg);
    RunnerOptions opts;
    opts.jobs = 1;
    opts.masterSeed = 43;
    const Report r43 = Runner(opts).run(reg);
    const Report r42 = runWith(1);
    EXPECT_NE(r42.toJson().dump(), r43.toJson().dump());
    // But the profile schema carries wall clock, which never belongs
    // in the canonical report.
    EXPECT_EQ(r42.toJson().dump().find("wall_ms"), std::string::npos);
}

/** All keys of a JSON object, comma-joined in emission order. */
std::string
keysOf(const Json &obj)
{
    std::string out;
    for (const auto &[key, value] : obj.members()) {
        (void)value;
        if (!out.empty())
            out += ",";
        out += key;
    }
    return out;
}

TEST(Runner, ReportSchemaFieldSignatureIsPinned)
{
    // The exact field set of hawksim-report/v1. If this test fails,
    // you changed the report schema: bump kReportSchema and update
    // the signature here instead of silently republishing v1.
    ASSERT_STREQ(kReportSchema, "hawksim-report/v1");
    const Report r = runWith(1, "alpha=a beta=x");
    const Json j = r.toJson();
    EXPECT_EQ(keysOf(j), "schema,master_seed,run_count,runs");
    ASSERT_GT(j["runs"].size(), 0u);
    const Json &run = j["runs"].at(0);
    EXPECT_EQ(keysOf(run),
              "experiment,index,params,seed,sim_time_ns,scalars,"
              "cost,metrics");
    EXPECT_EQ(keysOf(run["cost"]),
              "total_ns,subsys_ns,counters,fault_latency_ns");
    EXPECT_EQ(keysOf(run["cost"]["subsys_ns"]),
              "fault_path,promote_daemon,zero_daemon,bloat_daemon,"
              "compaction,reclaim,tlb_walk");
    EXPECT_EQ(keysOf(run["cost"]["counters"]),
              "faults,huge_faults,cow_faults,swap_ins,promotions,"
              "splits,migrated_pages,zeroed_pages,deduped_pages,"
              "reclaimed_pages,resv_broken");
    EXPECT_EQ(keysOf(run["cost"]["fault_latency_ns"]),
              "count,min,max,mean,p50,p95,p99");
    EXPECT_EQ(keysOf(run["metrics"]), "events,series");
    ASSERT_GT(run["metrics"]["series"].members().size(), 0u);
    for (const auto &[name, series] :
         run["metrics"]["series"].members()) {
        EXPECT_EQ(keysOf(series), "t,v") << name;
    }
}

TEST(Runner, ReportJsonSchema)
{
    const Report r = runWith(4, "alpha=a beta=x");
    ASSERT_EQ(r.runs.size(), 1u);
    const Json j = r.toJson();
    EXPECT_EQ(j["schema"].asString(), "hawksim-report/v1");
    EXPECT_STREQ(kReportSchema, "hawksim-report/v1");
    EXPECT_EQ(j["master_seed"].asUint(), 42u);
    EXPECT_EQ(j["run_count"].asInt(), 1);
    const Json &run = j["runs"].at(0);
    EXPECT_EQ(run["experiment"].asString(), "synthetic");
    EXPECT_EQ(run["params"]["alpha"].asString(), "a");
    EXPECT_EQ(run["sim_time_ns"].asInt(), 10'000);
    EXPECT_TRUE(run["scalars"].contains("acc"));
    EXPECT_EQ(run["metrics"]["series"]["probe"]["t"].size(), 10u);
}

TEST(Eta, ProjectsFromFreshPointsOnly)
{
    // 5 fresh of 10 done in 1000 ms: 5 remain at 5 points/s.
    ASSERT_TRUE(etaMs(5, 5, 10, 1000.0));
    EXPECT_DOUBLE_EQ(*etaMs(5, 5, 10, 1000.0), 1000.0);
    // The same 5 fresh points beside 4 journal replays: the rate
    // still comes from the 5 alone, and 1 point remains.
    ASSERT_TRUE(etaMs(5, 9, 10, 1000.0));
    EXPECT_DOUBLE_EQ(*etaMs(5, 9, 10, 1000.0), 200.0);
}

TEST(Eta, JournalReplaysAloneGiveNone)
{
    // A resume that replayed 9 of 10 points in a millisecond must
    // not predict the last point lands in ~0.1 ms.
    EXPECT_FALSE(etaMs(0, 9, 10, 1.0));
    // One executed point unlocks the projection...
    EXPECT_TRUE(etaMs(1, 9, 10, 2000.0));
    // ...until nothing remains.
    EXPECT_FALSE(etaMs(1, 10, 10, 2000.0));
}

TEST(Eta, NoneAtTimeZero)
{
    EXPECT_FALSE(etaMs(0, 0, 10, 0.0));
    EXPECT_FALSE(etaMs(1, 1, 10, 0.0));
}

/**
 * Four instant points; each whose k is at least @p failFrom throws
 * an I/O error, so it fails and stays out of the journal.
 */
void
registerFlaky(Registry &reg, const unsigned &failFrom)
{
    reg.add("flaky", "progress-line probe")
        .axis("k", {"0", "1", "2", "3"})
        .run([&failFrom](const RunContext &ctx) {
            if (std::stoul(ctx.param("k")) >= failFrom)
                throw RecoverableError(RecoverableError::Kind::kIo,
                                       "injected");
            RunOutput out;
            out.simTimeNs = 1000;
            return out;
        });
}

/** The runner's per-point stderr lines for one serial campaign. */
std::vector<std::string>
progressLines(const Registry &reg, RunnerOptions opts, Report *report)
{
    opts.jobs = 1;
    opts.verbose = true;
    testing::internal::CaptureStderr();
    *report = Runner(opts).run(reg);
    std::istringstream is(testing::internal::GetCapturedStderr());
    std::vector<std::string> lines;
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

bool
hasEta(const std::string &line)
{
    return line.find(", ETA ") != std::string::npos;
}

TEST(ProgressLine, EtaComesFromFreshPointsOnly)
{
    const test::ScratchDir dir;
    unsigned failFrom = 2;
    Registry reg;
    registerFlaky(reg, failFrom);
    RunnerOptions opts;
    opts.journalPath = (dir / "campaign.journal").string();
    Report report;

    // Every point executes: all but the last line (nothing remains)
    // project an ETA, failed points included. k=2 and k=3 fail and
    // stay out of the journal.
    std::vector<std::string> lines = progressLines(reg, opts, &report);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_TRUE(hasEta(lines[0])) << lines[0];
    EXPECT_TRUE(hasEta(lines[1])) << lines[1];
    EXPECT_TRUE(hasEta(lines[2])) << lines[2];
    EXPECT_NE(lines[2].find("failed, 1 attempts"), std::string::npos)
        << lines[2];
    EXPECT_FALSE(hasEta(lines[3])) << lines[3];

    // Resume: k=0 and k=1 replay with no ETA; k=2 is the first fresh
    // point and projects the rest from itself alone.
    failFrom = 4;
    opts.resumeCampaign = true;
    lines = progressLines(reg, opts, &report);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[0], "[1/4] flaky k=0 (journal)");
    EXPECT_EQ(lines[1], "[2/4] flaky k=1 (journal)");
    EXPECT_TRUE(hasEta(lines[2])) << lines[2];
    EXPECT_FALSE(hasEta(lines[3])) << lines[3];
    EXPECT_FALSE(report.degraded());
}

TEST(ProgressLine, AllReplayCampaignPrintsNoEta)
{
    const test::ScratchDir dir;
    const unsigned never = 4;
    Registry reg;
    registerFlaky(reg, never);
    RunnerOptions opts;
    opts.journalPath = (dir / "campaign.journal").string();
    Report want;
    progressLines(reg, opts, &want);

    // Every point replays from the journal: no fresh point ever
    // executes, so no line projects an ETA, and the report matches.
    opts.resumeCampaign = true;
    Report got;
    const std::vector<std::string> lines =
        progressLines(reg, opts, &got);
    ASSERT_EQ(lines.size(), 4u);
    for (const std::string &line : lines) {
        EXPECT_NE(line.find("(journal)"), std::string::npos) << line;
        EXPECT_FALSE(hasEta(line)) << line;
    }
    EXPECT_EQ(got.toJson().dump(), want.toJson().dump());
}

} // namespace
} // namespace hawksim::harness
