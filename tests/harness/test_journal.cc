/**
 * @file
 * Campaign journal tests: durable per-point records, torn-tail
 * tolerance, fingerprint guarding, and the headline crash-safety
 * property — a campaign killed mid-flight and resumed with
 * `--resume-campaign` produces a report byte-identical to an
 * uninterrupted run, at any worker count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "base/error.hh"
#include "base/io.hh"
#include "harness/experiment.hh"
#include "harness/journal.hh"
#include "harness/runner.hh"
#include "hawksim.hh"
#include "support/scratch_dir.hh"

using namespace hawksim;

namespace hawksim::harness {
namespace {

namespace fs = std::filesystem;

/** A small but real sweep: stream workload under HawkEye, with
 *  tracing + periodic snapshots so journal records carry every
 *  RunOutput surface (metrics, scalars, trace, cost, snapshots). */
void
registerMini(Registry &reg)
{
    reg.add("mini", "journal resume probe")
        .axis("mb", {"4", "8"})
        .run([](const RunContext &ctx) {
            setLogQuiet(true);
            sim::SystemConfig cfg;
            cfg.memoryBytes = MiB(32);
            cfg.seed = ctx.seed();
            cfg.trace = ctx.trace();
            cfg.fault = ctx.fault();
            cfg.inspect = ctx.inspect();
            cfg.snap = ctx.snap();
            cfg.control = ctx.control();
            cfg.ioFault = ctx.ioFault();
            sim::System sys(cfg);
            sys.setPolicy(std::make_unique<core::HawkEyePolicy>());
            workload::StreamConfig wc;
            wc.footprintBytes = MiB(std::stoull(ctx.param("mb")));
            wc.wssBytes = wc.footprintBytes / 2;
            wc.workSeconds = 0.2;
            sys.addProcess("w",
                           std::make_unique<workload::StreamWorkload>(
                               "w", wc, sys.rng().fork()));
            sys.runUntilAllDone(sec(10));
            RunOutput out;
            out.scalar("runtime_s",
                       static_cast<double>(sys.now()) / 1e9);
            out.simTimeNs = sys.now();
            out.metrics = std::move(sys.metrics());
            out.captureObs(sys);
            return out;
        });
}

RunnerOptions
miniOpts(unsigned jobs)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.masterSeed = 42;
    opts.verbose = false;
    opts.trace.enabled = true;
    opts.trace.capacity = 1 << 12;
    opts.inspect.everyTicks = 7;
    return opts;
}

std::string
traceOf(const Report &r)
{
    std::ostringstream os;
    r.writeTrace(os);
    return os.str();
}

class JournalTest : public ::testing::Test
{
  protected:
    std::string jpath() { return (dir_ / "campaign.hjr").string(); }

    test::ScratchDir dir_;
};

TEST_F(JournalTest, RecordsEveryCompletedPoint)
{
    Registry reg;
    registerMini(reg);
    RunnerOptions opts = miniOpts(1);
    opts.journalPath = jpath();
    const Report r = Runner(opts).run(reg);
    ASSERT_EQ(r.runs.size(), 2u);
    ASSERT_FALSE(r.degraded());

    const std::uint64_t fp = campaignFingerprint(reg, opts);
    const CampaignJournal::Loaded loaded =
        CampaignJournal::load(jpath(), fp);
    ASSERT_EQ(loaded.records.size(), 2u);
    EXPECT_EQ(loaded.tornBytes, 0u);
    EXPECT_EQ(loaded.validBytes, fs::file_size(jpath()));
    for (std::size_t i = 0; i < loaded.records.size(); i++) {
        const RunRecord &a = loaded.records[i];
        const RunRecord &b = r.runs[i];
        EXPECT_EQ(journalKey(a.point), journalKey(b.point));
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.output.simTimeNs, b.output.simTimeNs);
        EXPECT_EQ(a.output.scalars, b.output.scalars);
        EXPECT_EQ(a.output.snapshots.size(),
                  b.output.snapshots.size());
        EXPECT_EQ(a.output.trace.size(), b.output.trace.size());
    }
}

TEST_F(JournalTest, KilledCampaignResumesByteIdentical)
{
    Registry reg;
    registerMini(reg);

    // The uninterrupted truth (no journal involved at all).
    const Report straight = Runner(miniOpts(1)).run(reg);
    const std::string wantReport = straight.toJson().dump();
    const std::string wantInspect = straight.inspectJson().dump();
    const std::string wantTrace = traceOf(straight);

    for (unsigned jobs : {1u, 8u}) {
        // Run to completion with a journal, then chop the file five
        // bytes short — the exact file a SIGKILL mid-append leaves:
        // a valid prefix and one torn record.
        RunnerOptions opts = miniOpts(1);
        opts.journalPath = jpath();
        Runner(opts).run(reg);
        const auto full = fs::file_size(jpath());
        base::truncateFile(jpath(), full - 5);

        RunnerOptions resume = miniOpts(jobs);
        resume.journalPath = jpath();
        resume.resumeCampaign = true;
        const Report r = Runner(resume).run(reg);

        ASSERT_EQ(r.runs.size(), 2u);
        // First point replayed from the journal, torn one re-run.
        EXPECT_TRUE(r.statuses[0].fromJournal);
        EXPECT_FALSE(r.statuses[1].fromJournal);
        EXPECT_FALSE(r.degraded());
        EXPECT_EQ(r.toJson().dump(), wantReport) << "jobs=" << jobs;
        EXPECT_EQ(r.inspectJson().dump(), wantInspect);
        EXPECT_EQ(traceOf(r), wantTrace);

        // The re-run was re-journaled: a second resume replays both.
        RunnerOptions again = miniOpts(jobs);
        again.journalPath = jpath();
        again.resumeCampaign = true;
        const Report r2 = Runner(again).run(reg);
        EXPECT_TRUE(r2.statuses[0].fromJournal);
        EXPECT_TRUE(r2.statuses[1].fromJournal);
        EXPECT_EQ(r2.toJson().dump(), wantReport);
        fs::remove(jpath());
    }
}

TEST_F(JournalTest, GarbageTailIsDiscardedOnResume)
{
    Registry reg;
    registerMini(reg);
    RunnerOptions opts = miniOpts(1);
    opts.journalPath = jpath();
    const Report first = Runner(opts).run(reg);
    {
        std::ofstream os(jpath(), std::ios::binary | std::ios::app);
        os << "garbage that is certainly not a framed record";
    }
    const std::uint64_t fp = campaignFingerprint(reg, opts);
    const CampaignJournal::Loaded loaded =
        CampaignJournal::load(jpath(), fp);
    EXPECT_EQ(loaded.records.size(), 2u);
    EXPECT_GT(loaded.tornBytes, 0u);

    RunnerOptions resume = miniOpts(1);
    resume.journalPath = jpath();
    resume.resumeCampaign = true;
    const Report r = Runner(resume).run(reg);
    EXPECT_EQ(r.toJson().dump(), first.toJson().dump());
}

TEST_F(JournalTest, FingerprintRefusesForeignCampaign)
{
    Registry reg;
    registerMini(reg);
    RunnerOptions opts = miniOpts(1);
    opts.journalPath = jpath();
    Runner(opts).run(reg);

    RunnerOptions other = miniOpts(1);
    other.masterSeed = 43; // different campaign identity
    other.journalPath = jpath();
    other.resumeCampaign = true;
    try {
        Runner(other).run(reg);
        FAIL() << "expected RecoverableError";
    } catch (const RecoverableError &e) {
        EXPECT_EQ(e.kind(), RecoverableError::Kind::kJournal);
        EXPECT_NE(std::string(e.what()).find("different campaign"),
                  std::string::npos);
    }
}

TEST_F(JournalTest, JournalWithoutResumeStartsFresh)
{
    Registry reg;
    registerMini(reg);
    RunnerOptions opts = miniOpts(1);
    opts.journalPath = jpath();
    Runner(opts).run(reg);
    const auto size1 = fs::file_size(jpath());
    // Without --resume-campaign the journal is truncated, not
    // appended: same campaign run twice yields the same file size.
    Runner(opts).run(reg);
    EXPECT_EQ(fs::file_size(jpath()), size1);
}

TEST_F(JournalTest, DroppedAppendFaultReRunsPointOnResume)
{
    Registry reg;
    registerMini(reg);

    // Baseline with the same (inert for the sim) fault config, so
    // the only difference is the journal chaos.
    RunnerOptions base = miniOpts(1);
    base.fault.script.emplace_back(fault::Site::kJournalAppend, 1);
    const Report straight = Runner(base).run(reg);

    RunnerOptions opts = miniOpts(1);
    opts.fault.script.emplace_back(fault::Site::kJournalAppend, 1);
    opts.journalPath = jpath();
    const Report r1 = Runner(opts).run(reg);
    EXPECT_EQ(r1.toJson().dump(), straight.toJson().dump());

    // Every point's first append was dropped, so the journal holds
    // nothing and resume re-runs everything — to the same bytes.
    const std::uint64_t fp = campaignFingerprint(reg, opts);
    EXPECT_EQ(CampaignJournal::load(jpath(), fp).records.size(), 0u);

    RunnerOptions resume = miniOpts(1);
    resume.fault.script.emplace_back(fault::Site::kJournalAppend, 1);
    resume.journalPath = jpath();
    resume.resumeCampaign = true;
    const Report r2 = Runner(resume).run(reg);
    for (const PointStatus &st : r2.statuses)
        EXPECT_FALSE(st.fromJournal);
    EXPECT_EQ(r2.toJson().dump(), straight.toJson().dump());
}

} // namespace
} // namespace hawksim::harness
