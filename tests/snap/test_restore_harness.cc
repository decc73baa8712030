/**
 * @file
 * Harness-level restore-equivalence tests: a chaos sweep that
 * checkpoints mid-run, is restored per grid point, and resumed to
 * completion must reproduce the straight run's report, trace and
 * inspect artifacts byte for byte — independent of --jobs, and with
 * checkpoint files themselves identical across worker counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>

#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "hawksim.hh"
#include "base/io.hh"
#include "snap/snap.hh"
#include "support/scratch_dir.hh"

using namespace hawksim;

namespace hawksim::harness {
namespace {

/** A table2-style chaos point: one streaming process, HawkEye. */
void
registerSnapChaos(Registry &reg)
{
    reg.add("snapchaos", "checkpoint/restore equivalence probe")
        .axis("mb", {"8", "16", "24"})
        .run([](const RunContext &ctx) {
            setLogQuiet(true);
            sim::SystemConfig cfg;
            cfg.memoryBytes = MiB(64);
            cfg.seed = ctx.seed();
            cfg.trace = ctx.trace();
            cfg.fault = ctx.fault();
            cfg.inspect = ctx.inspect();
            cfg.snap = ctx.snap();
            cfg.control = ctx.control();
            cfg.ioFault = ctx.ioFault();
            sim::System sys(cfg);
            core::HawkEyeConfig hc;
            hc.samplePeriod = msec(200);
            hc.sampleWindow = msec(50);
            sys.setPolicy(std::make_unique<core::HawkEyePolicy>(hc));
            workload::StreamConfig wc;
            wc.footprintBytes =
                MiB(std::stoull(ctx.param("mb")));
            wc.wssBytes = wc.footprintBytes / 2;
            wc.zipfS = 0.6;
            wc.workSeconds = 0.5;
            sys.addProcess("w",
                           std::make_unique<workload::StreamWorkload>(
                               "w", wc, sys.rng().fork()));
            sys.runUntilAllDone(sec(30));
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
chaosOpts(unsigned jobs)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.masterSeed = 42;
    opts.verbose = false;
    opts.fault.rate = 0.01;
    opts.fault.auditOnFault = true;
    opts.fault.oomKiller = true;
    opts.trace.enabled = true;
    opts.trace.capacity = 1 << 12;
    opts.inspect.everyTicks = 5;
    return opts;
}

std::string
traceOf(const Report &r)
{
    std::ostringstream os;
    r.writeTrace(os);
    return os.str();
}

/** A report holding just run @p i of @p r (for artifact compares). */
Report
only(const Report &r, std::size_t i)
{
    Report one;
    one.masterSeed = r.masterSeed;
    one.runs.push_back(r.runs[i]);
    return one;
}

TEST(RestoreHarness, CheckpointedSweepMatchesAcrossJobsAndRestores)
{
    const test::ScratchDir dir;
    const std::string dir1 = dir / "harness-j1";
    const std::string dir8 = dir / "harness-j8";

    Registry reg;
    registerSnapChaos(reg);

    // Straight chaos runs, checkpointing every 10 ticks: the report
    // and every artifact must not depend on --jobs, and neither may
    // the checkpoint files themselves.
    RunnerOptions o1 = chaosOpts(1);
    o1.snap.checkpointEvery = 10;
    o1.checkpointOut = dir1;
    const Report r1 = Runner(o1).run(reg);

    RunnerOptions o8 = chaosOpts(8);
    o8.snap.checkpointEvery = 10;
    o8.checkpointOut = dir8;
    const Report r8 = Runner(o8).run(reg);

    ASSERT_EQ(r1.runs.size(), 3u);
    EXPECT_EQ(r1.toJson().dump(), r8.toJson().dump());
    EXPECT_EQ(r1.inspectJson().dump(), r8.inspectJson().dump());
    EXPECT_EQ(traceOf(r1), traceOf(r8));
    for (std::size_t i = 0; i < r1.runs.size(); i++) {
        const std::string f =
            "snapchaos-" + std::to_string(i) + "-tick10.snap";
        ASSERT_TRUE(std::filesystem::exists(dir1 + "/" + f)) << f;
        EXPECT_EQ(base::readFile(dir1 + "/" + f),
                  base::readFile(dir8 + "/" + f))
            << f;
    }

    // Restore each point from its tick-10 checkpoint and resume to
    // completion (alternating worker counts): the resumed run's
    // report row, inspect dump and trace must equal the straight
    // run's, byte for byte.
    for (std::size_t i = 0; i < r1.runs.size(); i++) {
        RunnerOptions ro = chaosOpts(i % 2 ? 8 : 1);
        ro.filter = "mb=" + r1.runs[i].point.param("mb");
        ro.snap.restorePath = dir1 + "/snapchaos-" +
                              std::to_string(i) + "-tick10.snap";
        const Report rr = Runner(ro).run(reg);
        ASSERT_EQ(rr.runs.size(), 1u);
        const Report straight = only(r1, i);
        EXPECT_EQ(rr.toJson().dump(), straight.toJson().dump());
        EXPECT_EQ(rr.inspectJson().dump(),
                  straight.inspectJson().dump());
        EXPECT_EQ(traceOf(rr), traceOf(straight));
    }
}

TEST(RestoreHarness, ReplayToTickTruncatesEveryRun)
{
    Registry reg;
    registerSnapChaos(reg);
    RunnerOptions ro = chaosOpts(2);
    ro.snap.replayToTick = 12;
    const Report r = Runner(ro).run(reg);
    ASSERT_EQ(r.runs.size(), 3u);
    for (const RunRecord &rec : r.runs)
        EXPECT_EQ(rec.output.simTimeNs,
                  static_cast<TimeNs>(12) * msec(10));
}

} // namespace
} // namespace hawksim::harness
