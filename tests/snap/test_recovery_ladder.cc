/**
 * @file
 * Recovery-ladder tests: checkpoint family helpers, retention, the
 * torn-write/partial-rename fault matrix, fallback-to-older-rung
 * restore with forward re-simulation, strict mode, and retry
 * determinism — a point that lost a checkpoint write to an injected
 * rename fault and was retried must reproduce the no-fault report
 * byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/error.hh"
#include "base/io.hh"
#include "fault/fault.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "hawksim.hh"
#include "snap/snap.hh"
#include "support/scratch_dir.hh"

using namespace hawksim;

namespace hawksim::snap {
namespace {

namespace fs = std::filesystem;

TEST(Ladder, CheckpointPathAndTickRoundTrip)
{
    EXPECT_EQ(checkpointPath("out/table2-3", 40),
              "out/table2-3-tick40.snap");
    EXPECT_EQ(checkpointTick("out/table2-3-tick40.snap"), 40u);
    EXPECT_EQ(checkpointTick("ladder-0-tick5.snap"), 5u);
    EXPECT_FALSE(checkpointTick("x.snap"));
    EXPECT_FALSE(checkpointTick("x-tick.snap"));
    EXPECT_FALSE(checkpointTick("x-tick12a.snap"));
    EXPECT_FALSE(checkpointTick("x-tick12"));
}

class LadderFiles : public ::testing::Test
{
  protected:
    std::string
    touch(const std::string &name)
    {
        const std::string path = (dir_ / name).string();
        std::ofstream(path, std::ios::binary) << "stub";
        return path;
    }

    test::ScratchDir dir_;
};

TEST_F(LadderFiles, OlderCheckpointsNewestFirst)
{
    const std::string t10 = touch("run-2-tick10.snap");
    const std::string t20 = touch("run-2-tick20.snap");
    const std::string t30 = touch("run-2-tick30.snap");
    touch("run-12-tick40.snap"); // different family, same prefix text
    touch("other-2-tick5.snap");

    const std::vector<std::string> want = {t20, t10};
    EXPECT_EQ(olderCheckpoints(t30), want);
    EXPECT_TRUE(olderCheckpoints(t10).empty());
    EXPECT_TRUE(olderCheckpoints("not-a-checkpoint.bin").empty());
}

TEST_F(LadderFiles, PruneKeepsOnlyNewest)
{
    for (int t : {10, 20, 30, 40, 50})
        touch("run-0-tick" + std::to_string(t) + ".snap");
    touch("run-1-tick10.snap"); // other family: untouched

    pruneCheckpoints((dir_ / "run-0").string(), 0); // keep-all: no-op
    pruneCheckpoints((dir_ / "run-0").string(), 2);
    EXPECT_FALSE(fs::exists(dir_ / "run-0-tick10.snap"));
    EXPECT_FALSE(fs::exists(dir_ / "run-0-tick20.snap"));
    EXPECT_FALSE(fs::exists(dir_ / "run-0-tick30.snap"));
    EXPECT_TRUE(fs::exists(dir_ / "run-0-tick40.snap"));
    EXPECT_TRUE(fs::exists(dir_ / "run-0-tick50.snap"));
    EXPECT_TRUE(fs::exists(dir_ / "run-1-tick10.snap"));
}

} // namespace
} // namespace hawksim::snap

namespace hawksim::harness {
namespace {

namespace fs = std::filesystem;

/** Small checkpointing sweep used by all ladder scenarios. */
void
registerLadder(Registry &reg)
{
    reg.add("ladder", "recovery ladder probe")
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
            wc.workSeconds = 0.15;
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
ladderOpts()
{
    RunnerOptions opts;
    opts.jobs = 1;
    opts.masterSeed = 42;
    opts.verbose = false;
    opts.trace.enabled = true;
    opts.trace.capacity = 1 << 12;
    opts.inspect.everyTicks = 5;
    opts.supervise.backoffBaseMs = 0; // tests never sleep
    return opts;
}

std::string
traceOf(const Report &r)
{
    std::ostringstream os;
    r.writeTrace(os);
    return os.str();
}

Report
only(const Report &r, std::size_t i)
{
    Report one;
    one.masterSeed = r.masterSeed;
    one.runs.push_back(r.runs[i]);
    return one;
}

/** Tear a file in half, like a crash mid-write without fsync. */
void
tear(const std::string &path)
{
    const std::string bytes = base::readFile(path);
    base::truncateFile(path, bytes.size() / 2);
}

class RecoveryLadder : public ::testing::Test
{
  protected:
    std::string d(const std::string &sub) { return (dir_ / sub).string(); }

    std::string
    ckpt(const std::string &sub, std::size_t point, unsigned tick)
    {
        return d(sub) + "/ladder-" + std::to_string(point) + "-tick" +
               std::to_string(tick) + ".snap";
    }

    test::ScratchDir dir_;
};

TEST_F(RecoveryLadder, TornCheckpointFallsBackThenResimulates)
{
    Registry reg;
    registerLadder(reg);

    RunnerOptions so = ladderOpts();
    so.snap.checkpointEvery = 5;
    so.checkpointOut = d("straight");
    const Report straight = Runner(so).run(reg);
    ASSERT_EQ(straight.runs.size(), 2u);
    ASSERT_TRUE(fs::exists(ckpt("straight", 1, 5)));
    ASSERT_TRUE(fs::exists(ckpt("straight", 1, 10)));

    // Tear the tick-10 checkpoint of point 1. A non-strict restore
    // walks back to tick 5 and re-simulates the gap forward: the
    // final state (inspect dump, scalars, end time) matches the
    // straight run, and the degradation is recorded in metrics and
    // trace.
    tear(ckpt("straight", 1, 10));
    RunnerOptions ro = ladderOpts();
    ro.filter = "mb=8";
    ro.snap.restorePath = ckpt("straight", 1, 10);
    const Report rr = Runner(ro).run(reg);
    ASSERT_EQ(rr.runs.size(), 1u);
    EXPECT_FALSE(rr.degraded());
    EXPECT_EQ(rr.runs[0].output.simTimeNs,
              straight.runs[1].output.simTimeNs);
    EXPECT_EQ(rr.runs[0].output.scalars,
              straight.runs[1].output.scalars);
    EXPECT_EQ(rr.inspectJson().dump(),
              only(straight, 1).inspectJson().dump());
    EXPECT_NE(rr.toJson().dump().find(
                  "restore fell back to older checkpoint "
                  "ladder-1-tick5.snap"),
              std::string::npos);
    EXPECT_NE(traceOf(rr).find("restore_fallback"),
              std::string::npos);

    // Strict mode refuses the torn file: the point fails (typed
    // error, nonzero path in the CLI) instead of silently falling
    // back — and no longer takes the whole process down.
    RunnerOptions strict = ladderOpts();
    strict.filter = "mb=8";
    strict.snap.restorePath = ckpt("straight", 1, 10);
    strict.snap.restoreStrict = true;
    const Report sr = Runner(strict).run(reg);
    ASSERT_EQ(sr.statuses.size(), 1u);
    EXPECT_EQ(sr.statuses[0].state, PointStatus::State::kFailed);
    EXPECT_FALSE(sr.statuses[0].error.empty());
    EXPECT_TRUE(sr.degraded());
    EXPECT_NE(sr.toJson().dump().find("\"status\""),
              std::string::npos);

    // The bottom rung has nothing older to fall back to.
    tear(ckpt("straight", 1, 5));
    RunnerOptions bottom = ladderOpts();
    bottom.filter = "mb=8";
    bottom.snap.restorePath = ckpt("straight", 1, 5);
    const Report br = Runner(bottom).run(reg);
    ASSERT_EQ(br.statuses.size(), 1u);
    EXPECT_EQ(br.statuses[0].state, PointStatus::State::kFailed);
    EXPECT_NE(br.statuses[0].error.find(
                  "no older valid checkpoint exists"),
              std::string::npos);
}

TEST_F(RecoveryLadder, RetentionKeepsOnlyNewestCheckpoints)
{
    Registry reg;
    registerLadder(reg);

    RunnerOptions base = ladderOpts();
    base.snap.checkpointEvery = 5;
    base.checkpointOut = d("all");
    Runner(base).run(reg);

    RunnerOptions opts = ladderOpts();
    opts.snap.checkpointEvery = 5;
    opts.snap.checkpointKeep = 2;
    opts.checkpointOut = d("keep2");
    const Report r = Runner(opts).run(reg);
    ASSERT_EQ(r.runs.size(), 2u);

    auto family = [&](const std::string &sub, std::size_t point) {
        std::vector<std::uint64_t> ticks;
        for (const auto &ent : fs::directory_iterator(d(sub))) {
            const std::string name = ent.path().filename().string();
            if (name.rfind("ladder-" + std::to_string(point) + "-",
                           0) == 0)
                ticks.push_back(*snap::checkpointTick(name));
        }
        std::sort(ticks.begin(), ticks.end());
        return ticks;
    };

    for (std::size_t point = 0; point < 2; point++) {
        const auto all = family("all", point);
        const auto kept = family("keep2", point);
        ASSERT_GE(all.size(), 2u) << "point " << point;
        ASSERT_EQ(kept.size(), 2u) << "point " << point;
        // The survivors are exactly the two newest checkpoints.
        const std::vector<std::uint64_t> want(all.end() - 2,
                                             all.end());
        EXPECT_EQ(kept, want) << "point " << point;
    }
}

TEST_F(RecoveryLadder, RenameFaultRetriesToIdenticalReport)
{
    Registry reg;
    registerLadder(reg);

    RunnerOptions base = ladderOpts();
    base.snap.checkpointEvery = 5;
    base.checkpointOut = d("nofault");
    const Report want = Runner(base).run(reg);

    // Every point's first checkpoint write loses its rename; with a
    // retry budget the supervisor re-derives the same seed and runs
    // the point again, and the campaign converges to the exact bytes
    // of the no-fault run — with no "status" block, because every
    // point ended ok.
    RunnerOptions opts = ladderOpts();
    opts.snap.checkpointEvery = 5;
    opts.checkpointOut = d("renamed");
    opts.fault.script.emplace_back(fault::Site::kSnapRename, 1);
    opts.supervise.retries = 1;
    const Report got = Runner(opts).run(reg);

    ASSERT_EQ(got.statuses.size(), 2u);
    for (const PointStatus &st : got.statuses) {
        EXPECT_TRUE(st.ok());
        EXPECT_FALSE(st.clean());
        EXPECT_EQ(st.attempts, 2u);
    }
    EXPECT_FALSE(got.degraded());
    EXPECT_EQ(got.toJson().dump(), want.toJson().dump());
    EXPECT_EQ(got.inspectJson().dump(), want.inspectJson().dump());
    EXPECT_EQ(traceOf(got), traceOf(want));
    // The retried attempt rewrote the checkpoint the fault ate.
    EXPECT_TRUE(fs::exists(ckpt("renamed", 0, 5)));
    EXPECT_TRUE(fs::exists(ckpt("renamed", 1, 5)));

    // Without the retry budget the same fault fails the campaign.
    RunnerOptions hard = ladderOpts();
    hard.snap.checkpointEvery = 5;
    hard.checkpointOut = d("renamed-hard");
    hard.fault.script.emplace_back(fault::Site::kSnapRename, 1);
    const Report failed = Runner(hard).run(reg);
    EXPECT_TRUE(failed.degraded());
    for (const PointStatus &st : failed.statuses)
        EXPECT_EQ(st.state, PointStatus::State::kFailed);
}

TEST_F(RecoveryLadder, ShortWriteTearsSilentlyAndLadderRecovers)
{
    Registry reg;
    registerLadder(reg);

    // A torn half-write is silent: the run itself succeeds and the
    // report is unaffected...
    RunnerOptions base = ladderOpts();
    base.snap.checkpointEvery = 5;
    base.checkpointOut = d("whole");
    const Report want = Runner(base).run(reg);

    RunnerOptions opts = ladderOpts();
    opts.snap.checkpointEvery = 5;
    opts.checkpointOut = d("torn");
    opts.fault.script.emplace_back(fault::Site::kSnapShortWrite, 1);
    const Report got = Runner(opts).run(reg);
    EXPECT_FALSE(got.degraded());
    EXPECT_EQ(got.toJson().dump(), want.toJson().dump());

    // ...but the first checkpoint each point wrote is damaged goods.
    // Restoring it finds no older rung and fails; restoring the next
    // (whole) checkpoint reproduces the run exactly.
    RunnerOptions bad = ladderOpts();
    bad.filter = "mb=8";
    bad.fault.script.emplace_back(fault::Site::kSnapShortWrite, 1);
    bad.snap.restorePath = ckpt("torn", 1, 5);
    const Report brep = Runner(bad).run(reg);
    ASSERT_EQ(brep.statuses.size(), 1u);
    EXPECT_EQ(brep.statuses[0].state, PointStatus::State::kFailed);

    RunnerOptions good = ladderOpts();
    good.filter = "mb=8";
    good.fault.script.emplace_back(fault::Site::kSnapShortWrite, 1);
    good.snap.restorePath = ckpt("torn", 1, 10);
    const Report grep_ = Runner(good).run(reg);
    ASSERT_EQ(grep_.runs.size(), 1u);
    EXPECT_FALSE(grep_.degraded());
    EXPECT_EQ(grep_.toJson().dump(), only(got, 1).toJson().dump());
}

} // namespace
} // namespace hawksim::harness
