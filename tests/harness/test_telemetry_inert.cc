/**
 * @file
 * Telemetry inertness: enabling any telemetry surface (status line,
 * heartbeat JSONL, HTTP endpoint) must leave every canonical
 * artifact — report, trace, inspect dump, checkpoint files —
 * byte-identical at any --jobs, and the journal-resume path must
 * tally replayed points as from_journal with no ETA projection.
 * Also pins the supervisor instants synthesized into the Perfetto
 * export from the status ledger.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/io.hh"
#include "harness/experiment.hh"
#include "harness/json.hh"
#include "harness/runner.hh"
#include "hawksim.hh"
#include "support/scratch_dir.hh"

using namespace hawksim;

namespace hawksim::harness {
namespace {

namespace fs = std::filesystem;

/** A small real-System workload: faults, trace events, snapshots
 *  and checkpoints — every artifact telemetry must not perturb. */
void
registerProbe(Registry &reg)
{
    reg.add("teleprobe", "telemetry inertness probe")
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
            core::HawkEyeConfig hc;
            hc.samplePeriod = msec(200);
            hc.sampleWindow = msec(50);
            sys.setPolicy(
                std::make_unique<core::HawkEyePolicy>(hc));
            workload::StreamConfig wc;
            wc.footprintBytes = MiB(std::stoull(ctx.param("mb")));
            wc.wssBytes = wc.footprintBytes / 2;
            wc.zipfS = 0.6;
            wc.workSeconds = 0.2;
            sys.addProcess(
                "w", std::make_unique<workload::StreamWorkload>(
                         "w", wc, sys.rng().fork()));
            sys.runUntilAllDone(sec(30));
            RunOutput out;
            out.simTimeNs = sys.now();
            out.metrics = std::move(sys.metrics());
            out.captureObs(sys);
            return out;
        });
}

RunnerOptions
baseOpts(unsigned jobs)
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

struct Artifacts
{
    std::string report, trace, inspect;
};

Artifacts
artifactsOf(const Report &r)
{
    return {r.toJson().dump(), traceOf(r), r.inspectJson().dump()};
}

TEST(TelemetryInert, ArtifactsIdenticalOnOffAtAnyJobs)
{
    const test::ScratchDir dir;

    Registry reg;
    registerProbe(reg);

    Artifacts want;
    for (const unsigned jobs : {1u, 8u}) {
        // Telemetry off: the reference.
        const Report off = Runner(baseOpts(jobs)).run(reg);
        const Artifacts offA = artifactsOf(off);
        if (jobs == 1)
            want = offA;
        // --jobs must not matter either (regression guard for the
        // hub's worker-slot plumbing).
        EXPECT_EQ(offA.report, want.report);
        EXPECT_EQ(offA.trace, want.trace);
        EXPECT_EQ(offA.inspect, want.inspect);

        // Every telemetry surface at once: status line (forced
        // non-TTY), JSONL, ephemeral HTTP, fast heartbeats.
        RunnerOptions on = baseOpts(jobs);
        on.telemetry.jsonlPath =
            (dir / ("hb-" + std::to_string(jobs) + ".jsonl"))
                .string();
        on.telemetry.httpPort = 0;
        on.telemetry.intervalSec = 0.005;
        on.telemetry.forceTtyMode = 0;
        const Report onR = Runner(on).run(reg);
        const Artifacts onA = artifactsOf(onR);
        EXPECT_EQ(onA.report, want.report) << "jobs=" << jobs;
        EXPECT_EQ(onA.trace, want.trace) << "jobs=" << jobs;
        EXPECT_EQ(onA.inspect, want.inspect) << "jobs=" << jobs;

        // The heartbeat file itself must exist and be well-formed.
        std::ifstream is(on.telemetry.jsonlPath);
        ASSERT_TRUE(is.is_open());
        std::string line, last;
        while (std::getline(is, line))
            last = line;
        std::string err;
        const Json hb = Json::parse(last, &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(hb["points"]["done"].asInt(), 2);
        EXPECT_TRUE(hb["finished"].asBool());
        EXPECT_GT(hb["progress"]["sim_ns"].asInt(), 0);
    }
}

TEST(TelemetryInert, CheckpointFilesIdenticalOnOff)
{
    const test::ScratchDir dir;

    Registry reg;
    registerProbe(reg);

    RunnerOptions off = baseOpts(2);
    off.snap.checkpointEvery = 10;
    off.checkpointOut = (dir / "off").string();
    Runner(off).run(reg);

    RunnerOptions on = baseOpts(2);
    on.snap.checkpointEvery = 10;
    on.checkpointOut = (dir / "on").string();
    on.telemetry.jsonlPath = (dir / "hb.jsonl").string();
    on.telemetry.intervalSec = 0.005;
    on.telemetry.forceTtyMode = 0;
    Runner(on).run(reg);

    unsigned compared = 0;
    for (const auto &ent :
         fs::directory_iterator(dir / "off")) {
        const fs::path other = dir / "on" / ent.path().filename();
        ASSERT_TRUE(fs::exists(other)) << other;
        EXPECT_EQ(base::readFile(ent.path().string()),
                  base::readFile(other.string()))
            << ent.path().filename();
        compared++;
    }
    EXPECT_GT(compared, 0u);
}

TEST(TelemetryInert, ResumeTalliesJournalPointsWithoutEta)
{
    const test::ScratchDir dir;

    Registry reg;
    registerProbe(reg);

    // Full campaign, journaled.
    RunnerOptions first = baseOpts(1);
    first.journalPath = (dir / "campaign.journal").string();
    const Report want = Runner(first).run(reg);

    // Resume: everything replays from the journal; telemetry must
    // classify all points as from_journal, project no ETA (no fresh
    // point ever executes), and the report must still match.
    RunnerOptions resume = baseOpts(1);
    resume.journalPath = first.journalPath;
    resume.resumeCampaign = true;
    resume.telemetry.jsonlPath = (dir / "hb.jsonl").string();
    resume.telemetry.intervalSec = 0.005;
    resume.telemetry.forceTtyMode = 0;
    const Report got = Runner(resume).run(reg);
    EXPECT_EQ(got.toJson().dump(), want.toJson().dump());

    std::ifstream is(resume.telemetry.jsonlPath);
    ASSERT_TRUE(is.is_open());
    std::string line, last;
    while (std::getline(is, line))
        last = line;
    std::string err;
    const Json hb = Json::parse(last, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(hb["points"]["done"].asInt(), 2);
    EXPECT_EQ(hb["points"]["from_journal"].asInt(), 2);
    EXPECT_EQ(hb["points"]["fresh"].asInt(), 0);
    EXPECT_TRUE(hb["eta_ms"].isNull());
    EXPECT_EQ(hb["throughput"]["points_per_sec"].asDouble(), 0.0);
    // Replays do not pretend to have simulated anything *here*.
    EXPECT_EQ(hb["progress"]["ticks"].asInt(), 0);
}

TEST(TelemetryInert, SupervisorInstantsAppearOnlyForNonOkPoints)
{
    // The trace is a canonical artifact: like the report's "status"
    // block, only a point that ended NON-OK may be annotated. A
    // retried-but-recovered point must stay byte-identical to a
    // first-try success (tests/snap/test_recovery_ladder.cc pins
    // that campaign-wide); its retries surface in telemetry only.
    Report r;
    r.masterSeed = 1;
    r.runs.resize(2);
    r.runs[0].point.experiment = "exp";
    r.runs[0].point.index = 0;
    r.runs[1].point.experiment = "exp";
    r.runs[1].point.index = 1;
    r.statuses.resize(2);
    r.statuses[1].state = PointStatus::State::kFailed;
    r.statuses[1].attempts = 3;
    r.statuses[1].error = "disk on fire";
    r.statuses[1].events = {
        {AttemptEvent::Kind::kRetry, 1, "io"},
        {AttemptEvent::Kind::kRetry, 2, "io"},
        {AttemptEvent::Kind::kFailed, 3, "io"},
    };

    const std::string trace = traceOf(r);
    // Two retries + one terminal failure, with the error kind.
    std::size_t retries = 0;
    for (std::size_t pos = trace.find("supervisor_retry");
         pos != std::string::npos;
         pos = trace.find("supervisor_retry", pos + 1))
        retries++;
    EXPECT_EQ(retries, 2u);
    EXPECT_NE(trace.find("supervisor_failed"), std::string::npos);
    EXPECT_NE(trace.find("\"error_kind\":\"io\""),
              std::string::npos);
    EXPECT_NE(trace.find("\"attempt\":3"), std::string::npos);
    EXPECT_EQ(trace.find("supervisor_timeout"), std::string::npos);

    // Clean statuses emit nothing: historical traces keep their
    // bytes.
    Report clean = r;
    clean.statuses[1] = PointStatus{};
    EXPECT_EQ(traceOf(clean).find("supervisor_"),
              std::string::npos);

    // Retried-but-RECOVERED emits nothing either — the determinism
    // contract covers the trace, so only telemetry may tell.
    Report recovered = r;
    recovered.statuses[1].state = PointStatus::State::kOk;
    recovered.statuses[1].events.pop_back(); // drop the kFailed
    EXPECT_EQ(traceOf(recovered).find("supervisor_"),
              std::string::npos);

    // Journal replays are never annotated even if their recorded
    // status carries attempts from a past life.
    Report journal = r;
    journal.statuses[1].fromJournal = true;
    EXPECT_EQ(traceOf(journal).find("supervisor_"),
              std::string::npos);
}

} // namespace
} // namespace hawksim::harness
