/**
 * @file
 * Telemetry unit tests: hub accounting, heartbeat derivation (ETA
 * excludes journal replays), the pinned hawksim-telemetry/v1 field
 * signature, the status line, Prometheus exposition, and the sampler
 * thread's JSONL + HTTP surfaces.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/control.hh"
#include "base/http.hh"
#include "harness/json.hh"
#include "obs/cost_account.hh"
#include "obs/telemetry.hh"
#include "support/scratch_dir.hh"

namespace hawksim::obs {
namespace {

namespace fs = std::filesystem;

CostAccounting
someCost()
{
    CostAccounting cost;
    cost.charge(Subsys::kFaultPath, 1000);
    cost.charge(Subsys::kCompaction, 500);
    cost.count(Counter::kFaults, 7);
    return cost;
}

TEST(TelemetryHub, AccumulatesPointCompletions)
{
    TelemetryHub hub({0xabcd, 42, 10}, 2);
    hub.pointDone(100, 5000, someCost(), /*fromJournal=*/false);
    hub.pointDone(0, 3000, someCost(), /*fromJournal=*/true);
    hub.pointRetried();
    hub.pointFailed(/*timedOut=*/true);
    hub.addIoFaultsInjected(3);
    hub.addStageWallUs(Stage::kRun, 250);
    hub.addStageWallUs(Stage::kJournal, 50);

    const TelemetryHub::Sample s = hub.sample();
    EXPECT_EQ(s.done, 3u); // 2 ok + 1 failed
    EXPECT_EQ(s.fromJournal, 1u);
    EXPECT_EQ(s.fresh(), 2u);
    EXPECT_EQ(s.retries, 1u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.timedOut, 1u);
    EXPECT_EQ(s.ticks, 100u); // journal replay's ticks excluded
    EXPECT_EQ(s.simNs, 8000u);
    EXPECT_EQ(s.faults, 14u);
    EXPECT_EQ(s.ioFaultsInjected, 3u);
    EXPECT_EQ(s.costNs[static_cast<unsigned>(Subsys::kFaultPath)],
              2000u);
    EXPECT_EQ(s.costNs[static_cast<unsigned>(Subsys::kCompaction)],
              1000u);
    EXPECT_EQ(s.stageWallUs[static_cast<unsigned>(Stage::kRun)],
              250u);
    EXPECT_EQ(s.stageWallUs[static_cast<unsigned>(Stage::kJournal)],
              50u);
    EXPECT_FALSE(s.finished);
    hub.markFinished();
    EXPECT_TRUE(hub.sample().finished);
}

TEST(TelemetryHub, LiveTicksComeFromAttachedRunControls)
{
    TelemetryHub hub({1, 2, 4}, 3);
    RunControl a, b;
    a.heartbeat.store(11, std::memory_order_relaxed);
    b.heartbeat.store(31, std::memory_order_relaxed);
    hub.attachSlot(0, &a);
    hub.attachSlot(2, &b);
    TelemetryHub::Sample s = hub.sample();
    EXPECT_EQ(s.inFlight, 2u);
    EXPECT_EQ(s.liveTicks, 42u);
    hub.attachSlot(0, nullptr);
    s = hub.sample();
    EXPECT_EQ(s.inFlight, 1u);
    EXPECT_EQ(s.liveTicks, 31u);
    // Out-of-range slots are ignored, not UB.
    hub.attachSlot(99, &a);
}

TEST(Heartbeat, EtaProjectsFromFreshPointsOnly)
{
    TelemetryHub hub({1, 2, 10}, 1);
    const CostAccounting zero;
    for (int i = 0; i < 5; i++)
        hub.pointDone(10, 100, zero, /*fromJournal=*/false);
    // 5 fresh of 10 in 1000ms -> 5 pts/s -> 5 remaining -> 1000ms.
    const Heartbeat hb = makeHeartbeat(hub, 3, 1000.0);
    EXPECT_EQ(hb.seq, 3u);
    EXPECT_DOUBLE_EQ(hb.pointsPerSec, 5.0);
    ASSERT_TRUE(hb.etaValid);
    EXPECT_DOUBLE_EQ(hb.etaMs, 1000.0);
}

TEST(Heartbeat, JournalReplaysAloneGiveNoEta)
{
    // A resume that replayed 9 of 10 points in a millisecond must
    // not predict the last point lands in ~0.1ms.
    TelemetryHub hub({1, 2, 10}, 1);
    const CostAccounting zero;
    for (int i = 0; i < 9; i++)
        hub.pointDone(0, 100, zero, /*fromJournal=*/true);
    Heartbeat hb = makeHeartbeat(hub, 0, 1.0);
    EXPECT_EQ(hb.s.done, 9u);
    EXPECT_EQ(hb.s.fresh(), 0u);
    EXPECT_DOUBLE_EQ(hb.pointsPerSec, 0.0);
    EXPECT_FALSE(hb.etaValid);
    // One executed point unlocks the projection.
    hub.pointDone(10, 100, zero, /*fromJournal=*/false);
    hb = makeHeartbeat(hub, 1, 2000.0);
    EXPECT_EQ(hb.s.fresh(), 1u);
    EXPECT_FALSE(hb.etaValid); // nothing remaining
    EXPECT_DOUBLE_EQ(hb.pointsPerSec, 0.5);
}

TEST(Heartbeat, NoEtaAtTimeZero)
{
    TelemetryHub hub({1, 2, 10}, 1);
    const Heartbeat hb = makeHeartbeat(hub, 0, 0.0);
    EXPECT_DOUBLE_EQ(hb.pointsPerSec, 0.0);
    EXPECT_FALSE(hb.etaValid);
}

TEST(Heartbeat, FieldSignatureIsPinned)
{
    // The hawksim-telemetry/v1 contract: adding, removing, renaming
    // or reordering any key requires bumping kTelemetrySchema (and
    // this golden).
    EXPECT_STREQ(kTelemetrySchema, "hawksim-telemetry/v1");
    EXPECT_EQ(
        telemetryFieldSignature(),
        "schema,seq,elapsed_ms,"
        "campaign,campaign.fingerprint,campaign.master_seed,"
        "campaign.points_total,"
        "points,points.done,points.fresh,points.from_journal,"
        "points.in_flight,points.retried,points.failed,"
        "points.timed_out,"
        "progress,progress.ticks,progress.live_ticks,"
        "progress.sim_ns,progress.faults,"
        "throughput,throughput.points_per_sec,"
        "throughput.ticks_per_sec,"
        "eta_ms,"
        "cost_ns,cost_ns.fault_path,cost_ns.promote_daemon,"
        "cost_ns.zero_daemon,cost_ns.bloat_daemon,"
        "cost_ns.compaction,cost_ns.reclaim,cost_ns.tlb_walk,"
        "stage_wall_us,stage_wall_us.run,stage_wall_us.journal,"
        "supervisor,supervisor.retries,"
        "supervisor.watchdog_timeouts,"
        "supervisor.io_faults_injected,"
        "finished");
}

TEST(Heartbeat, JsonRoundTripsAndEtaNullWhenInvalid)
{
    TelemetryHub hub({0xdeadbeef, 7, 4}, 1);
    hub.pointDone(50, 900, someCost(), false);
    const Heartbeat hb = makeHeartbeat(hub, 2, 500.0);
    const harness::Json j = heartbeatToJson(hb);
    std::string err;
    const harness::Json back = harness::Json::parse(j.dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(back["schema"].asString(), kTelemetrySchema);
    EXPECT_EQ(back["campaign"]["fingerprint"].asString(),
              "0x00000000deadbeef");
    EXPECT_EQ(back["points"]["done"].asInt(), 1);
    EXPECT_TRUE(back["eta_ms"].isNull() == !hb.etaValid);
    EXPECT_EQ(back["progress"]["faults"].asInt(), 7);
}

TEST(Heartbeat, StatusLineMentionsTheInterestingParts)
{
    TelemetryHub hub({1, 2, 8}, 1);
    const CostAccounting zero;
    hub.pointDone(0, 0, zero, true);
    hub.pointDone(1000, 0, zero, false);
    hub.pointRetried();
    hub.pointFailed(false);
    const Heartbeat hb = makeHeartbeat(hub, 0, 1000.0);
    const std::string line = heartbeatStatusLine(hb);
    EXPECT_NE(line.find("3/8 pts"), std::string::npos) << line;
    EXPECT_NE(line.find("(1 journal)"), std::string::npos) << line;
    EXPECT_NE(line.find("ticks/s"), std::string::npos) << line;
    EXPECT_NE(line.find("retries 1"), std::string::npos) << line;
    EXPECT_NE(line.find("FAILED 1"), std::string::npos) << line;
    EXPECT_NE(line.find("ETA "), std::string::npos) << line;
}

TEST(Prometheus, ExpositionIsWellFormed)
{
    TelemetryHub hub({1, 2, 4}, 1);
    hub.pointDone(100, 5000, someCost(), false);
    hub.markFinished();
    const Heartbeat hb = makeHeartbeat(hub, 0, 1000.0);
    const std::string text = prometheusText(hb);

    // Every non-comment line is "name[{label="v"}] value".
    std::istringstream is(text);
    std::string line;
    unsigned samples = 0;
    while (std::getline(is, line)) {
        ASSERT_FALSE(line.empty());
        if (line[0] == '#') {
            EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                        line.rfind("# TYPE ", 0) == 0)
                << line;
            continue;
        }
        const auto sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        EXPECT_TRUE(line.rfind("hawksim_", 0) == 0) << line;
        samples++;
    }
    EXPECT_GE(samples, 16u);
    EXPECT_NE(text.find("hawksim_points_total 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("hawksim_points_done_total 1\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("hawksim_cost_ns_total{subsys=\"fault_path\"} "
                  "1000\n"),
        std::string::npos);
    EXPECT_NE(text.find("hawksim_campaign_finished 1\n"),
              std::string::npos);
    // 1 fresh point in 1s, 3 remaining -> 3s projected.
    EXPECT_NE(text.find("hawksim_eta_seconds 3\n"),
              std::string::npos);

    // No ETA -> the unknown sentinel, never an absent metric.
    TelemetryHub idle({0, 0, 4}, 1);
    const std::string idleText =
        prometheusText(makeHeartbeat(idle, 0, 0.0));
    EXPECT_NE(idleText.find("hawksim_eta_seconds -1\n"),
              std::string::npos);
}

TEST(Sampler, WritesParsableJsonlAndFinalHeartbeat)
{
    const test::ScratchDir dir;
    const fs::path out = dir / "sub" / "hb.jsonl";

    TelemetryHub hub({0x1234, 42, 2}, 1);
    TelemetryConfig cfg;
    cfg.jsonlPath = out.string();
    cfg.intervalSec = 0.01;
    cfg.forceTtyMode = 0;
    {
        TelemetrySampler sampler(hub, cfg);
        hub.pointDone(10, 100, CostAccounting{}, false);
        hub.pointDone(10, 100, CostAccounting{}, false);
        sampler.finish();
    }

    std::ifstream is(out);
    ASSERT_TRUE(is.is_open());
    std::vector<harness::Json> lines;
    std::string line;
    while (std::getline(is, line)) {
        std::string err;
        lines.push_back(harness::Json::parse(line, &err));
        ASSERT_TRUE(err.empty()) << err << ": " << line;
    }
    ASSERT_GE(lines.size(), 1u);
    const harness::Json &last = lines.back();
    EXPECT_EQ(last["schema"].asString(), kTelemetrySchema);
    EXPECT_TRUE(last["finished"].asBool());
    EXPECT_EQ(last["points"]["done"].asInt(), 2);
    // seq strictly increases line to line.
    for (std::size_t i = 1; i < lines.size(); i++)
        EXPECT_LT(lines[i - 1]["seq"].asInt(),
                  lines[i]["seq"].asInt());
}

TEST(Sampler, HttpEndpointServesMetricsAndHealthFlips)
{
    TelemetryHub hub({0x77, 1, 1}, 1);
    TelemetryConfig cfg;
    cfg.httpPort = 0; // ephemeral
    cfg.intervalSec = 60.0; // never ticks during the test
    cfg.forceTtyMode = 0;
    TelemetrySampler sampler(hub, cfg);
    const std::uint16_t port = sampler.httpPort();
    ASSERT_GT(port, 0);

    std::string resp = base::httpGet(port, "/healthz");
    EXPECT_NE(resp.find("200"), std::string::npos);
    EXPECT_NE(resp.find("ok\n"), std::string::npos);

    resp = base::httpGet(port, "/metrics");
    EXPECT_NE(resp.find("200"), std::string::npos);
    EXPECT_NE(resp.find("hawksim_points_total 1"),
              std::string::npos);
    EXPECT_NE(resp.find("hawksim_campaign_finished 0"),
              std::string::npos);

    resp = base::httpGet(port, "/nope");
    EXPECT_NE(resp.find("404"), std::string::npos);

    hub.pointDone(1, 1, CostAccounting{}, false);
    sampler.finish();
    // The listener outlives finish() so a scraper can observe the
    // terminal state.
    resp = base::httpGet(port, "/healthz");
    EXPECT_NE(resp.find("done\n"), std::string::npos);
    resp = base::httpGet(port, "/metrics");
    EXPECT_NE(resp.find("hawksim_campaign_finished 1"),
              std::string::npos);
}

} // namespace
} // namespace hawksim::obs
