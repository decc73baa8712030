/** @file Harness-level tracing & cost-accounting export tests. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "base/rng.hh"
#include "base/types.hh"
#include "harness/runner.hh"
#include "policy/linux_thp.hh"
#include "sim/system.hh"
#include "workload/stream.hh"

namespace hawksim::harness {
namespace {

/** A small real simulation so the trace has fault/promote events. */
void
registerSimBacked(Registry &reg)
{
    reg.add("traced_sim", "observability export probe")
        .axis("mem", {"64", "96"})
        .axis("policy", {"thp", "4k"})
        .run([](const RunContext &ctx) {
            setLogQuiet(true);
            sim::SystemConfig cfg;
            cfg.memoryBytes =
                MiB(std::stoull(ctx.param("mem")));
            cfg.seed = ctx.seed();
            cfg.trace = ctx.trace();
            sim::System sys(cfg);
            policy::LinuxConfig pc;
            pc.thp = ctx.param("policy") == "thp";
            sys.setPolicy(
                std::make_unique<policy::LinuxThpPolicy>(pc));
            workload::StreamConfig wc;
            wc.footprintBytes = MiB(16);
            wc.workSeconds = 0.3;
            sys.addProcess(
                "w", std::make_unique<workload::StreamWorkload>(
                         "w", wc, Rng(1)));
            sys.runUntilAllDone(sec(10));
            RunOutput out;
            out.scalar("faults",
                       static_cast<double>(
                           sys.cost().counter(obs::Counter::kFaults)));
            out.simTimeNs = sys.now();
            out.metrics = std::move(sys.metrics());
            out.captureObs(sys);
            return out;
        });
}

Report
runWith(unsigned jobs, bool traced)
{
    Registry reg;
    registerSimBacked(reg);
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.masterSeed = 7;
    opts.trace.enabled = traced;
    return Runner(opts).run(reg);
}

std::string
traceString(const Report &r)
{
    std::ostringstream os;
    r.writeTrace(os);
    return os.str();
}

} // namespace

TEST(TraceExport, TraceIsByteIdenticalAcrossJobs)
{
    const Report serial = runWith(1, true);
    const Report parallel = runWith(4, true);
    ASSERT_EQ(serial.runs.size(), 4u);
    const std::string a = traceString(serial);
    EXPECT_EQ(a, traceString(parallel));
    EXPECT_GT(a.size(), 1000u); // real events, not just metadata
}

TEST(TraceExport, TraceIsValidChromeTraceJson)
{
    const Report r = runWith(2, true);
    std::string err;
    const Json j = Json::parse(traceString(r), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(j["displayTimeUnit"].asString(), "ns");
    const Json &events = j["traceEvents"];
    ASSERT_GT(events.size(), 4u);
    bool sawFault = false;
    bool sawCounter = false;
    for (const Json &e : events.items()) {
        const std::string ph = e["ph"].asString();
        EXPECT_TRUE(ph == "M" || ph == "X" || ph == "i" ||
                    ph == "C");
        EXPECT_GE(e["pid"].asInt(), 1);
        if (ph != "M" && ph != "C" &&
            e["cat"].asString() == "fault")
            sawFault = true;
        if (ph == "C")
            sawCounter = true;
    }
    EXPECT_TRUE(sawFault);
    EXPECT_TRUE(sawCounter);
    // One Perfetto process per run, named after the grid point.
    EXPECT_EQ(events.at(0)["args"]["name"].asString(),
              "traced_sim/mem=64 policy=thp");
}

TEST(TraceExport, ReportUnchangedByTracing)
{
    // Tracing must observe, never perturb: the canonical report is
    // identical whether or not the tracer ran, except that traced
    // runs additionally carry the tracer's own emit/drop accounting
    // in their cost block (untraced reports keep the historical
    // byte-exact shape).
    const Report off = runWith(2, false);
    const Report on = runWith(2, true);
    const Json joff = off.toJson();
    const Json jon = on.toJson();
    ASSERT_EQ(joff["runs"].size(), jon["runs"].size());
    for (std::size_t i = 0; i < joff["runs"].size(); i++) {
        const Json &roff = joff["runs"].at(i);
        const Json &ron = jon["runs"].at(i);
        EXPECT_EQ(roff["metrics"].dump(), ron["metrics"].dump());
        EXPECT_EQ(roff["scalars"].dump(), ron["scalars"].dump());
        EXPECT_EQ(roff["sim_time_ns"].asInt(),
                  ron["sim_time_ns"].asInt());
        // cost: equal member-by-member, minus the traced-only block.
        bool off_has_trace = false;
        for (const auto &[key, v] : roff["cost"].members()) {
            off_has_trace |= key == "trace";
            EXPECT_EQ(v.dump(), ron["cost"][key].dump()) << key;
        }
        EXPECT_FALSE(off_has_trace);
        EXPECT_GT(ron["cost"]["trace"]["emitted"].asInt(), 0);
    }
    // ... and with tracing off, no events are retained.
    for (const auto &rec : off.runs)
        EXPECT_TRUE(rec.output.trace.empty());
    for (const auto &rec : on.runs)
        EXPECT_FALSE(rec.output.trace.empty());
}

TEST(TraceExport, ReportCarriesCostBlock)
{
    const Report r = runWith(2, false);
    const Json j = r.toJson();
    for (const Json &run : j["runs"].items()) {
        const Json &cost = run["cost"];
        EXPECT_GT(cost["total_ns"].asInt(), 0);
        EXPECT_GT(cost["subsys_ns"]["fault_path"].asInt(), 0);
        EXPECT_GT(cost["counters"]["faults"].asInt(), 0);
        const Json &lat = cost["fault_latency_ns"];
        EXPECT_GT(lat["count"].asInt(), 0);
        EXPECT_GT(lat["p50"].asDouble(), 0.0);
        EXPECT_GE(lat["p95"].asDouble(), lat["p50"].asDouble());
        EXPECT_GE(lat["p99"].asDouble(), lat["p95"].asDouble());
        EXPECT_GE(static_cast<double>(lat["max"].asInt()),
                  lat["p99"].asDouble());
    }
    // The THP run promoted or huge-faulted; the 4KB run did not.
    const Json &thp = j["runs"].at(0)["cost"]["counters"];
    const Json &base = j["runs"].at(1)["cost"]["counters"];
    EXPECT_GT(thp["huge_faults"].asInt() + thp["promotions"].asInt(),
              0);
    EXPECT_EQ(base["huge_faults"].asInt(), 0);
}

TEST(TraceExport, CategoryMaskLimitsExportedEvents)
{
    Registry reg;
    registerSimBacked(reg);
    RunnerOptions opts;
    opts.jobs = 1;
    opts.masterSeed = 7;
    opts.trace.enabled = true;
    opts.trace.mask = obs::catBit(obs::Cat::kProc);
    const Report r = Runner(opts).run(reg);
    for (const auto &rec : r.runs) {
        EXPECT_FALSE(rec.output.trace.empty());
        for (const auto &ev : rec.output.trace)
            EXPECT_EQ(ev.cat, obs::Cat::kProc);
    }
}

TEST(TraceExport, SupervisorInstantsAppearOnlyForNonOkPoints)
{
    // The trace is a canonical artifact: like the report's "status"
    // block, only a point that ended NON-OK may be annotated. A
    // retried-but-recovered point must stay byte-identical to a
    // first-try success (tests/snap/test_recovery_ladder.cc pins
    // that campaign-wide); its retries show only on the runner's
    // stderr line.
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

    const std::string trace = traceString(r);
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
    EXPECT_EQ(traceString(clean).find("supervisor_"),
              std::string::npos);

    // Retried-but-RECOVERED emits nothing either — the determinism
    // contract covers the trace, so only the stderr line may tell.
    Report recovered = r;
    recovered.statuses[1].state = PointStatus::State::kOk;
    recovered.statuses[1].events.pop_back(); // drop the kFailed
    EXPECT_EQ(traceString(recovered).find("supervisor_"),
              std::string::npos);

    // Journal replays are never annotated even if their recorded
    // status carries attempts from a past life.
    Report journal = r;
    journal.statuses[1].fromJournal = true;
    EXPECT_EQ(traceString(journal).find("supervisor_"),
              std::string::npos);
}

} // namespace hawksim::harness
