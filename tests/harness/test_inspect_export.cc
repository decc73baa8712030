/** @file Harness-level introspection export tests: --inspect-out
 *  determinism, report purity, schema pinning, counter tracks. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "harness/runner.hh"
#include "policy/linux_thp.hh"
#include "sim/system.hh"
#include "workload/stream.hh"

namespace hawksim::harness {
namespace {

/** A small real simulation so snapshots have populated memory. */
void
registerSimBacked(Registry &reg)
{
    reg.add("inspected_sim", "introspection export probe")
        .axis("mem", {"64", "96"})
        .axis("policy", {"thp", "4k"})
        .run([](const RunContext &ctx) {
            setLogQuiet(true);
            sim::SystemConfig cfg;
            cfg.memoryBytes =
                MiB(std::stoull(ctx.param("mem")));
            cfg.seed = ctx.seed();
            cfg.trace = ctx.trace();
            cfg.inspect = ctx.inspect();
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
runWith(unsigned jobs, std::uint64_t inspect_every,
        bool traced = false, std::size_t trace_capacity = 1 << 16)
{
    Registry reg;
    registerSimBacked(reg);
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.masterSeed = 7;
    opts.inspect.everyTicks = inspect_every;
    opts.trace.enabled = traced;
    opts.trace.capacity = trace_capacity;
    return Runner(opts).run(reg);
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

} // namespace

TEST(InspectExport, DumpIsByteIdenticalAcrossJobs)
{
    const Report serial = runWith(1, 10);
    const Report parallel = runWith(8, 10);
    ASSERT_EQ(serial.runs.size(), 4u);
    for (const auto &rec : serial.runs)
        EXPECT_FALSE(rec.output.snapshots.empty());
    const std::string a = serial.inspectJson().dump();
    const std::string b = parallel.inspectJson().dump();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find(obs::kInspectSchema), std::string::npos);
    EXPECT_GT(a.size(), 1000u);
}

TEST(InspectExport, ReportUnchangedByIntrospection)
{
    // Snapshots must observe, never perturb: everything the canonical
    // report carried before this feature stays byte-identical; runs
    // with introspection enabled only *add* vmstat.* series.
    const Report off = runWith(2, 0);
    const Report on = runWith(2, 10);
    const Json joff = off.toJson();
    const Json jon = on.toJson();
    ASSERT_EQ(joff["runs"].size(), jon["runs"].size());
    for (std::size_t i = 0; i < joff["runs"].size(); i++) {
        const Json &roff = joff["runs"].at(i);
        const Json &ron = jon["runs"].at(i);
        EXPECT_EQ(roff["scalars"].dump(), ron["scalars"].dump());
        EXPECT_EQ(roff["cost"].dump(), ron["cost"].dump());
        EXPECT_EQ(roff["sim_time_ns"].asInt(),
                  ron["sim_time_ns"].asInt());
        EXPECT_EQ(roff["metrics"]["events"].dump(),
                  ron["metrics"]["events"].dump());
        for (const auto &[name, series] :
             roff["metrics"]["series"].members()) {
            EXPECT_EQ(series.dump(),
                      ron["metrics"]["series"][name].dump())
                << name;
        }
        for (const auto &[name, series] :
             jon["runs"].at(i)["metrics"]["series"].members()) {
            (void)series;
            if (!roff["metrics"]["series"].contains(name)) {
                EXPECT_EQ(name.substr(0, 7), "vmstat.") << name;
            }
        }
    }
    for (const auto &rec : off.runs)
        EXPECT_TRUE(rec.output.snapshots.empty());
    // The disabled-side dump is a valid (empty) inspect artifact.
    const Json empty = off.inspectJson();
    EXPECT_EQ(empty["schema"].asString(), obs::kInspectSchema);
    for (const Json &run : empty["runs"].items())
        EXPECT_EQ(run["snapshots"].size(), 0u);
}

TEST(InspectExport, SchemaFieldSignatureIsPinned)
{
    // The exact field set of hawksim-inspect/v1. If this test fails,
    // you changed the snapshot schema: bump obs::kInspectSchema and
    // update the signature here instead of silently republishing v1.
    ASSERT_STREQ(obs::kInspectSchema, "hawksim-inspect/v1");
    const Report r = runWith(1, 10);
    const Json dump = r.inspectJson();
    EXPECT_EQ(keysOf(dump), "schema,master_seed,run_count,runs");
    ASSERT_GT(dump["runs"].size(), 0u);
    const Json &run = dump["runs"].at(0);
    EXPECT_EQ(keysOf(run), "experiment,index,params,seed,snapshots");
    ASSERT_GT(run["snapshots"].size(), 0u);
    const Json &snap = run["snapshots"].at(0);
    EXPECT_EQ(keysOf(snap), "time_ns,tick,meminfo,buddyinfo,processes");
    EXPECT_EQ(keysOf(snap["meminfo"]),
              "total_frames,free_frames,used_frames,free_zero_pages,"
              "free_nonzero_pages,largest_free_order,fmfi9,"
              "swap_used_pages,swap_capacity_pages,swapped_pages,"
              "swap_total_out,swap_total_in");
    EXPECT_EQ(keysOf(snap["buddyinfo"]),
              "free_blocks,free_zero_blocks");
    ASSERT_GT(snap["processes"].size(), 0u);
    const Json &proc = snap["processes"].at(0);
    EXPECT_EQ(keysOf(proc),
              "pid,name,finished,oom,rss_pages,mapped_pages,"
              "base_pages,huge_pages,swapped_pages,zero_backed_pages,"
              "page_faults,cow_faults,mmu_overhead_pct,tlb,smaps,"
              "pagemap");
    EXPECT_EQ(keysOf(proc["tlb"]),
              "l1_4k,l1_2m,l2,pwc_pde,pwc_pdpte");
    ASSERT_GT(proc["smaps"].size(), 0u);
    EXPECT_EQ(keysOf(proc["smaps"].at(0)),
              "start,end,name,anon,huge_eligible,mapped_pages,"
              "rss_pages,huge_regions,accessed_pages,dirty_pages,"
              "zero_cow_pages,zero_backed_pages,swapped_pages");
    ASSERT_GT(proc["pagemap"].size(), 0u);
    EXPECT_EQ(keysOf(proc["pagemap"].at(0)),
              "region,population,accessed,dirty,huge,zero_cow,"
              "zero_backed,ema,bucket");
}

TEST(InspectExport, TraceGainsCounterAndDropTracks)
{
    // A deliberately tiny ring forces drops so the drop-accounting
    // metadata is exercised too.
    const Report r = runWith(1, 10, /*traced=*/true,
                             /*trace_capacity=*/64);
    std::ostringstream os;
    r.writeTrace(os);
    const std::string t = os.str();
    EXPECT_NE(t.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(t.find("sys.fmfi9_x1000"), std::string::npos);
    EXPECT_NE(t.find("sys.free_frames"), std::string::npos);
    EXPECT_NE(t.find("vmstat.free_zero_pages"), std::string::npos);
    EXPECT_NE(t.find("cost.fault_p50_ns"), std::string::npos);
    EXPECT_NE(t.find("cost.fault_p99_ns"), std::string::npos);
    EXPECT_NE(t.find("p1.rss_pages"), std::string::npos);
    EXPECT_NE(t.find("tracer_drops"), std::string::npos);

    std::string err;
    const Json j = Json::parse(t, &err);
    ASSERT_TRUE(err.empty()) << err;
    bool saw_drop_meta = false;
    for (const Json &e : j["traceEvents"].items()) {
        if (e["name"].asString() != "tracer_drops")
            continue;
        saw_drop_meta = true;
        EXPECT_GT(e["args"]["dropped"].asInt(), 0);
        EXPECT_GT(e["args"]["emitted"].asInt(),
                  e["args"]["dropped"].asInt());
    }
    EXPECT_TRUE(saw_drop_meta);
}

} // namespace hawksim::harness
