/**
 * @file
 * Three-way reconciliation: introspection snapshots, the invariant
 * auditor's frame/refcount walk and the Metrics time series must all
 * describe the same machine — across policies, with swap pressure,
 * and under fault-injection chaos.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>

#include "hawksim.hh"

using namespace hawksim;

namespace {

std::unique_ptr<policy::HugePagePolicy>
makePolicy(const std::string &name)
{
    if (name == "linux")
        return std::make_unique<policy::LinuxThpPolicy>();
    if (name == "ingens")
        return std::make_unique<policy::IngensPolicy>();
    return std::make_unique<core::HawkEyePolicy>();
}

/** The vmstat.* series sample recorded at @p t, or -1. */
double
seriesValueAt(const sim::Metrics &m, const std::string &name,
              TimeNs t)
{
    if (!m.has(name))
        return -1.0;
    for (const auto &p : m.series(name).points()) {
        if (p.time == t)
            return p.value;
    }
    return -1.0;
}

/** Internal consistency of one snapshot (buddy tiling, RSS sums). */
void
checkSnapshotCoherent(const obs::Snapshot &s)
{
    EXPECT_EQ(s.mem.freeFrames + s.mem.usedFrames, s.mem.totalFrames);
    EXPECT_EQ(s.mem.freeZeroPages + s.mem.freeNonZeroPages,
              s.mem.freeFrames);
    std::uint64_t tiles = 0;
    for (unsigned o = 0; o < obs::kInspectOrders; o++)
        tiles += s.buddy[o].freeBlocks << o;
    EXPECT_EQ(tiles, s.mem.freeFrames);
    std::uint64_t swapped = 0;
    for (const obs::ProcInfo &pi : s.procs) {
        swapped += pi.swappedPages;
        std::uint64_t vma_pop = 0, region_pop = 0;
        for (const obs::VmaInfo &vi : pi.vmas)
            vma_pop += vi.mappedPages;
        for (const obs::RegionInfo &ri : pi.regions)
            region_pop += ri.population;
        EXPECT_EQ(vma_pop, pi.mappedPages) << "pid " << pi.pid;
        EXPECT_EQ(region_pop, pi.mappedPages) << "pid " << pi.pid;
    }
    EXPECT_EQ(swapped, s.mem.swappedPages);
}

/** Snapshot counters vs the vmstat.* Metrics samples at one tick. */
void
checkSnapshotMatchesMetrics(const obs::Snapshot &s,
                            const sim::Metrics &m)
{
    EXPECT_EQ(seriesValueAt(m, "vmstat.free_zero_pages", s.time),
              static_cast<double>(s.mem.freeZeroPages));
    EXPECT_EQ(seriesValueAt(m, "vmstat.swap_used_pages", s.time),
              static_cast<double>(s.mem.swapUsedPages));
    for (unsigned o = 0; o < obs::kInspectOrders; o++) {
        char name[40];
        std::snprintf(name, sizeof(name), "vmstat.free_blocks_o%02u",
                      o);
        EXPECT_EQ(seriesValueAt(m, name, s.time),
                  static_cast<double>(s.buddy[o].freeBlocks))
            << name << " at t=" << s.time;
    }
}

} // namespace

// std::string, not const char *: gtest prints a pointer param with its
// address, which would put a per-build address in the test name.
class Reconcile
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(Reconcile, SnapshotAuditorAndMetricsAgree)
{
    setLogQuiet(true);
    const auto [policy_name, mem_mib] = GetParam();
    sim::SystemConfig cfg;
    cfg.memoryBytes = MiB(static_cast<std::uint64_t>(mem_mib));
    cfg.seed = 17;
    cfg.inspect.everyTicks = 20;
    sim::System sys(cfg);
    sys.setPolicy(makePolicy(policy_name));
    sys.enableSwap(true);

    workload::StreamConfig wc;
    wc.footprintBytes = MiB(24);
    wc.workSeconds = 1.0;
    sys.addProcess("stream",
                   std::make_unique<workload::StreamWorkload>(
                       "stream", wc, Rng(2)));
    workload::LinearTouchConfig lc;
    lc.bytes = MiB(16);
    lc.iterations = 2;
    sys.addProcess("touch",
                   std::make_unique<workload::LinearTouchWorkload>(
                       "touch", lc, Rng(3)));
    sys.runUntilAllDone(sec(60));

    // The auditor cross-checks a fresh snapshot against its own
    // frame-table and refcount walk (snapshot-drift class).
    const fault::AuditReport rep = sys.auditNow();
    EXPECT_TRUE(rep.ok()) << rep.violations.size()
                          << " violations, first: "
                          << (rep.violations.empty()
                                  ? ""
                                  : rep.violations[0].detail);
    EXPECT_FALSE(rep.has(fault::ViolationClass::kSnapshotDrift));

    // Every periodic snapshot reconciles internally and against the
    // vmstat.* series recorded at the same instant.
    ASSERT_NE(sys.vmstat(), nullptr);
    const auto &snaps = sys.vmstat()->snapshots();
    ASSERT_GT(snaps.size(), 2u);
    for (const obs::Snapshot &s : snaps) {
        checkSnapshotCoherent(s);
        checkSnapshotMatchesMetrics(s, sys.metrics());
    }

    // And a live snapshot agrees with the physical-memory counters.
    const obs::Snapshot live = obs::snapshot(sys);
    EXPECT_EQ(live.mem.freeFrames, sys.phys().freeFrames());
    EXPECT_EQ(live.mem.swappedPages, sys.swappedPages());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Reconcile,
    ::testing::Combine(::testing::Values("linux", "ingens",
                                         "hawkeye"),
                       ::testing::Values(64, 128)));

TEST(Reconcile, HoldsUnderFaultInjectionChaos)
{
    setLogQuiet(true);
    for (const std::uint64_t seed : {5u, 11u}) {
        sim::SystemConfig cfg;
        cfg.memoryBytes = MiB(96);
        cfg.seed = seed;
        cfg.inspect.everyTicks = 25;
        cfg.fault.rate = 0.02;
        cfg.fault.auditEvery = 200;
        sim::System sys(cfg);
        sys.setPolicy(std::make_unique<core::HawkEyePolicy>());
        sys.enableSwap(true);

        workload::StreamConfig wc;
        wc.footprintBytes = MiB(48);
        wc.workSeconds = 1.0;
        sys.addProcess("stream",
                       std::make_unique<workload::StreamWorkload>(
                           "stream", wc, Rng(seed)));
        sys.runUntilAllDone(sec(60));

        // Injected allocation failures degrade service, never
        // bookkeeping: the snapshot still reconciles exactly.
        ASSERT_NE(sys.faultInjector(), nullptr);
        EXPECT_GT(sys.auditsRun(), 0u);
        const fault::AuditReport rep = sys.auditNow();
        EXPECT_TRUE(rep.ok())
            << (rep.violations.empty() ? ""
                                       : rep.violations[0].detail);
        for (const obs::Snapshot &s : sys.vmstat()->snapshots()) {
            checkSnapshotCoherent(s);
            checkSnapshotMatchesMetrics(s, sys.metrics());
        }
    }
}
