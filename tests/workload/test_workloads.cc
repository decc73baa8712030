/** @file Workload model tests: chunk structure, phases, presets. */

#include <gtest/gtest.h>

#include <deque>

#include "hawksim.hh"
#include "snap/snap.hh"
#include "snap/state.hh"

using namespace hawksim;

namespace {

struct WlFixture
{
    explicit WlFixture(std::uint64_t mem = MiB(256))
    {
        setLogQuiet(true);
        sim::SystemConfig cfg;
        cfg.memoryBytes = mem;
        sys = std::make_unique<sim::System>(cfg);
        sys->setPolicy(std::make_unique<policy::LinuxThpPolicy>());
    }
    std::unique_ptr<sim::System> sys;
};

} // namespace

TEST(StreamWorkload, InitPhaseTouchesWholeFootprint)
{
    WlFixture f;
    workload::StreamConfig wc;
    wc.footprintBytes = MiB(16);
    wc.workSeconds = 10.0; // still running when we check
    auto &proc = f.sys->addProcess(
        "s", std::make_unique<workload::StreamWorkload>("s", wc,
                                                        Rng(1)));
    f.sys->run(sec(2));
    ASSERT_FALSE(proc.finished());
    EXPECT_EQ(proc.space().mappedPages(), MiB(16) / kPageSize);
}

TEST(StreamWorkload, FinishesAfterWorkSeconds)
{
    WlFixture f;
    workload::StreamConfig wc;
    wc.footprintBytes = MiB(8);
    wc.workSeconds = 1.0;
    wc.accessesPerSec = 1e5; // negligible overhead
    auto &proc = f.sys->addProcess(
        "s", std::make_unique<workload::StreamWorkload>("s", wc,
                                                        Rng(1)));
    f.sys->runUntilAllDone(sec(60));
    ASSERT_TRUE(proc.finished());
    // Runtime ~= workSeconds + init/fault overheads (small here).
    EXPECT_GE(proc.runtime(), sec(1));
    EXPECT_LE(proc.runtime(), sec(3));
}

TEST(StreamWorkload, CoverageRestrictionLimitsPagesPerRegion)
{
    WlFixture f;
    workload::StreamConfig wc;
    wc.footprintBytes = MiB(8);
    wc.coveragePages = 8;
    wc.workSeconds = 1e9;
    wc.initTouchAll = false;
    workload::StreamWorkload wl("s", wc, Rng(1));
    auto &proc = f.sys->addProcess(
        "s", std::make_unique<workload::StreamWorkload>("s", wc,
                                                        Rng(1)));
    auto *stream = static_cast<workload::StreamWorkload *>(
        &proc.workload());
    workload::WorkChunk chunk;
    stream->next(proc, msec(10), chunk);
    for (const auto &s : chunk.sample)
        EXPECT_LT(s.vpn & 511, 8u);
    for (Vpn v : chunk.touches)
        EXPECT_LT(v & 511, 8u);
}

TEST(WorkChunk, ResetClearsStateAndKeepsCapacity)
{
    workload::WorkChunk chunk;
    chunk.compute = 123;
    chunk.faults = {1, 2, 3};
    chunk.faultsAreWrites = false;
    chunk.accessCount = 99;
    chunk.sample = {{4, true}};
    chunk.touches = {5, 6};
    chunk.sequentiality = 0.7;
    chunk.frees = {{4096, 4096}};
    chunk.opsCompleted = 2;
    chunk.done = true;
    const std::size_t faults_cap = chunk.faults.capacity();
    const std::size_t touches_cap = chunk.touches.capacity();

    chunk.reset();
    EXPECT_EQ(chunk.compute, 0);
    EXPECT_TRUE(chunk.faults.empty());
    EXPECT_TRUE(chunk.faultsAreWrites);
    EXPECT_EQ(chunk.accessCount, 0u);
    EXPECT_TRUE(chunk.sample.empty());
    EXPECT_TRUE(chunk.touches.empty());
    EXPECT_EQ(chunk.sequentiality, 0.0);
    EXPECT_TRUE(chunk.frees.empty());
    EXPECT_EQ(chunk.opsCompleted, 0u);
    EXPECT_FALSE(chunk.done);
    // The buffers must be reusable without re-allocation.
    EXPECT_EQ(chunk.faults.capacity(), faults_cap);
    EXPECT_EQ(chunk.touches.capacity(), touches_cap);
}

TEST(WorkChunk, ReusedAcrossNextCallsWithoutStaleState)
{
    // The engine hands the same chunk to every next() call; a
    // workload must fully overwrite it (via reset) so nothing leaks
    // from one quantum into the following one.
    WlFixture f;
    workload::StreamConfig wc;
    wc.footprintBytes = MiB(8);
    wc.workSeconds = 1e9;
    wc.initTouchAll = false;
    auto &proc = f.sys->addProcess(
        "s", std::make_unique<workload::StreamWorkload>("s", wc,
                                                        Rng(1)));
    auto *stream = static_cast<workload::StreamWorkload *>(
        &proc.workload());
    workload::WorkChunk chunk;
    // Poison the chunk; next() must start from a clean slate.
    chunk.done = true;
    chunk.compute = 777;
    chunk.faults = {999999};
    chunk.frees = {{0, 4096}};
    stream->next(proc, msec(10), chunk);
    EXPECT_FALSE(chunk.done);
    for (Vpn v : chunk.faults)
        EXPECT_NE(v, 999999u);
    EXPECT_TRUE(chunk.frees.empty());
}

TEST(LinearTouch, FaultCountMatchesPages)
{
    WlFixture f;
    workload::LinearTouchConfig lc;
    lc.bytes = MiB(8);
    lc.iterations = 3;
    auto &proc = f.sys->addProcess(
        "t", std::make_unique<workload::LinearTouchWorkload>(
                 "t", lc, Rng(1)));
    f.sys->runUntilAllDone(sec(300));
    ASSERT_TRUE(proc.finished());
    auto *wl = static_cast<workload::LinearTouchWorkload *>(
        &proc.workload());
    EXPECT_EQ(wl->touchesDone(), 3 * MiB(8) / kPageSize);
    // Each iteration frees, so the last iteration leaves nothing:
    EXPECT_EQ(proc.space().rssPages(), 0u);
}

TEST(LinearTouch, HugePagesCutFaultsByFiveHundred)
{
    // The Table 1 effect: THP cuts page faults by ~512x for
    // sequential touch patterns.
    auto run = [](bool thp) {
        WlFixture f;
        policy::LinuxConfig c;
        c.thp = thp;
        f.sys->setPolicy(
            std::make_unique<policy::LinuxThpPolicy>(c));
        workload::LinearTouchConfig lc;
        lc.bytes = MiB(64);
        auto &proc = f.sys->addProcess(
            "t", std::make_unique<workload::LinearTouchWorkload>(
                     "t", lc, Rng(1)));
        f.sys->runUntilAllDone(sec(300));
        return proc.pageFaults();
    };
    const std::uint64_t f4k = run(false);
    const std::uint64_t f2m = run(true);
    EXPECT_EQ(f4k, MiB(64) / kPageSize);
    EXPECT_EQ(f2m, MiB(64) / kHugePageSize);
}

TEST(KvStore, InsertDeleteServeLifecycle)
{
    WlFixture f;
    workload::KvConfig kc;
    kc.arenaBytes = MiB(64);
    workload::KvPhase ins;
    ins.type = workload::KvPhase::Type::kInsert;
    ins.count = 4000;
    ins.valueBytes = 4096;
    workload::KvPhase del;
    del.type = workload::KvPhase::Type::kDelete;
    del.fraction = 0.5;
    workload::KvPhase serve;
    serve.type = workload::KvPhase::Type::kServe;
    serve.durationSec = 0.5;
    serve.opsPerSec = 1000;
    kc.phases = {ins, del, serve};
    auto &proc = f.sys->addProcess(
        "kv", std::make_unique<workload::KeyValueStoreWorkload>(
                  "kv", kc, Rng(1)));
    auto *kv = static_cast<workload::KeyValueStoreWorkload *>(
        &proc.workload());
    f.sys->runUntilAllDone(sec(120));
    ASSERT_TRUE(proc.finished());
    EXPECT_EQ(kv->liveValues(), 2000u);
    EXPECT_GT(proc.opsCompleted(), 4000u);
}

TEST(KvStore, DeleteReleasesMemoryViaMadvise)
{
    WlFixture f;
    workload::KvConfig kc;
    kc.arenaBytes = MiB(64);
    workload::KvPhase ins;
    ins.type = workload::KvPhase::Type::kInsert;
    ins.count = 8000;
    workload::KvPhase del;
    del.type = workload::KvPhase::Type::kDelete;
    del.fraction = 0.8;
    workload::KvPhase hold;
    hold.type = workload::KvPhase::Type::kPause;
    hold.durationSec = 1e9; // keep running
    kc.phases = {ins, del, hold};
    policy::LinuxConfig lc;
    lc.thp = false; // base pages: frees return 1:1
    f.sys->setPolicy(std::make_unique<policy::LinuxThpPolicy>(lc));
    auto &proc = f.sys->addProcess(
        "kv", std::make_unique<workload::KeyValueStoreWorkload>(
                  "kv", kc, Rng(1)));
    f.sys->run(sec(20));
    // 80% deleted: RSS reflects the survivors (plus rounding).
    EXPECT_LT(proc.space().rssPages(), 8000u * 3 / 10);
    EXPECT_GT(proc.space().rssPages(), 1000u);
}

TEST(KvStore, SmallValueSlotsAreReused)
{
    WlFixture f;
    workload::KvConfig kc;
    kc.arenaBytes = MiB(64);
    workload::KvPhase ins;
    ins.type = workload::KvPhase::Type::kInsert;
    ins.count = 2000;
    workload::KvPhase del;
    del.type = workload::KvPhase::Type::kDelete;
    del.fraction = 1.0;
    workload::KvPhase ins2 = ins;
    kc.phases = {ins, del, ins2};
    auto &proc = f.sys->addProcess(
        "kv", std::make_unique<workload::KeyValueStoreWorkload>(
                  "kv", kc, Rng(1)));
    f.sys->runUntilAllDone(sec(120));
    // Reinsertion reused the freed slots: footprint did not double.
    EXPECT_LT(proc.space().mappedPages(), 2500u);
}

namespace {

std::string
savedBytes(const workload::KeyValueStoreWorkload &kv)
{
    snap::Writer w;
    w.beginSection("KVST");
    kv.save(w);
    w.endSection();
    return w.bytes();
}

/** A key-value store's saved state, field by field in save() order. */
struct KvImage
{
    Rng rng{0};
    mem::ContentGenerator content{Rng(0)};
    std::uint64_t base = 0;
    std::uint64_t arenaPages = 0;
    std::uint64_t cursor = 0;
    std::deque<std::uint64_t> freeSmall;
    std::uint32_t smallPages = 0;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> live;
    std::uint64_t liveBytes = 0;
    std::uint64_t phase = 0;
    std::uint64_t phaseProgress = 0;
    double phaseTime = 0.0;

    explicit KvImage(const workload::KeyValueStoreWorkload &kv)
    {
        snap::Reader r(savedBytes(kv));
        r.openSection("KVST");
        snap::loadRng(r, rng);
        content.load(r);
        base = r.u64();
        arenaPages = r.u64();
        cursor = r.u64();
        for (std::uint64_t n = r.u64(); n > 0; n--)
            freeSmall.push_back(r.u64());
        smallPages = r.u32();
        for (std::uint64_t n = r.u64(); n > 0; n--) {
            const std::uint64_t first = r.u64();
            live.emplace_back(first, r.u32());
        }
        liveBytes = r.u64();
        phase = r.u64();
        phaseProgress = r.u64();
        phaseTime = r.f64();
        r.endSection();
    }

    std::string
    bytes() const
    {
        snap::Writer w;
        w.beginSection("KVST");
        snap::saveRng(w, rng);
        content.save(w);
        w.u64(base);
        w.u64(arenaPages);
        w.u64(cursor);
        w.u64(freeSmall.size());
        for (std::uint64_t slot : freeSmall)
            w.u64(slot);
        w.u32(smallPages);
        w.u64(live.size());
        for (const auto &[first, pages] : live) {
            w.u64(first);
            w.u32(pages);
        }
        w.u64(liveBytes);
        w.u64(phase);
        w.u64(phaseProgress);
        w.f64(phaseTime);
        w.endSection();
        return w.bytes();
    }
};

/**
 * Clustered expiry as it was first written: erase each run from the
 * middle of the live vector (O(n) per run). Returns the freed ranges
 * as (start, bytes) and leaves @p s as the store's state afterwards.
 */
std::vector<std::pair<Addr, std::uint64_t>>
eraseReferenceDelete(KvImage &s, double fraction,
                     std::uint64_t cluster_run)
{
    const auto target = static_cast<std::uint64_t>(
        fraction * static_cast<double>(s.live.size()));
    std::vector<std::pair<Addr, std::uint64_t>> frees;
    std::uint64_t deleted = 0;
    while (deleted < target && !s.live.empty()) {
        const std::uint64_t idx = s.rng.below(s.live.size());
        const std::uint64_t run = std::min<std::uint64_t>(
            {cluster_run, target - deleted, s.live.size() - idx});
        for (std::uint64_t j = idx; j < idx + run; j++) {
            const auto [first, pages] = s.live[j];
            const std::uint64_t bytes = std::uint64_t{pages} * kPageSize;
            s.liveBytes -= std::min(s.liveBytes, bytes);
            frees.emplace_back(s.base + first * kPageSize, bytes);
            if (pages == s.smallPages)
                s.freeSmall.push_back(first);
            deleted++;
        }
        s.live.erase(s.live.begin() + static_cast<long>(idx),
                     s.live.begin() + static_cast<long>(idx + run));
    }
    s.phase++;
    s.phaseProgress = 0;
    s.phaseTime = 0.0;
    return frees;
}

} // namespace

TEST(KvStore, ClusteredExpiryMatchesEraseReference)
{
    struct Case
    {
        std::uint64_t values; //!< per insert phase (four phases)
        double fraction;
        std::uint64_t clusterRun;
    };
    const Case cases[] = {
        {1000, 0.7, 64},  // the catalogue's shape
        {1000, 1.0, 64},  // everything expires
        {700, 0.5, 2},
        {600, 0.9, 7},
        {50, 0.8, 1000},  // runs longer than the whole store
        {50, 1.0, 1000},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message()
                     << c.values << " x4, fraction " << c.fraction
                     << ", run " << c.clusterRun);
        WlFixture f;
        workload::KvConfig kc;
        kc.arenaBytes = GiB(8);
        // Small (slot-reused) values interleaved with multi-page and
        // huge-aligned ones, so free_small_ order is exercised.
        workload::KvPhase small;
        small.type = workload::KvPhase::Type::kInsert;
        small.count = c.values;
        small.valueBytes = 4096;
        workload::KvPhase multi = small;
        multi.valueBytes = 3 * 4096 - 100;
        workload::KvPhase huge = small;
        huge.count = c.values / 50 + 1;
        huge.valueBytes = MiB(2) + 1;
        workload::KvPhase del;
        del.type = workload::KvPhase::Type::kDelete;
        del.fraction = c.fraction;
        del.clusterRun = c.clusterRun;
        kc.phases = {small, multi, huge, small, del};
        const std::uint64_t inserts = 3 * c.values + huge.count;
        auto &proc = f.sys->addProcess(
            "kv", std::make_unique<workload::KeyValueStoreWorkload>(
                      "kv", kc, Rng(c.values + c.clusterRun)));
        auto &kv =
            static_cast<workload::KeyValueStoreWorkload &>(proc.workload());

        // Drive next() directly: chunks are generated, not executed.
        workload::WorkChunk chunk;
        std::uint64_t inserted = 0;
        while (inserted < inserts) {
            kv.next(proc, msec(10), chunk);
            inserted += chunk.opsCompleted;
        }
        ASSERT_EQ(inserted, inserts);
        ASSERT_EQ(kv.liveValues(), inserts);

        KvImage want(kv);
        const auto want_frees =
            eraseReferenceDelete(want, c.fraction, c.clusterRun);
        kv.next(proc, msec(10), chunk);

        std::vector<std::pair<Addr, std::uint64_t>> frees;
        for (const workload::FreeRange &fr : chunk.frees)
            frees.emplace_back(fr.start, fr.bytes);
        EXPECT_EQ(frees, want_frees);
        EXPECT_EQ(kv.liveValues(), want.live.size());
        EXPECT_EQ(kv.liveBytes(), want.liveBytes);
        EXPECT_EQ(savedBytes(kv), want.bytes());
    }
}

TEST(Presets, FactoriesProduceRunnableWorkloads)
{
    for (const char *which : {"cg", "mg", "bt", "sp", "lu", "ua",
                              "ft"}) {
        auto wl = workload::makeNpb(which, Rng(1),
                                    workload::Scale{64}, 1.0);
        ASSERT_NE(wl, nullptr);
        EXPECT_EQ(wl->name(), std::string(which) + ".D");
        EXPECT_GT(wl->config().footprintBytes, 0u);
    }
    EXPECT_EQ(workload::makeGraph500(Rng(1))->name(), "Graph500");
    EXPECT_EQ(workload::makeXSBench(Rng(1))->name(), "XSBench");
    // Graph500's hot zone sits in the upper VA range (Fig. 6).
    EXPECT_GE(workload::makeGraph500(Rng(1))->config().hotStart,
              0.5);
}
