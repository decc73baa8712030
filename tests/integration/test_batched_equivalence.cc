/**
 * @file
 * Batched hot path vs. references.
 *
 * `TlbModel::simulate` runs as two batched phases (translate every
 * sample, then probe every staged translation with fused
 * lookup-or-fill probes). The micro-level tests check it bit for bit
 * against `ScalarReference` below: the per-access loop it replaced,
 * with discrete lookup/insert probes, the discrete walk-latency model
 * and a two-walk lookup()+touch() translation per access.
 *
 * The System-level tests pin an FNV-1a digest of each point's metrics
 * CSV, introspection snapshot and counters. The digests were recorded
 * when the simulator still had per-access scalar loops and a page-table
 * translation cache behind runtime switches, and scalar, batched,
 * cache-on and cache-off runs all produced the same digest. The pinned
 * HawkEye point's digest was recorded later, while the tracker hook
 * still re-walked the page table for each region it was handed, and
 * the virtualized point's while each VM's idle host backing process
 * still spent its ticks one usec(1) exit at a time and clustered
 * key-value expiry still erased each run from the middle of a vector.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "harness/json.hh"
#include "harness/seed.hh"
#include "hawksim.hh"
#include "snap/snap.hh"
#include "virt/vm.hh"

using namespace hawksim;
using tlb::AccessSample;
using tlb::SetAssocTlb;
using tlb::TlbBatchResult;
using tlb::TlbConfig;
using tlb::TlbModel;

namespace {

/**
 * Reference TLB hierarchy: same structures, geometry and cost model
 * as `TlbModel`, one access at a time, with every probe a discrete
 * `lookup` followed by an `insert` on a miss.
 */
class ScalarReference
{
  public:
    explicit ScalarReference(const TlbConfig &cfg)
        : cfg_(cfg), l1_4k_(cfg.l1Entries4k, cfg.l1Ways4k),
          l1_2m_(cfg.l1Entries2m, cfg.l1Ways2m),
          l2_(cfg.l2Entries, cfg.l2Ways),
          pwc_pde_(cfg.pwcPdeEntries, 4),
          pwc_pdpte_(cfg.pwcPdpteEntries, cfg.pwcPdpteEntries),
          pt_residency_(cfg.ptResidencyEntries, 8)
    {}

    TlbBatchResult
    simulate(vm::PageTable &pt, const std::vector<AccessSample> &batch,
             double sequentiality, double scale)
    {
        double load_walk = 0.0;
        double store_walk = 0.0;
        std::uint64_t misses = 0;
        std::uint64_t accesses = 0;
        const double overlap =
            1.0 - cfg_.sequentialOverlap * sequentiality;

        for (const auto &a : batch) {
            const vm::Translation t = pt.lookup(a.vpn);
            if (!t.present)
                continue;
            pt.touch(a.vpn, a.write);
            accesses++;
            double walk = 0.0;
            if (t.huge) {
                const std::uint64_t region = a.vpn >> 9;
                const std::uint64_t l2key = (region << 1) | 1;
                if (l1_2m_.lookup(region)) {
                    // L1 hit: free
                } else if (l2_.lookup(l2key)) {
                    walk = static_cast<double>(cfg_.l2HitCycles);
                    l1_2m_.insert(region);
                } else {
                    misses++;
                    walk = static_cast<double>(walkLatency(a.vpn, true)) *
                           overlap;
                    l1_2m_.insert(region);
                    l2_.insert(l2key);
                }
            } else {
                const std::uint64_t l2key = a.vpn << 1;
                if (l1_4k_.lookup(a.vpn)) {
                    // L1 hit: free
                } else if (l2_.lookup(l2key)) {
                    walk = static_cast<double>(cfg_.l2HitCycles);
                    l1_4k_.insert(a.vpn);
                } else {
                    misses++;
                    walk = static_cast<double>(walkLatency(a.vpn, false)) *
                           overlap;
                    l1_4k_.insert(a.vpn);
                    l2_.insert(l2key);
                }
            }
            if (a.write)
                store_walk += walk;
            else
                load_walk += walk;
        }

        TlbBatchResult res;
        res.accesses = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(accesses) * scale));
        res.misses = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(misses) * scale));
        const auto load_cycles = static_cast<std::uint64_t>(
            std::llround(load_walk * scale));
        const auto store_cycles = static_cast<std::uint64_t>(
            std::llround(store_walk * scale));
        res.walkCycles = static_cast<Cycles>(load_cycles + store_cycles);
        counters_.tlbAccesses += res.accesses;
        counters_.tlbMisses += res.misses;
        counters_.dtlbLoadWalkCycles += load_cycles;
        counters_.dtlbStoreWalkCycles += store_cycles;
        return res;
    }

    const tlb::PerfCounters &counters() const { return counters_; }

    /** `TlbModel::save`'s layout; the audit log is never enabled. */
    void
    save(snap::Writer &w) const
    {
        w.f64(cfg_.nestedWalkFactor);
        for (const SetAssocTlb *s : {&l1_4k_, &l1_2m_, &l2_, &pwc_pde_,
                                     &pwc_pdpte_, &pt_residency_})
            s->save(w);
        counters_.save(w);
        w.u64(0); // 2M audit-log entries
        w.u64(0); // 4K audit-log entries
    }

  private:
    Cycles
    walkLatency(Vpn vpn, bool huge)
    {
        Cycles cost = 0;
        auto load = [&](std::uint64_t line_id) {
            if (pt_residency_.lookup(line_id)) {
                cost += cfg_.ptCachedLoadCycles;
            } else {
                cost += cfg_.ptMemoryLoadCycles;
                pt_residency_.insert(line_id);
            }
        };
        cost += 4; // PML4: always cached
        if (!pwc_pdpte_.lookup(vpn >> 18)) {
            load((vpn >> 21) | (1ull << 60)); // PDPTE line
            pwc_pdpte_.insert(vpn >> 18);
        }
        if (huge) {
            load((vpn >> 12) | (2ull << 60)); // PDE is the leaf
        } else {
            if (!pwc_pde_.lookup(vpn >> 9)) {
                load((vpn >> 12) | (2ull << 60)); // PDE line
                pwc_pde_.insert(vpn >> 9);
            }
            load((vpn >> 3) | (3ull << 60)); // PTE line
        }
        if (cfg_.nested)
            cost = static_cast<Cycles>(static_cast<double>(cost) *
                                       cfg_.nestedWalkFactor);
        return cost;
    }

    TlbConfig cfg_;
    SetAssocTlb l1_4k_;
    SetAssocTlb l1_2m_;
    SetAssocTlb l2_;
    SetAssocTlb pwc_pde_;
    SetAssocTlb pwc_pdpte_;
    SetAssocTlb pt_residency_;
    tlb::PerfCounters counters_;
};

/** Everything one micro-level simulate run can observably produce. */
struct TlbRunResult
{
    std::vector<TlbBatchResult> batches;
    std::uint64_t loadWalkCycles = 0;
    std::uint64_t storeWalkCycles = 0;
    std::uint64_t unhalted = 0;
    std::uint64_t tlbAccesses = 0;
    std::uint64_t tlbMisses = 0;
    /** Accessed/dirty bit pattern over every leaf, walk order. */
    std::string adBits;
    /** Serialized TLB structures: every key and LRU stamp. */
    std::string image;

    bool
    operator==(const TlbRunResult &o) const
    {
        if (batches.size() != o.batches.size())
            return false;
        for (std::size_t i = 0; i < batches.size(); i++) {
            if (batches[i].accesses != o.batches[i].accesses ||
                batches[i].misses != o.batches[i].misses ||
                batches[i].walkCycles != o.batches[i].walkCycles)
                return false;
        }
        return loadWalkCycles == o.loadWalkCycles &&
               storeWalkCycles == o.storeWalkCycles &&
               unhalted == o.unhalted &&
               tlbAccesses == o.tlbAccesses &&
               tlbMisses == o.tlbMisses && adBits == o.adBits &&
               image == o.image;
    }
};

/**
 * Map `pages4k` base pages and `regions2m` huge regions above them,
 * then run several simulate batches (mixed reads/writes, varying
 * sequentiality and scale) against a fresh @p Model.
 */
template <class Model>
TlbRunResult
runTlbStream(const TlbConfig &cfg, std::uint64_t pages4k,
             std::uint64_t regions2m, std::uint64_t seed)
{
    vm::PageTable pt;
    for (Vpn v = 0; v < pages4k; v++)
        pt.mapBase(v, v);
    const Vpn hugeBase = ((pages4k + 511) / 512 + 1) * 512;
    for (std::uint64_t r = 0; r < regions2m; r++)
        pt.mapHuge(hugeBase + (r << 9), r << 9);

    Model model(cfg);
    Rng rng(seed);
    TlbRunResult res;
    const double seqs[] = {0.0, 0.7, 0.3};
    const double scales[] = {1.0, 16.0, 3.5};
    for (int b = 0; b < 3; b++) {
        std::vector<AccessSample> batch;
        batch.reserve(512);
        for (int i = 0; i < 512; i++) {
            AccessSample a;
            const bool huge =
                regions2m != 0 &&
                (pages4k == 0 || rng.chance(0.5));
            if (huge) {
                a.vpn = hugeBase + rng.below(regions2m * 512);
            } else {
                a.vpn = rng.below(pages4k);
            }
            a.write = rng.chance(0.3);
            batch.push_back(a);
        }
        res.batches.push_back(
            model.simulate(pt, batch, seqs[b], scales[b]));
    }
    res.loadWalkCycles = model.counters().dtlbLoadWalkCycles;
    res.storeWalkCycles = model.counters().dtlbStoreWalkCycles;
    res.unhalted = model.counters().cpuClkUnhalted;
    res.tlbAccesses = model.counters().tlbAccesses;
    res.tlbMisses = model.counters().tlbMisses;
    pt.forEachLeaf([&](Vpn, const vm::Pte &e, bool huge) {
        res.adBits += static_cast<char>('0' + (e.accessed() ? 1 : 0) +
                                        (e.dirty() ? 2 : 0) +
                                        (huge ? 4 : 0));
    });
    snap::Writer w;
    w.beginSection("TLBS");
    model.save(w);
    w.endSection();
    res.image = w.bytes();
    return res;
}

std::unique_ptr<policy::HugePagePolicy>
makePolicy(const std::string &name)
{
    if (name == "hawkeye")
        return std::make_unique<core::HawkEyePolicy>();
    if (name == "hawkeye-fast-sampling") {
        core::HawkEyeConfig c;
        c.samplePeriod = msec(200);
        c.sampleWindow = msec(50);
        return std::make_unique<core::HawkEyePolicy>(c);
    }
    if (name == "ingens")
        return std::make_unique<policy::IngensPolicy>();
    if (name == "linux")
        return std::make_unique<policy::LinuxThpPolicy>();
    return std::make_unique<policy::FreeBsdPolicy>();
}

/** Digest of a full-system run, plus what the chaos test and the
 *  pinned HawkEye test inspect. */
struct SystemRun
{
    std::uint64_t digest = 0;
    std::uint64_t injected = 0;
    /** A base-mapped region with a tracked EMA > 0 in the map. */
    bool trackedBaseRegion = false;
};

/**
 * One grid point: fragmented memory (movable pins, plus unmovable
 * pins in @p pinned of the 2 MB blocks), a zipfian stream, run to a
 * mid-flight point, then digest everything an experiment report
 * could contain: the metrics CSV, the introspection snapshot (which
 * embeds tracker EMAs and access-map buckets per region and TLB
 * occupancy), the walk-cycle and fault counters and the
 * fault-injection tallies.
 */
SystemRun
runSystem(const std::string &policy, std::uint64_t memBytes,
          double faultRate, std::uint64_t seed, double pinned = 0.0)
{
    setLogQuiet(true);
    sim::SystemConfig cfg;
    cfg.memoryBytes = memBytes;
    cfg.seed = seed;
    cfg.fault.rate = faultRate;
    if (faultRate > 0.0) {
        cfg.fault.oomKiller = true;
        cfg.fault.auditEvery = 50;
    }
    sim::System sys(cfg);
    sys.setPolicy(makePolicy(policy));
    sys.fragmentMemoryMovable(0.6, 16);
    if (pinned > 0.0)
        sys.fragmentMemory(pinned);

    workload::StreamConfig wc;
    wc.footprintBytes = memBytes / 4;
    wc.hotStart = 0.4;
    wc.hotEnd = 1.0;
    wc.hotFraction = 0.8;
    wc.zipfS = 0.5;
    wc.accessesPerSec = 4e6;
    wc.workSeconds = 2.0;
    auto &proc = sys.addProcess(
        "w", std::make_unique<workload::StreamWorkload>("w", wc,
                                                        Rng(seed)));
    sys.run(sec(2)); // mid-flight: EMAs and TLB state still warm

    SystemRun r;
    std::uint64_t fallbacks = 0, oomKills = 0;
    if (const fault::FaultInjector *fi = sys.faultInjector()) {
        r.injected = fi->totalInjected();
        fallbacks = fi->degradation().hugeFallbacks;
        oomKills = fi->degradation().oomKills;
    }
    const obs::Snapshot snap = obs::snapshot(sys);
    for (const obs::ProcInfo &p : snap.procs) {
        for (const obs::RegionInfo &reg : p.regions) {
            if (!reg.huge && reg.ema > 0.0 && reg.bucket >= 0)
                r.trackedBaseRegion = true;
        }
    }
    std::ostringstream os;
    sys.metrics().writeCsv(os);
    os << obs::snapshotToJson(snap).dump()
       << proc.counters().walkCycles() << ' ' << proc.pageFaults()
       << ' ' << r.injected << ' ' << fallbacks << ' ' << oomKills;
    r.digest = harness::fnv1a(os.str());
    return r;
}

/**
 * Two small VMs on a host with KSM, HawkEye at both layers: one runs
 * a key-value store that loads, expires 70% of its values in runs of
 * 64 and serves; the other streams. Digest the host metrics CSV, the
 * host's cost accounting and KSM tallies, and every process's
 * counters on both layers.
 */
std::uint64_t
runVirtualSystem()
{
    setLogQuiet(true);
    sim::SystemConfig host_cfg;
    host_cfg.memoryBytes = MiB(512);
    host_cfg.seed = 5;
    host_cfg.costs.zeroDaemonPagesPerSec = 100'000.0;
    virt::VirtualSystem vs(host_cfg, makePolicy("hawkeye"));
    vs.enableHostKsm(300'000.0);
    virt::VmOptions opts;
    opts.guestMemBytes = MiB(256);

    opts.seed = 1;
    auto &kv_vm = vs.addVm("vm-kv", opts, makePolicy("hawkeye"));
    workload::KvConfig kc;
    kc.arenaBytes = MiB(512);
    kc.servesForever = true;
    workload::KvPhase load;
    load.type = workload::KvPhase::Type::kInsert;
    load.count = 40'000;
    load.opsPerSec = 150'000;
    workload::KvPhase del;
    del.type = workload::KvPhase::Type::kDelete;
    del.fraction = 0.7;
    del.clusterRun = 64;
    workload::KvPhase serve;
    serve.type = workload::KvPhase::Type::kServe;
    serve.durationSec = 1e6;
    serve.opsPerSec = 50'000;
    kc.phases = {load, del, serve};
    kv_vm.addGuestProcess(
        "kv", std::make_unique<workload::KeyValueStoreWorkload>(
                  "kv", kc, Rng(21)));

    opts.seed = 2;
    auto &stream_vm = vs.addVm("vm-stream", opts, makePolicy("hawkeye"));
    workload::StreamConfig wc;
    wc.footprintBytes = MiB(96);
    wc.zipfS = 0.4;
    wc.accessesPerSec = 2.5e6;
    wc.workSeconds = 1e6;
    stream_vm.addGuestProcess(
        "stream", std::make_unique<workload::StreamWorkload>(
                      "stream", wc, Rng(22)));

    vs.run(sec(3));

    std::ostringstream os;
    vs.host().metrics().writeCsv(os);
    snap::Writer w;
    w.beginSection("DGST");
    vs.host().cost().save(w);
    w.u64(vs.hostKsm()->stats().pagesScanned);
    w.u64(vs.hostKsm()->stats().zeroMerged);
    w.u64(vs.hostKsm()->stats().dupMerged);
    auto processCounters = [&](sim::System &sys) {
        for (const auto &proc : sys.processes()) {
            proc->counters().save(w);
            w.u64(proc->pageFaults());
            w.u64(proc->cowFaults());
            w.u64(proc->opsCompleted());
            w.i64(proc->faultTime());
        }
    };
    processCounters(vs.host());
    for (const auto &vm : vs.vms())
        processCounters(vm->guest());
    w.endSection();
    os << w.bytes();
    return harness::fnv1a(os.str());
}

} // namespace

/**
 * Micro level: the two-phase batched simulate must reproduce the
 * scalar reference bit-for-bit — results, all five counters, the
 * accessed/dirty bits it leaves in the page table and every TLB
 * structure's keys and LRU stamps — across page-size mixes and both
 * probe geometries (the specialized 4/8-way fused probes and the
 * generic fallback).
 */
TEST(BatchedEquivalence, TlbSimulateBitIdentical)
{
    struct Case
    {
        std::uint64_t pages4k, regions2m;
    };
    const Case cases[] = {{4096, 0}, {0, 16}, {3000, 8}};
    for (const Case &c : cases) {
        const TlbRunResult scalar = runTlbStream<ScalarReference>(
            TlbConfig::haswell(), c.pages4k, c.regions2m, 11);
        const TlbRunResult batched = runTlbStream<TlbModel>(
            TlbConfig::haswell(), c.pages4k, c.regions2m, 11);
        EXPECT_TRUE(scalar == batched)
            << "4k=" << c.pages4k << " 2m=" << c.regions2m;
    }

    // Odd geometry: 2-way sets take the generic (non-templated)
    // probe path, and 48 sets is not a power of two, so the set
    // mapping takes the division fallback.
    TlbConfig odd;
    odd.l1Entries4k = 96;
    odd.l1Ways4k = 2;
    odd.l2Ways = 16;
    const TlbRunResult scalar =
        runTlbStream<ScalarReference>(odd, 2048, 4, 7);
    const TlbRunResult batched = runTlbStream<TlbModel>(odd, 2048, 4, 7);
    EXPECT_TRUE(scalar == batched) << "generic probe geometry";
}

/** Nested (virtualized) walks scale latencies; the scaling must
 *  commute with batching too. */
TEST(BatchedEquivalence, TlbSimulateNestedBitIdentical)
{
    const TlbRunResult scalar = runTlbStream<ScalarReference>(
        TlbConfig::haswellVirtualized(), 2048, 8, 3);
    const TlbRunResult batched = runTlbStream<TlbModel>(
        TlbConfig::haswellVirtualized(), 2048, 8, 3);
    EXPECT_TRUE(scalar == batched);
}

/**
 * System level: across a policy × memory grid, a run must reproduce
 * the pinned digest of its metrics CSV, introspection snapshot and
 * counters.
 */
TEST(BatchedEquivalence, PolicyMemoryGridReportsIdentical)
{
    struct Point
    {
        const char *policy;
        std::uint64_t mem;
        std::uint64_t digest;
    };
    const Point grid[] = {
        {"hawkeye", MiB(128), 0x085022f2f143baf2ull},
        {"hawkeye", MiB(256), 0x0576739202ef547bull},
        {"ingens", MiB(128), 0x0b84cf18dc92a466ull},
        {"ingens", MiB(256), 0x404969b488c42aa2ull},
        {"linux", MiB(128), 0x64261858b066de12ull},
        {"freebsd", MiB(128), 0xd1afdbbdbe0c6214ull},
    };
    for (const Point &p : grid) {
        EXPECT_EQ(runSystem(p.policy, p.mem, 0.0, 42).digest, p.digest)
            << p.policy << "/" << p.mem / MiB(1) << "MiB";
    }
}

/**
 * Chaos: with probabilistic fault injection, the OOM killer and
 * periodic invariant audits enabled, the injection schedule, the
 * degradation tallies and the final reports must still match the
 * pinned digest — the batched loops may not reorder or add
 * fault-site probes.
 */
TEST(BatchedEquivalence, ChaosFaultRateRunIdentical)
{
    const SystemRun run = runSystem("hawkeye", MiB(96), 0.02, 1234);
    EXPECT_EQ(run.digest, 0x4125bcbc16117fcdull);
    EXPECT_GT(run.injected, 0u); // the chaos path actually ran
}

/**
 * A point outside the grid whose digest was recorded from a run with
 * the translation cache off: the fused page-table walk must land on
 * the same bytes.
 */
TEST(BatchedEquivalence, TcacheOffStillIdentical)
{
    EXPECT_EQ(runSystem("hawkeye", MiB(192), 0.0, 7).digest,
              0xb9bb64f087250e65ull);
}

/**
 * HawkEye against unmovable fragmentation: with pins in 80% of the
 * 2 MB blocks, many of the stream's huge faults fall back to base
 * pages, so the access tracker's hook feeds those regions' EMAs into
 * the access map (its update branch), and with a sample every 200 ms
 * the promotion order follows them. On the grid points the whole
 * stream is huge-mapped by its first faults, so there the hook only
 * ever removes regions from the map.
 */
TEST(BatchedEquivalence, PinnedHawkEyeTracksBaseRegions)
{
    const SystemRun run =
        runSystem("hawkeye-fast-sampling", MiB(256), 0.0, 42, 0.8);
    EXPECT_TRUE(run.trackedBaseRegion);
    EXPECT_EQ(run.digest, 0x2b000cec9e00e595ull);
}

/**
 * Virtualized: guest faults replayed on the host, host KSM, guest
 * pre-zeroing and clustered key-value expiry must reproduce the
 * pinned digest of the host's metrics and cost accounting and of
 * every process's counters.
 */
TEST(BatchedEquivalence, VirtualSystemRunIdentical)
{
    EXPECT_EQ(runVirtualSystem(), 0x1d6aa1c02c4f14c5ull);
}

/** bucketFor's branchless clamp must keep the exact bucket mapping,
 *  including both edges and the out-of-range guard. */
TEST(BatchedEquivalence, BucketForClampExact)
{
    using core::AccessMap;
    EXPECT_EQ(AccessMap::bucketFor(0.0), 0u);
    EXPECT_EQ(AccessMap::bucketFor(51.1), 0u);
    EXPECT_EQ(AccessMap::bucketFor(51.2), 1u);
    EXPECT_EQ(AccessMap::bucketFor(256.0), 5u);
    EXPECT_EQ(AccessMap::bucketFor(511.9), 9u);
    EXPECT_EQ(AccessMap::bucketFor(512.0), 9u); // clamped top edge
    EXPECT_EQ(AccessMap::bucketFor(10000.0), 9u);
    for (unsigned cov = 0; cov <= 512; cov++) {
        const unsigned ref = std::min(
            static_cast<unsigned>(cov / (512.0 / 10)), 9u);
        EXPECT_EQ(AccessMap::bucketFor(cov), ref) << cov;
    }
}
