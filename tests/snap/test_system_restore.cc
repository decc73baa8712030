/**
 * @file
 * System-level checkpoint/restore tests: save -> load -> save
 * bit-equality (with the full invariant audit restoreFromBytes runs
 * on every load), byte-identical resumption of chaos runs, fork
 * restores that legally skip sections, replay-to-tick, and the
 * checkpoint-every file emitter.
 *
 * The restore model under test is build-then-load: the caller
 * reconstructs an identical System (same config, seed, policy,
 * processes), then a snapshot overwrites every piece of dynamic
 * state. Equality of two Systems is asserted the strongest way
 * available — their saveImage() bytes — which covers frames, buddy
 * lists, page tables, TLBs, swap, policy daemons, RNG streams,
 * metrics, trace ring and cost accounting in one comparison.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "hawksim.hh"
#include "base/io.hh"
#include "snap/snap.hh"
#include "support/scratch_dir.hh"

using namespace hawksim;

namespace {

/** Workload footprints differ so the two processes stay distinct. */
std::unique_ptr<workload::StreamWorkload>
stream(const std::string &name, std::uint64_t bytes, double seconds,
       std::uint64_t seed)
{
    workload::StreamConfig wc;
    wc.footprintBytes = bytes;
    wc.wssBytes = bytes / 2;
    wc.zipfS = 0.8;
    wc.workSeconds = seconds;
    return std::make_unique<workload::StreamWorkload>(name, wc,
                                                      Rng(seed));
}

/**
 * A chaos system under the HawkEye policy: fault injection armed,
 * audits on every injected fault, OOM killer engaged, tracing and
 * periodic snapshots on — every serializable subsystem active.
 */
std::unique_ptr<sim::System>
makeChaos(bool hawkeye = true, snap::SnapConfig sc = {})
{
    setLogQuiet(true);
    sim::SystemConfig cfg;
    cfg.memoryBytes = MiB(96);
    cfg.seed = 7;
    cfg.fault.rate = 0.02;
    cfg.fault.auditOnFault = true;
    cfg.fault.oomKiller = true;
    cfg.trace.enabled = true;
    cfg.trace.capacity = 1 << 12;
    cfg.inspect.everyTicks = 7;
    cfg.snap = sc;
    auto sys = std::make_unique<sim::System>(cfg);
    if (hawkeye) {
        core::HawkEyeConfig hc;
        hc.samplePeriod = msec(200);
        hc.sampleWindow = msec(50);
        sys->setPolicy(std::make_unique<core::HawkEyePolicy>(hc));
    } else {
        sys->setPolicy(std::make_unique<policy::LinuxThpPolicy>());
    }
    sys->addProcess("alpha", stream("alpha", MiB(24), 0.6, 11));
    sys->addProcess("beta", stream("beta", MiB(12), 0.4, 13));
    return sys;
}

TEST(SystemRestore, SaveLoadSaveIsBitEqual)
{
    auto a = makeChaos();
    for (int i = 0; i < 25; i++)
        a->tick();
    const std::string img = a->saveImage();

    // restoreFromBytes runs the full invariant audit plus the
    // snapshot-roundtrip check (save -> load -> save must be
    // bit-equal) and panics on any violation, so surviving this call
    // is itself the assertion.
    auto b = makeChaos();
    b->restoreFromBytes(img);
    EXPECT_EQ(b->saveImage(), img);
    EXPECT_EQ(b->now(), a->now());
}

TEST(SystemRestore, ResumedChaosRunIsByteIdentical)
{
    // Straight run to completion.
    auto straight = makeChaos();
    straight->runUntilAllDone(sec(30));
    const std::string want = straight->saveImage();

    // Interrupted run: checkpoint at tick 20, rebuild, restore,
    // resume to completion.
    auto first = makeChaos();
    for (int i = 0; i < 20; i++)
        first->tick();
    const std::string cp = first->saveImage();

    auto resumed = makeChaos();
    resumed->restoreFromBytes(cp);
    resumed->runUntilAllDone(sec(30));
    EXPECT_EQ(resumed->saveImage(), want);
}

TEST(SystemRestore, ForkSkipsPolicySectionAcrossPolicies)
{
    // Warm-start a *different* policy from a checkpointed image: the
    // POLI section no longer applies and is legally skipped; the
    // machine state (frames, page tables, TLBs, RNG) still restores
    // and the run continues under the new policy.
    auto linux_sys = makeChaos(/*hawkeye=*/false);
    for (int i = 0; i < 15; i++)
        linux_sys->tick();
    const std::string cp = linux_sys->saveImage();

    auto forked = makeChaos(/*hawkeye=*/true);
    forked->restoreFromBytes(cp);
    EXPECT_EQ(forked->now(), linux_sys->now());
    forked->runUntilAllDone(sec(30));
    for (const auto &p : forked->processes())
        EXPECT_TRUE(p->finished() || p->oomKilled());
}

TEST(SystemRestore, ReplayToTickStopsTheRunLoops)
{
    snap::SnapConfig sc;
    sc.replayToTick = 10;
    auto sys = makeChaos(true, sc);
    sys->run(sec(30));
    EXPECT_EQ(sys->now(), 10 * sys->config().tickQuantum);
    // The limit also halts runUntilAllDone without a timeout panic.
    auto sys2 = makeChaos(true, sc);
    sys2->runUntilAllDone(sec(30));
    EXPECT_EQ(sys2->now(), 10 * sys2->config().tickQuantum);
}

TEST(SystemRestore, CheckpointEveryEmitsResumableFiles)
{
    const test::ScratchDir scratch;
    const std::filesystem::path dir = scratch / "every";
    snap::SnapConfig sc;
    sc.checkpointEvery = 8;
    sc.checkpointPrefix = dir / "cp";
    auto sys = makeChaos(true, sc);
    for (int i = 0; i < 20; i++)
        sys->tick();
    ASSERT_TRUE(std::filesystem::exists(dir / "cp-tick8.snap"));
    ASSERT_TRUE(std::filesystem::exists(dir / "cp-tick16.snap"));

    // A restored run re-emits the checkpoint it was restored from,
    // byte-identically, and then resumes to the same final state.
    const std::string cp16 =
        base::readFile(dir / "cp-tick16.snap");
    const std::filesystem::path dir2 = scratch / "every-resume";
    snap::SnapConfig sc2;
    sc2.checkpointEvery = 8;
    sc2.checkpointPrefix = dir2 / "cp";
    sc2.restorePath = dir / "cp-tick16.snap";
    auto resumed = makeChaos(true, sc2);
    resumed->tick(); // restore applies, tick-16 checkpoint re-emits
    EXPECT_EQ(base::readFile(dir2 / "cp-tick16.snap"), cp16);

    sys->runUntilAllDone(sec(30));
    resumed->runUntilAllDone(sec(30));
    EXPECT_EQ(resumed->saveImage(), sys->saveImage());
}

TEST(SystemRestore, MismatchedRebuildIsRefused)
{
    auto a = makeChaos();
    for (int i = 0; i < 5; i++)
        a->tick();
    const std::string img = a->saveImage();

    // A rebuild with different memory geometry must be refused: the
    // CONF fingerprint exists so a snapshot can never be applied to
    // a machine it does not describe. The refusal is a typed throw
    // (config mismatch is an environment error the supervisor can
    // capture), not an abort.
    sim::SystemConfig cfg;
    cfg.memoryBytes = MiB(64);
    cfg.seed = 7;
    sim::System other(cfg);
    other.setPolicy(std::make_unique<policy::LinuxThpPolicy>());
    try {
        other.restoreFromBytes(img);
        FAIL() << "mismatched restore was accepted";
    } catch (const RecoverableError &e) {
        EXPECT_EQ(e.kind(), RecoverableError::Kind::kConfig);
        EXPECT_NE(std::string(e.what()).find("bytes of memory"),
                  std::string::npos);
    }
}

} // namespace
