/**
 * @file
 * Virtualization-layer tests: guest allocations get host backing,
 * nested overhead shrinks as the host promotes, balloon and
 * prezero+KSM both return guest-free memory to the host.
 */

#include <gtest/gtest.h>

#include "hawksim.hh"
#include "virt/vm.hh"

using namespace hawksim;

namespace {

sim::SystemConfig
hostConfig(std::uint64_t mem = GiB(1))
{
    sim::SystemConfig cfg;
    cfg.memoryBytes = mem;
    cfg.seed = 11;
    return cfg;
}

std::unique_ptr<workload::StreamWorkload>
guestStream(Rng rng, std::uint64_t bytes, double seconds)
{
    workload::StreamConfig wc;
    wc.footprintBytes = bytes;
    wc.accessesPerSec = 4e6;
    wc.workSeconds = seconds;
    return std::make_unique<workload::StreamWorkload>("guest-app", wc,
                                                      rng);
}

} // namespace

TEST(Virt, GuestAllocationsGetHostBacking)
{
    setLogQuiet(true);
    virt::VirtualSystem vs(hostConfig(),
                           std::make_unique<policy::LinuxThpPolicy>());
    virt::VmOptions opts;
    opts.guestMemBytes = MiB(256);
    auto &vm = vs.addVm("vm1", opts,
                        std::make_unique<policy::LinuxThpPolicy>());
    vm.addGuestProcess("app",
                       guestStream(Rng(3), MiB(96), 1.0));
    vs.run(sec(2));
    // The guest touched ~96MB; host backing should cover at least
    // that much of the guest-physical space.
    EXPECT_GE(vm.hostProcess().space().mappedPages(),
              MiB(96) / kPageSize);
}

TEST(Virt, HostPromotionLowersNestedOverhead)
{
    setLogQuiet(true);
    auto run = [](bool host_thp) {
        policy::LinuxConfig hc;
        hc.thp = host_thp;
        virt::VirtualSystem vs(
            hostConfig(),
            std::make_unique<policy::LinuxThpPolicy>(hc));
        virt::VmOptions opts;
        opts.guestMemBytes = MiB(512);
        auto &vm = vs.addVm(
            "vm1", opts, std::make_unique<policy::LinuxThpPolicy>());
        auto &proc = vm.addGuestProcess(
            "app", guestStream(Rng(3), MiB(256), 4.0));
        vs.runUntilGuestsDone(sec(120));
        return proc.runtime();
    };
    // Huge EPT mappings shrink 2-D walk costs -> faster guest.
    EXPECT_LT(run(true), run(false));
}

TEST(Virt, PrezeroPlusKsmReturnsGuestFreeMemory)
{
    setLogQuiet(true);
    // The host must not run an uncoordinated khugepaged: Linux's
    // max_ptes_none=511 re-promotes regions full of KSM-merged zero
    // pages, undoing every merge (the counter-productive interaction
    // the paper cites [51] — reproduced by this simulator). A
    // HawkEye host promotes by access coverage and leaves the idle
    // merged regions alone.
    virt::VirtualSystem vs(hostConfig(GiB(1)),
                           std::make_unique<core::HawkEyePolicy>());
    vs.enableHostKsm(1e9); // fast scan for the test
    virt::VmOptions opts;
    opts.guestMemBytes = MiB(512);
    auto &vm = vs.addVm("vm1", opts,
                        std::make_unique<core::HawkEyePolicy>());

    // Guest app allocates 256MB, then frees it (one iteration).
    workload::LinearTouchConfig lc;
    lc.bytes = MiB(256);
    lc.iterations = 1;
    vm.addGuestProcess(
        "app", std::make_unique<workload::LinearTouchWorkload>(
                   "app", lc, Rng(5)));
    vs.runUntilGuestsDone(sec(60));
    const std::uint64_t backed_after_free =
        vm.hostProcess().space().rssPages();
    // Let the guest pre-zero daemon and host KSM work.
    vs.run(sec(120));
    const std::uint64_t backed_after_ksm =
        vm.hostProcess().space().rssPages();
    EXPECT_LT(backed_after_ksm, backed_after_free / 2)
        << "KSM should have merged the guest's zeroed free memory";
}

TEST(Virt, BalloonReturnsGuestFreeMemoryImmediately)
{
    setLogQuiet(true);
    virt::VirtualSystem vs(hostConfig(GiB(1)),
                           std::make_unique<policy::LinuxThpPolicy>());
    virt::VmOptions opts;
    opts.guestMemBytes = MiB(512);
    opts.balloon = true;
    auto &vm = vs.addVm("vm1", opts,
                        std::make_unique<policy::LinuxThpPolicy>());
    workload::LinearTouchConfig lc;
    lc.bytes = MiB(256);
    lc.iterations = 1;
    vm.addGuestProcess(
        "app", std::make_unique<workload::LinearTouchWorkload>(
                   "app", lc, Rng(5)));
    vs.runUntilGuestsDone(sec(60));
    vs.run(sec(2));
    EXPECT_LT(vm.hostProcess().space().rssPages(),
              MiB(64) / kPageSize);
}

TEST(Virt, IdleBackingTakesRestOfTickInExitQuanta)
{
    setLogQuiet(true);
    virt::VirtualSystem vs(hostConfig(),
                           std::make_unique<policy::LinuxThpPolicy>());
    virt::VmOptions opts;
    opts.guestMemBytes = MiB(64);
    auto &vm = vs.addVm("vm1", opts,
                        std::make_unique<policy::LinuxThpPolicy>());
    sim::Process &host = vm.hostProcess();
    auto &backing =
        dynamic_cast<virt::VmBackingWorkload &>(host.workload());
    workload::WorkChunk chunk;

    // Nothing pending: one empty chunk for the whole budget, rounded
    // up to whole usec(1) exits, as that many empty exits would cost.
    const std::pair<TimeNs, TimeNs> idle[] = {
        {1, usec(1)},
        {999, usec(1)},
        {usec(1), usec(1)},
        {usec(1) + 1, usec(2)},
        {msec(10) - 1, msec(10)},
    };
    for (const auto &[max_compute, compute] : idle) {
        backing.next(host, max_compute, chunk);
        EXPECT_EQ(chunk.compute, compute) << max_compute;
        EXPECT_TRUE(chunk.faults.empty());
        EXPECT_TRUE(chunk.writes.empty());
        EXPECT_TRUE(chunk.touches.empty());
        EXPECT_TRUE(chunk.frees.empty());
        EXPECT_FALSE(chunk.done);
    }

    // Anything drained costs its exits, at least one.
    backing.pushFault(0, mem::PageContent::zero());
    backing.next(host, msec(10), chunk);
    EXPECT_EQ(chunk.faults.size(), 1u);
    EXPECT_EQ(chunk.compute, usec(1));
    backing.pushTouch(0);
    backing.next(host, msec(10), chunk);
    EXPECT_EQ(chunk.touches.size(), 1u);
    EXPECT_EQ(chunk.compute, usec(1));

    for (Vpn gpa = 0; gpa < 5000; gpa++)
        backing.pushFault(gpa, mem::PageContent::zero());
    backing.next(host, msec(10), chunk);
    EXPECT_EQ(chunk.faults.size(), 4096u);
    EXPECT_EQ(chunk.compute, 4096 * 200);
    backing.next(host, msec(10), chunk);
    EXPECT_EQ(chunk.faults.size(), 5000u - 4096u);
    EXPECT_EQ(chunk.compute, (5000 - 4096) * 200);
}
