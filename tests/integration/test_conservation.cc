/**
 * @file
 * Cross-policy conservation properties: under randomized mixes of
 * allocating, freeing and churning workloads, no policy may leak or
 * double-free physical memory, and all bookkeeping must reconcile at
 * exit.
 */

#include <gtest/gtest.h>

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
    if (name == "freebsd")
        return std::make_unique<policy::FreeBsdPolicy>();
    if (name == "ingens")
        return std::make_unique<policy::IngensPolicy>();
    core::HawkEyeConfig c;
    c.usePmu = (name == "hawkeye-pmu");
    return std::make_unique<core::HawkEyePolicy>(c);
}

} // namespace

// std::string params keep pointer addresses out of the test names.
class Conservation
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(Conservation, RandomChurnNeverLeaksMemory)
{
    setLogQuiet(true);
    const auto [policy_name, seed] = GetParam();
    sim::SystemConfig cfg;
    cfg.memoryBytes = MiB(256);
    cfg.seed = static_cast<std::uint64_t>(seed);
    sim::System sys(cfg);
    sys.setPolicy(makePolicy(policy_name));
    Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);

    // A churning KV store + a touch-and-free loop + a stream.
    workload::KvConfig kc;
    kc.arenaBytes = MiB(256);
    workload::KvPhase ins;
    ins.type = workload::KvPhase::Type::kInsert;
    ins.count = 4000 + rng.below(4000);
    workload::KvPhase del;
    del.type = workload::KvPhase::Type::kDelete;
    del.fraction = 0.3 + rng.uniform() * 0.6;
    del.clusterRun = 1 + rng.below(64);
    workload::KvPhase ins2 = ins;
    ins2.count /= 2;
    kc.phases = {ins, del, ins2};
    sys.addProcess("kv",
                   std::make_unique<workload::KeyValueStoreWorkload>(
                       "kv", kc, rng.fork()));

    workload::LinearTouchConfig lc;
    lc.bytes = MiB(32 + rng.below(32));
    lc.iterations = 2;
    sys.addProcess("touch",
                   std::make_unique<workload::LinearTouchWorkload>(
                       "touch", lc, rng.fork()));

    workload::StreamConfig wc;
    wc.footprintBytes = MiB(32 + rng.below(64));
    wc.workSeconds = 1.0 + rng.uniform() * 2.0;
    wc.coveragePages = 1 + static_cast<unsigned>(rng.below(512));
    sys.addProcess("stream",
                   std::make_unique<workload::StreamWorkload>(
                       "stream", wc, rng.fork()));

    sys.runUntilAllDone(sec(600));

    for (auto &proc : sys.processes()) {
        EXPECT_TRUE(proc->finished()) << proc->name();
        EXPECT_FALSE(proc->oomKilled()) << proc->name();
        EXPECT_EQ(proc->space().rssPages(), 0u) << proc->name();
        EXPECT_EQ(proc->space().mappedPages(), 0u) << proc->name();
    }
    // Everything returned except the canonical zero page.
    EXPECT_EQ(sys.phys().usedFrames(), 1u);
    EXPECT_EQ(sys.phys().frame(sys.phys().zeroPagePfn()).mapCount,
              0u);
    sys.phys().buddy().checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(
    Policies, Conservation,
    ::testing::Combine(::testing::Values("linux", "freebsd", "ingens",
                                         "hawkeye", "hawkeye-pmu"),
                       ::testing::Values(1, 2, 3)));

TEST(Conservation, FragmentedChurnReconciles)
{
    setLogQuiet(true);
    sim::SystemConfig cfg;
    cfg.memoryBytes = MiB(256);
    cfg.seed = 99;
    sim::System sys(cfg);
    sys.setPolicy(std::make_unique<core::HawkEyePolicy>());
    sys.fragmentMemoryMovable(1.0, 32);
    const std::uint64_t pinned_used = sys.phys().usedFrames();

    workload::LinearTouchConfig lc;
    lc.bytes = MiB(96);
    lc.iterations = 3;
    sys.addProcess("touch",
                   std::make_unique<workload::LinearTouchWorkload>(
                       "touch", lc, Rng(1)));
    sys.runUntilAllDone(sec(600));
    // Compaction migrates pins around, but their count is conserved.
    EXPECT_EQ(sys.phys().usedFrames(), pinned_used);
    sys.phys().buddy().checkConsistency();
}
