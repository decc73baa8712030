/**
 * @file
 * `hawksim_bench` — the single CLI over every paper experiment.
 *
 *   hawksim_bench --list
 *   hawksim_bench --filter fig5 --jobs 8 --seed 42 --out results/fig5.json
 *
 * Registration is explicit (not static initializers): the bench
 * translation units live in one binary, and an explicit call chain
 * keeps the linker from dropping them and makes the registration
 * order — and therefore the grid order and seed derivation — obvious
 * and deterministic.
 */

#include "experiments.hh"
#include "harness/cli.hh"

namespace bench {

void
registerAllExperiments(hawksim::harness::Registry &reg)
{
    registerFig1RedisRss(reg);
    registerFig3FirstNonZero(reg);
    registerFig5PromotionEfficiency(reg);
    registerFig6PromotionTimeline(reg);
    registerFig7Table5Identical(reg);
    registerFig8Heterogeneous(reg);
    registerFig9Virtualization(reg);
    registerFig10PrezeroInterference(reg);
    registerFig11Overcommit(reg);
    registerTable1FaultLatency(reg);
    registerTable2TlbSensitivity(reg);
    registerTable3Npb(reg);
    registerTable7RedisBloat(reg);
    registerTable8FastFaults(reg);
    registerTable9PmuVsG(reg);
    registerAblationHawkEye(reg);
}

} // namespace bench

int
main(int argc, char **argv)
{
    hawksim::harness::Registry reg;
    bench::registerAllExperiments(reg);
    return hawksim::harness::runCli(argc, argv, reg);
}
