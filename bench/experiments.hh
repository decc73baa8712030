/**
 * @file
 * Registration functions of every paper experiment.
 *
 * Each bench translation unit registers one figure or table of
 * the paper as a (policy × workload × config) grid on the harness
 * registry; registerAllExperiments() is what `hawksim_bench` calls.
 */

#ifndef HAWKSIM_BENCH_EXPERIMENTS_HH
#define HAWKSIM_BENCH_EXPERIMENTS_HH

#include "harness/experiment.hh"

namespace bench {

void registerFig1RedisRss(hawksim::harness::Registry &reg);
void registerFig3FirstNonZero(hawksim::harness::Registry &reg);
void registerFig5PromotionEfficiency(hawksim::harness::Registry &reg);
void registerFig6PromotionTimeline(hawksim::harness::Registry &reg);
void registerFig7Table5Identical(hawksim::harness::Registry &reg);
void registerFig8Heterogeneous(hawksim::harness::Registry &reg);
void registerFig9Virtualization(hawksim::harness::Registry &reg);
void registerFig10PrezeroInterference(hawksim::harness::Registry &reg);
void registerFig11Overcommit(hawksim::harness::Registry &reg);
void registerTable1FaultLatency(hawksim::harness::Registry &reg);
void registerTable2TlbSensitivity(hawksim::harness::Registry &reg);
void registerTable3Npb(hawksim::harness::Registry &reg);
void registerTable7RedisBloat(hawksim::harness::Registry &reg);
void registerTable8FastFaults(hawksim::harness::Registry &reg);
void registerTable9PmuVsG(hawksim::harness::Registry &reg);
void registerAblationHawkEye(hawksim::harness::Registry &reg);

/** Register every experiment above. */
void registerAllExperiments(hawksim::harness::Registry &reg);

} // namespace bench

#endif // HAWKSIM_BENCH_EXPERIMENTS_HH
