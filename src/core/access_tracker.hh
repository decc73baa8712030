/**
 * @file
 * Periodic page-table access-bit sampling (HawkEye §3.3).
 *
 * Every sampling period (30s by default) the tracker clears the
 * accessed bits of every eligible region of its process, waits one
 * simulated second, then reads back how many base pages were touched —
 * the region's *access coverage* — and feeds it into a per-region EMA.
 * Ingens uses the same machinery for its idleness tracking; HawkEye's
 * access_map consumes the EMA samples.
 */

#ifndef HAWKSIM_CORE_ACCESS_TRACKER_HH
#define HAWKSIM_CORE_ACCESS_TRACKER_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "base/stats.hh"
#include "base/types.hh"

namespace hawksim::sim {
class Process;
} // namespace hawksim::sim

namespace hawksim::snap {
class Writer;
class Reader;
} // namespace hawksim::snap

namespace hawksim::core {

class AccessTracker
{
  public:
    struct RegionStat
    {
        Ema ema{0.4};
        unsigned lastSample = 0;
        bool isHuge = false;
    };

    /** Called after each completed sample of a region. */
    using SampleHook = std::function<void(std::uint64_t region,
                                          double ema, unsigned raw,
                                          bool is_huge)>;

    explicit AccessTracker(TimeNs period = sec(30),
                           TimeNs window = sec(1))
        : period_(period), window_(window)
    {}

    /** Drive the clear/read state machine. */
    void periodic(sim::Process &proc, TimeNs now);

    /** Force an immediate full sample cycle (tests/experiments). */
    void sampleNow(sim::Process &proc, TimeNs now);

    const std::unordered_map<std::uint64_t, RegionStat> &
    regions() const
    {
        return regions_;
    }

    double
    emaCoverage(std::uint64_t region) const
    {
        auto it = regions_.find(region);
        return it == regions_.end() ? 0.0 : it->second.ema.value();
    }

    /** Forget a region (e.g. after unmap). */
    void forget(std::uint64_t region) { regions_.erase(region); }

    /** Sum of EMA coverage over all non-huge regions — HawkEye-G's
     *  estimate of how much promotion would help this process. */
    double pendingCoverageScore() const;

    /** Sum of EMA coverage over everything (huge included) — the
     *  process's overall estimated TLB footprint. */
    double totalCoverageScore() const;

    void setHook(SampleHook hook) { hook_ = std::move(hook); }
    TimeNs period() const { return period_; }

    /** Sampling state machine + per-region EMAs (hook preserved). */
    void save(snap::Writer &w) const;
    void load(snap::Reader &r);

  private:
    void clearPhase(sim::Process &proc);
    void readPhase(sim::Process &proc);

    TimeNs period_;
    TimeNs window_;
    TimeNs next_clear_ = 0;
    TimeNs read_at_ = 0;
    bool armed_ = false;
    std::unordered_map<std::uint64_t, RegionStat> regions_;
    SampleHook hook_;
};

} // namespace hawksim::core

#endif // HAWKSIM_CORE_ACCESS_TRACKER_HH
