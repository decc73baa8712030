#include "core/access_tracker.hh"

#include <algorithm>
#include <vector>

#include "sim/process.hh"
#include "snap/state.hh"

namespace hawksim::core {

void
AccessTracker::periodic(sim::Process &proc, TimeNs now)
{
    if (!armed_ && now >= next_clear_) {
        clearPhase(proc);
        armed_ = true;
        read_at_ = now + window_;
        next_clear_ = now + period_;
    }
    if (armed_ && now >= read_at_) {
        readPhase(proc);
        armed_ = false;
    }
}

void
AccessTracker::sampleNow(sim::Process &proc, TimeNs now)
{
    clearPhase(proc);
    (void)now;
    // Caller is expected to run the workload before reading; for
    // tests that want an immediate snapshot, read right away.
    readPhase(proc);
}

void
AccessTracker::clearPhase(sim::Process &proc)
{
    auto &pt = proc.space().pageTable();
    proc.space().forEachEligibleRegion(
        [&](std::uint64_t region) { pt.clearAccessed(region); });
}

void
AccessTracker::readPhase(sim::Process &proc)
{
    auto &pt = proc.space().pageTable();
    proc.space().forEachEligibleRegion([&](std::uint64_t region) {
        // One walk + one PT scan per region (population, accessed
        // count and huge-ness all come from the same leaf node).
        const vm::PageTable::RegionView rv = pt.regionView(region);
        if (rv.population == 0) {
            regions_.erase(region);
            return;
        }
        RegionStat &st = regions_[region];
        st.lastSample = rv.accessed;
        st.isHuge = rv.huge;
        st.ema.update(static_cast<double>(st.lastSample));
        if (hook_)
            hook_(region, st.ema.value(), st.lastSample, st.isHuge);
    });
}

double
AccessTracker::pendingCoverageScore() const
{
    double score = 0.0;
    for (const auto &[region, st] : regions_) {
        if (!st.isHuge)
            score += st.ema.value();
    }
    return score;
}

double
AccessTracker::totalCoverageScore() const
{
    double score = 0.0;
    for (const auto &[region, st] : regions_)
        score += st.ema.value();
    return score;
}

void
AccessTracker::save(snap::Writer &w) const
{
    w.i64(next_clear_);
    w.i64(read_at_);
    w.b(armed_);
    std::vector<std::uint64_t> keys;
    keys.reserve(regions_.size());
    for (const auto &[region, stat] : regions_)
        keys.push_back(region);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (std::uint64_t region : keys) {
        const RegionStat &st = regions_.at(region);
        w.u64(region);
        snap::saveEma(w, st.ema);
        w.u32(st.lastSample);
        w.b(st.isHuge);
    }
}

void
AccessTracker::load(snap::Reader &r)
{
    next_clear_ = r.i64();
    read_at_ = r.i64();
    armed_ = r.b();
    regions_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t region = r.u64();
        RegionStat &st = regions_[region];
        snap::loadEma(r, st.ema);
        st.lastSample = r.u32();
        st.isHuge = r.b();
    }
}

} // namespace hawksim::core
