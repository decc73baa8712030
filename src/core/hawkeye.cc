#include "core/hawkeye.hh"

#include <algorithm>
#include <vector>

#include "sim/process.hh"
#include "sim/system.hh"
#include "snap/snap.hh"

namespace hawksim::core {

HawkEyePolicy::HawkEyePolicy(HawkEyeConfig cfg)
    : cfg_(cfg), prezero_(10'000.0),
      bloat_(0.85, 0.70, 400.0 * 1024 * 1024, cfg.dedupThreshold)
{
    bloat_.setDemoteHook([this](sim::Process &proc,
                                std::uint64_t region) {
        // A demoted region becomes a promotion candidate again; it
        // re-enters the access_map at its next coverage sample.
        auto it = state_.find(proc.pid());
        if (it != state_.end())
            it->second.map.remove(region);
    });
}

void
HawkEyePolicy::attach(sim::System &sys)
{
    prezero_.setRate(sys.costs().zeroDaemonPagesPerSec);
    bloat_ = BloatRecovery(sys.costs().bloatHighWatermark,
                           sys.costs().bloatLowWatermark,
                           sys.costs().bloatScanBytesPerSec,
                           cfg_.dedupThreshold);
    bloat_.setDemoteHook([this](sim::Process &proc,
                                std::uint64_t region) {
        auto it = state_.find(proc.pid());
        if (it != state_.end())
            it->second.map.remove(region);
    });
}

policy::FaultOutcome
HawkEyePolicy::onFault(sim::System &sys, sim::Process &proc, Vpn vpn)
{
    const bool pressure =
        sys.phys().usedFraction() > sys.costs().bloatHighWatermark;
    if (cfg_.faultHuge && !pressure &&
        policy::regionEmptyAndEligible(proc, vpn)) {
        // No compaction in the fault path: HawkEye keeps fault
        // latency low; contiguity comes from background work.
        return policy::faultHuge(sys, proc, vpn, cfg_.zero,
                                 /*allow_compact=*/false);
    }
    return policy::faultBase(sys, proc, vpn, cfg_.zero);
}

void
HawkEyePolicy::onProcessStart(sim::System &sys, sim::Process &proc)
{
    (void)sys;
    ProcState &st = state_[proc.pid()];
    st.tracker = std::make_unique<AccessTracker>(cfg_.samplePeriod,
                                                 cfg_.sampleWindow);
    AccessMap *map = &st.map;
    st.tracker->setHook([map](std::uint64_t region, double ema,
                              unsigned, bool is_huge) {
        if (is_huge)
            map->remove(region);
        else
            map->update(region, ema);
    });
}

void
HawkEyePolicy::onProcessExit(sim::System &sys, sim::Process &proc)
{
    (void)sys;
    state_.erase(proc.pid());
}

void
HawkEyePolicy::samplePmu(sim::System &sys)
{
    for (auto &proc : sys.processes()) {
        auto it = state_.find(proc->pid());
        if (it == state_.end())
            continue;
        const tlb::PerfCounters now = proc->counters();
        const tlb::PerfCounters delta =
            now.since(it->second.pmuSnapshot);
        it->second.pmuSnapshot = now;
        if (delta.cpuClkUnhalted > 0)
            it->second.pmuOverheadPct = delta.mmuOverheadPct();
    }
}

double
HawkEyePolicy::bloatScore(sim::Process &proc)
{
    auto it = state_.find(proc.pid());
    if (it == state_.end())
        return 0.0;
    if (cfg_.usePmu)
        return it->second.pmuOverheadPct;
    return it->second.tracker->totalCoverageScore();
}

bool
HawkEyePolicy::promoteNext(sim::System &sys)
{
    // Build the list of live candidate processes.
    std::vector<sim::Process *> procs;
    for (auto &proc : sys.processes()) {
        if (!proc->finished() && state_.count(proc->pid()))
            procs.push_back(proc.get());
    }
    if (procs.empty())
        return false;

    sim::Process *victim = nullptr;
    if (cfg_.usePmu) {
        // HawkEye-PMU: the process with the highest *measured* MMU
        // overhead that still has candidates; stop below threshold.
        double best = cfg_.pmuStopPct;
        for (sim::Process *p : procs) {
            ProcState &st = state_[p->pid()];
            if (st.map.empty())
                continue;
            if (st.pmuOverheadPct > best) {
                best = st.pmuOverheadPct;
                victim = p;
            }
        }
    } else {
        // HawkEye-G: globally highest access-coverage bucket;
        // round-robin among processes tied at that index.
        int top = -1;
        for (sim::Process *p : procs)
            top = std::max(top, state_[p->pid()].map.topBucket());
        if (top < 0)
            return false;
        std::vector<sim::Process *> tied;
        for (sim::Process *p : procs) {
            if (state_[p->pid()].map.topBucket() == top)
                tied.push_back(p);
        }
        victim = tied[rr_++ % tied.size()];
    }
    if (!victim)
        return false;

    ProcState &st = state_[victim->pid()];
    auto region = st.map.popTop();
    if (!region)
        return false;
    const auto &pt = victim->space().pageTable();
    if (pt.isHuge(*region) || pt.population(*region) == 0)
        return true; // stale entry consumed; try again next round
    if (!policy::promoteOne(sys, *victim, *region,
                            /*prefer_zero=*/false)
             .has_value()) {
        st.map.update(*region, 0.0); // put back; retry later
        sys.tracer().instant(
            obs::Cat::kPromote, "promote_defer", victim->pid(),
            sys.now(),
            {{"region", static_cast<std::int64_t>(*region)}});
        return false;
    }
    promotions_++;
    return true;
}

void
HawkEyePolicy::periodic(sim::System &sys)
{
    const TimeNs dt = sys.config().tickQuantum;

    // Access-bit sampling feeds the access_maps.
    for (auto &proc : sys.processes()) {
        if (proc->finished())
            continue;
        auto it = state_.find(proc->pid());
        if (it != state_.end())
            it->second.tracker->periodic(*proc, sys.now());
    }

    // PMU windows (PMU variant only, but cheap either way).
    if (sys.now() >= next_pmu_) {
        samplePmu(sys);
        next_pmu_ = sys.now() + cfg_.pmuPeriod;
    }

    // Async pre-zeroing.
    if (cfg_.enablePrezero)
        prezero_.periodic(sys, dt);

    // Fine-grained promotion.
    promote_budget_ += sys.costs().promotionsPerSec *
                       static_cast<double>(dt) / 1e9;
    while (promote_budget_ >= 1.0) {
        if (!promoteNext(sys))
            break;
        promote_budget_ -= 1.0;
    }

    // Bloat recovery under memory pressure.
    if (cfg_.enableBloatRecovery) {
        bloat_.periodic(sys, dt, [this](sim::Process &p) {
            return bloatScore(p);
        });
    }
}

const AccessMap *
HawkEyePolicy::accessMap(std::int32_t pid) const
{
    auto it = state_.find(pid);
    return it == state_.end() ? nullptr : &it->second.map;
}

const AccessTracker *
HawkEyePolicy::tracker(std::int32_t pid) const
{
    auto it = state_.find(pid);
    return it == state_.end() ? nullptr : it->second.tracker.get();
}

double
HawkEyePolicy::processScore(std::int32_t pid) const
{
    auto it = state_.find(pid);
    if (it == state_.end())
        return 0.0;
    return cfg_.usePmu ? it->second.pmuOverheadPct
                       : it->second.tracker->totalCoverageScore();
}

void
HawkEyePolicy::save(snap::Writer &w) const
{
    std::vector<std::int32_t> pids;
    pids.reserve(state_.size());
    for (const auto &[pid, st] : state_)
        pids.push_back(pid);
    std::sort(pids.begin(), pids.end());
    w.u64(pids.size());
    for (std::int32_t pid : pids) {
        const ProcState &st = state_.at(pid);
        w.i32(pid);
        st.tracker->save(w);
        st.map.save(w);
        st.pmuSnapshot.save(w);
        w.f64(st.pmuOverheadPct);
    }
    prezero_.save(w);
    bloat_.save(w);
    w.f64(promote_budget_);
    w.u64(promotions_);
    w.i64(next_pmu_);
    w.u64(rr_);
}

void
HawkEyePolicy::load(snap::Reader &r)
{
    // onProcessStart already recreated state_ for every live process
    // during the rebuild, including the trackers with their sample
    // hooks wired to the AccessMap; load into those objects so the
    // hooks survive.
    const std::uint64_t n = r.u64();
    HS_ASSERT(n == state_.size(),
              "snapshot has ", n, " HawkEye processes, system has ",
              state_.size());
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::int32_t pid = r.i32();
        auto it = state_.find(pid);
        HS_ASSERT(it != state_.end(),
                  "snapshot HawkEye state for unknown pid ", pid);
        ProcState &st = it->second;
        st.tracker->load(r);
        st.map.load(r);
        st.pmuSnapshot.load(r);
        st.pmuOverheadPct = r.f64();
    }
    prezero_.load(r);
    bloat_.load(r);
    promote_budget_ = r.f64();
    promotions_ = r.u64();
    next_pmu_ = r.i64();
    rr_ = r.u64();
}

} // namespace hawksim::core
