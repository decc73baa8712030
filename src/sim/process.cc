#include "sim/process.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/system.hh"
#include "snap/snap.hh"

namespace hawksim::sim {

Process::Process(std::int32_t pid, std::string name, System &sys,
                 std::unique_ptr<workload::Workload> wl,
                 tlb::TlbConfig tlb_cfg)
    : pid_(pid), name_(std::move(name)), sys_(sys),
      space_(pid, sys.phys()), tlb_(tlb_cfg), workload_(std::move(wl))
{
    HS_ASSERT(workload_ != nullptr, "process without workload");
}

void
Process::start(TimeNs now)
{
    HS_ASSERT(!started_, "double start of process ", name_);
    started_ = true;
    started_at_ = now;
    workload_->init(*this);
}

void
Process::tick(TimeNs dt)
{
    if (!started_ || finished_)
        return;
    const CostParams &costs = sys_.costs();
    // The core is unhalted for the whole tick (Table 4's C3).
    tlb_.counters().cpuClkUnhalted += costs.nsToCycles(dt);

    TimeNs avail = dt - debt_;
    debt_ = 0;
    while (avail > 0 && !finished_) {
        workload_->next(*this, std::min(avail, dt), chunk_);
        const workload::WorkChunk &chunk = chunk_;
        TimeNs cost = chunk.compute;

        // Fault handling: touch pages in order, going through the OS
        // policy for anything unmapped (or COW-protected writes).
        for (Vpn vpn : chunk.faults) {
            vm::Translation t = space_.pageTable().lookup(vpn);
            if (t.present) {
                if (t.entry.cow() && chunk.faultsAreWrites) {
                    const TimeNs c =
                        sys_.policy().onCowFault(sys_, *this, vpn);
                    recordCowFault(vpn, c);
                    cost += c;
                }
                continue;
            }
            if (!faultIn(vpn, cost))
                break;
        }

        // Content writes (drive zero-scan / dedup behaviour). The
        // fused walk translates and sets accessed+dirty in one pass;
        // a COW entry touched just before its break is unobservable
        // (breakCow installs fresh accessed|dirty flags anyway).
        if (!oom_)
            runWrites(chunk, cost);

        // Accessed-bit shadow sample (for OS access-bit tracking).
        for (Vpn vpn : chunk.touches)
            space_.pageTable().touch(vpn, false);

        // TLB simulation over the sampled access stream.
        if (!chunk.sample.empty() && chunk.accessCount > 0) {
            const double scale =
                static_cast<double>(chunk.accessCount) /
                static_cast<double>(chunk.sample.size());
            tlb::TlbBatchResult res =
                tlb_.simulate(space_.pageTable(), chunk.sample,
                              chunk.sequentiality, scale);
            const TimeNs walk_ns = costs.cyclesToNs(res.walkCycles);
            cost += walk_ns;
            sys_.cost().charge(obs::Subsys::kTlbWalk, walk_ns);
            sys_.tracer().complete(
                obs::Cat::kTlb, "tlb_batch", pid_, sys_.now(),
                walk_ns,
                {{"accesses",
                  static_cast<std::int64_t>(chunk.accessCount)},
                 {"walk_cycles",
                  static_cast<std::int64_t>(res.walkCycles)}});
        }

        // Releases (MADV_DONTNEED).
        for (const auto &fr : chunk.frees) {
            space_.madviseDontneed(fr.start, fr.bytes);
            sys_.policy().onMadviseFree(sys_, *this, fr.start,
                                        fr.bytes);
        }

        ops_completed_ += chunk.opsCompleted;
        avail -= std::max<TimeNs>(cost, 1);

        if (chunk.done || oom_) {
            finished_ = true;
            const TimeNs used = std::clamp<TimeNs>(dt - avail, 0, dt);
            finished_at_ = sys_.now() + used;
        }
    }
    if (avail < 0)
        debt_ = -avail;
}

void
Process::runWrites(const workload::WorkChunk &chunk, TimeNs &cost)
{
    // Segmented two-phase loop: translate a run of entries that need
    // no OS intervention (present, not COW) into a reused pfn scratch
    // column, then commit the run's frame writes with the next frame
    // prefetched ahead of each store. The phases commute —
    // translations never read frame contents and content writes never
    // touch the page table — and a repeated vpn resolves to the same
    // pfn in both phases (nothing changes the mapping in between), so
    // the observable state after each run matches a per-entry
    // translate-then-write loop exactly. The first entry that *does*
    // need the fault path breaks the run and is handled inline, at its
    // original position relative to every other page-table and frame
    // operation; an OOM verdict abandons the rest of the chunk's
    // writes.
    vm::PageTable &pt = space_.pageTable();
    mem::PhysicalMemory &phys = sys_.phys();
    const auto &writes = chunk.writes;
    const std::size_t n = writes.size();
    std::size_t i = 0;
    while (i < n) {
        const std::size_t start = i;
        write_pfns_.clear();
        vm::Translation pending; // breaking entry's translation
        for (; i < n; i++) {
            pending = pt.lookupAndTouch(writes[i].first, true);
            if (!pending.present || pending.entry.cow())
                break;
            write_pfns_.push_back(pending.pfn);
        }
        const std::size_t run = write_pfns_.size();
        for (std::size_t j = 0; j < run; j++) {
            if (j + 1 < run)
                phys.prefetchFrame(write_pfns_[j + 1]);
            phys.writeFrame(write_pfns_[j],
                            writes[start + j].second);
        }
        if (i == n)
            break;
        // Fault path for the entry that broke the run, continuing
        // from its first lookupAndTouch (already done above as
        // `pending`): fault it in, break COW, then write.
        const Vpn vpn = writes[i].first;
        vm::Translation t = pending;
        if (!t.present) {
            if (!faultIn(vpn, cost))
                return; // OOM: drop the remaining writes
            t = pt.lookupAndTouch(vpn, true);
        }
        if (t.entry.cow()) {
            const TimeNs c = sys_.policy().onCowFault(sys_, *this, vpn);
            recordCowFault(vpn, c);
            cost += c;
            t = pt.lookupAndTouch(vpn, true);
        }
        phys.writeFrame(t.pfn, writes[i].second);
        i++;
    }
}

bool
Process::faultIn(Vpn vpn, TimeNs &cost)
{
    policy::FaultOutcome out = sys_.policy().onFault(sys_, *this, vpn);
    recordFault(vpn, out);
    page_faults_++;
    fault_time_ += out.latency;
    cost += out.latency;
    if (out.oom) {
        oom_ = true;
        sys_.metrics().event(sys_.now(), name_ + ": OOM killed");
        return false;
    }
    return true;
}

void
Process::recordFault(Vpn vpn, const policy::FaultOutcome &out)
{
    sys_.cost().fault(out.latency, out.huge);
    sys_.tracer().complete(
        obs::Cat::kFault, out.huge ? "fault_huge" : "fault", pid_,
        sys_.now(), out.latency,
        {{"vpn", static_cast<std::int64_t>(vpn)},
         {"pages", static_cast<std::int64_t>(out.pagesMapped)},
         {"oom", out.oom ? 1 : 0}});
    if (out.oom) {
        sys_.tracer().instant(obs::Cat::kProc, "oom_kill", pid_,
                              sys_.now());
    }
}

void
Process::recordCowFault(Vpn vpn, TimeNs cost)
{
    cow_faults_++;
    sys_.cost().count(obs::Counter::kCowFaults);
    sys_.cost().charge(obs::Subsys::kFaultPath, cost);
    sys_.tracer().complete(obs::Cat::kFault, "cow_break", pid_,
                           sys_.now(), cost,
                           {{"vpn", static_cast<std::int64_t>(vpn)}});
}

double
Process::windowMmuOverheadPct()
{
    const tlb::PerfCounters delta =
        tlb_.counters().since(window_snapshot_);
    window_snapshot_ = tlb_.counters();
    return delta.mmuOverheadPct();
}

std::uint64_t
Process::windowOps()
{
    const std::uint64_t delta = ops_completed_ - window_ops_snapshot_;
    window_ops_snapshot_ = ops_completed_;
    return delta;
}

void
Process::save(snap::Writer &w) const
{
    w.b(started_);
    w.b(finished_);
    w.b(oom_);
    w.i64(started_at_);
    w.i64(finished_at_);
    w.i64(debt_);
    w.u64(page_faults_);
    w.i64(fault_time_);
    w.u64(cow_faults_);
    w.u64(ops_completed_);
    window_snapshot_.save(w);
    w.u64(window_ops_snapshot_);
    space_.save(w);
    tlb_.save(w);
    workload_->save(w);
}

void
Process::load(snap::Reader &r)
{
    started_ = r.b();
    finished_ = r.b();
    oom_ = r.b();
    started_at_ = r.i64();
    finished_at_ = r.i64();
    debt_ = r.i64();
    page_faults_ = r.u64();
    fault_time_ = r.i64();
    cow_faults_ = r.u64();
    ops_completed_ = r.u64();
    window_snapshot_.load(r);
    window_ops_snapshot_ = r.u64();
    space_.load(r);
    tlb_.load(r);
    workload_->load(r);
}

} // namespace hawksim::sim
