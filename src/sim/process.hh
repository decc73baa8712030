/**
 * @file
 * A simulated process: an address space, a TLB, performance counters
 * and a workload, executed in tick quanta.
 *
 * Each process owns a core (the paper binds workloads to cores).
 * During a tick of length dt the core is busy for dt cycles; fault
 * latencies and TLB walk cycles eat into the budget available for
 * useful workload compute, so MMU overhead directly stretches the
 * workload's completion time.
 */

#ifndef HAWKSIM_SIM_PROCESS_HH
#define HAWKSIM_SIM_PROCESS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/types.hh"
#include "sim/config.hh"
#include "tlb/tlb.hh"
#include "vm/address_space.hh"
#include "workload/workload.hh"

namespace hawksim::policy {
struct FaultOutcome;
} // namespace hawksim::policy

namespace hawksim::snap {
class Writer;
class Reader;
} // namespace hawksim::snap

namespace hawksim::sim {

class System;

class Process
{
  public:
    Process(std::int32_t pid, std::string name, System &sys,
            std::unique_ptr<workload::Workload> wl,
            tlb::TlbConfig tlb_cfg = tlb::TlbConfig::haswell());

    /** Initialize the workload (VMA setup). Called by System. */
    void start(TimeNs now);

    /** Execute up to @p dt of core time. */
    void tick(TimeNs dt);

    /**
     * Charge externally-incurred stall time (e.g. host-level major
     * faults observed by the virtualization layer); repaid from the
     * next ticks' budgets.
     */
    void chargeExternal(TimeNs t) { debt_ += t; }

    /**
     * Terminate this process as a victim of the system OOM killer.
     * The caller (System::oomKillVictim) does the exit plumbing —
     * memory release, swap-slot discard, policy notification.
     */
    void
    killedByOom(TimeNs now)
    {
        oom_ = true;
        finished_ = true;
        finished_at_ = now;
    }

    /** @name Identity and components */
    /// @{
    std::int32_t pid() const { return pid_; }
    const std::string &name() const { return name_; }
    vm::AddressSpace &space() { return space_; }
    const vm::AddressSpace &space() const { return space_; }
    tlb::TlbModel &tlb() { return tlb_; }
    workload::Workload &workload() { return *workload_; }
    System &system() { return sys_; }
    /// @}

    /** @name Run state */
    /// @{
    bool finished() const { return finished_; }
    bool oomKilled() const { return oom_; }
    TimeNs startedAt() const { return started_at_; }
    TimeNs finishedAt() const { return finished_at_; }
    /** Wall (simulated) runtime; valid once finished. */
    TimeNs runtime() const { return finished_at_ - started_at_; }
    /// @}

    /** @name Statistics */
    /// @{
    std::uint64_t pageFaults() const { return page_faults_; }
    TimeNs faultTime() const { return fault_time_; }
    std::uint64_t cowFaults() const { return cow_faults_; }
    std::uint64_t opsCompleted() const { return ops_completed_; }
    const tlb::PerfCounters &counters() const
    {
        return tlb_.counters();
    }
    /** MMU overhead over the whole run so far (Table 4 formula). */
    double mmuOverheadPct() const
    {
        return counters().mmuOverheadPct();
    }
    /**
     * MMU overhead since the previous call to this function
     * (windowed sampling, as HawkEye-PMU would read the PMU).
     */
    double windowMmuOverheadPct();
    /** Ops completed since the previous call (throughput window). */
    std::uint64_t windowOps();
    /// @}

    /**
     * Run state, fault statistics, PMU windows, address space, TLB
     * and workload. The scratch WorkChunk is not state: every tick
     * consumes the chunk it requested.
     */
    void save(snap::Writer &w) const;
    void load(snap::Reader &r);

  private:
    void
    chargeCycles(Cycles c);

    /**
     * Service one page fault through the OS policy: record it,
     * account latency into @p cost, and mark the process OOM-killed
     * when the policy says so. Returns false on OOM (callers stop
     * touching memory for the rest of the chunk).
     */
    bool faultIn(Vpn vpn, TimeNs &cost);

    /**
     * The chunk's content writes: translate-all / write-all phases
     * over runs of fault-free entries (prefetching the next frame
     * column entry), dropping to the fault path only at the entries
     * that need it.
     */
    void runWrites(const workload::WorkChunk &chunk, TimeNs &cost);

    /** Account + trace one serviced page fault. */
    void recordFault(Vpn vpn, const policy::FaultOutcome &out);
    /** Account + trace one COW break. */
    void recordCowFault(Vpn vpn, TimeNs cost);

    std::int32_t pid_;
    std::string name_;
    System &sys_;
    vm::AddressSpace space_;
    tlb::TlbModel tlb_;
    std::unique_ptr<workload::Workload> workload_;

    bool started_ = false;
    bool finished_ = false;
    bool oom_ = false;
    TimeNs started_at_ = 0;
    TimeNs finished_at_ = 0;
    /** Overrun carried into the next tick. */
    TimeNs debt_ = 0;

    std::uint64_t page_faults_ = 0;
    TimeNs fault_time_ = 0;
    std::uint64_t cow_faults_ = 0;
    std::uint64_t ops_completed_ = 0;

    tlb::PerfCounters window_snapshot_;
    std::uint64_t window_ops_snapshot_ = 0;

    /** Reused across ticks so chunk vectors keep their capacity. */
    workload::WorkChunk chunk_;
    /** Translated-run pfn column reused by runWrites. */
    std::vector<Pfn> write_pfns_;
};

} // namespace hawksim::sim

#endif // HAWKSIM_SIM_PROCESS_HH
