#include "virt/vm.hh"

#include <algorithm>

#include "base/logging.hh"

namespace hawksim::virt {

namespace {

/** Decorator that mirrors guest access samples to the VM layer. */
class TapWorkload : public workload::Workload
{
  public:
    TapWorkload(std::unique_ptr<workload::Workload> inner,
                VirtualMachine *vm,
                void (VirtualMachine::*hook)(
                    sim::Process &, const workload::WorkChunk &))
        : inner_(std::move(inner)), vm_(vm), hook_(hook)
    {}

    std::string name() const override { return inner_->name(); }
    void init(sim::Process &proc) override { inner_->init(proc); }
    bool
    runsToCompletion() const override
    {
        return inner_->runsToCompletion();
    }

    void
    next(sim::Process &proc, TimeNs max_compute,
         workload::WorkChunk &chunk) override
    {
        inner_->next(proc, max_compute, chunk);
        (vm_->*hook_)(proc, chunk);
    }

  private:
    std::unique_ptr<workload::Workload> inner_;
    VirtualMachine *vm_;
    void (VirtualMachine::*hook_)(sim::Process &,
                                  const workload::WorkChunk &);
};

} // namespace

void
VmBackingWorkload::init(sim::Process &proc)
{
    base_ = proc.space().mmapAnon(guest_bytes_, name_);
}

void
VmBackingWorkload::pushFault(Vpn gpa_page,
                             const mem::PageContent &content)
{
    pending_faults_.emplace_back(gpa_page, content);
}

void
VmBackingWorkload::pushFree(Vpn gpa_page, std::uint64_t pages)
{
    pending_frees_.emplace_back(gpa_page, pages);
}

void
VmBackingWorkload::pushTouch(Vpn gpa_page)
{
    if (pending_touches_.size() < 16384)
        pending_touches_.push_back(gpa_page);
}

void
VmBackingWorkload::next(sim::Process &proc, TimeNs max_compute,
                        workload::WorkChunk &chunk)
{
    (void)proc;
    chunk.reset();
    if (pending_faults_.empty() && pending_frees_.empty() &&
        pending_touches_.empty()) {
        // Idle until the guest's next tick: take the rest of this tick
        // as one chunk of whole usec(1) VM-exit quanta. The caller is
        // left with the same budget and debt as after one empty exit
        // per quantum.
        chunk.compute = (max_compute + usec(1) - 1) / usec(1) * usec(1);
        return;
    }
    const Vpn base_vpn = addrToVpn(base_);
    std::uint64_t drained = 0;
    while (!pending_faults_.empty() && drained < 4096) {
        auto [gpa, content] = pending_faults_.front();
        pending_faults_.pop_front();
        chunk.faults.push_back(base_vpn + gpa);
        if (!content.isZero())
            chunk.writes.emplace_back(base_vpn + gpa, content);
        drained++;
    }
    while (!pending_frees_.empty()) {
        auto [gpa, pages] = pending_frees_.front();
        pending_frees_.pop_front();
        chunk.frees.push_back(
            {base_ + gpa * kPageSize, pages * kPageSize});
    }
    chunk.touches = std::move(pending_touches_);
    pending_touches_.clear();
    for (Vpn &t : chunk.touches)
        t += base_vpn;
    // VM-exit handling cost for the drained events.
    chunk.compute = std::max<TimeNs>(
        usec(1), static_cast<TimeNs>(drained) * 200);
}

VirtualMachine::VirtualMachine(
    VirtualSystem &vs, const std::string &name, VmOptions opts,
    std::unique_ptr<policy::HugePagePolicy> guest_pol)
    : name_(name), opts_(opts), vs_(vs)
{
    // Host-side backing process (the EPT analogue).
    auto backing =
        std::make_unique<VmBackingWorkload>(name + "-mem",
                                            opts.guestMemBytes);
    backing_ = backing.get();
    host_proc_ = &vs.host().addProcess(name, std::move(backing));

    // Guest system with its own memory, policy and daemons.
    sim::SystemConfig gcfg;
    gcfg.memoryBytes = opts.guestMemBytes;
    gcfg.seed = opts.seed;
    gcfg.tickQuantum = vs.host().config().tickQuantum;
    gcfg.metricsPeriod = vs.host().config().metricsPeriod;
    gcfg.costs = vs.host().costs();
    guest_ = std::make_unique<sim::System>(gcfg);
    guest_->setPolicy(std::move(guest_pol));
    guest_->phys().setAllocObserver(
        [this](Pfn pfn, unsigned order, bool alloc) {
            onGuestAlloc(pfn, order, alloc);
        });
}

sim::Process &
VirtualMachine::addGuestProcess(
    const std::string &name, std::unique_ptr<workload::Workload> wl)
{
    auto tapped = std::make_unique<TapWorkload>(
        std::move(wl), this, &VirtualMachine::onGuestChunk);
    tlb::TlbConfig cfg = tlb::TlbConfig::haswellVirtualized();
    cfg.nestedWalkFactor = opts_.nestedFactorBase;
    return guest_->addProcess(name, std::move(tapped), cfg);
}

void
VirtualMachine::onGuestAlloc(Pfn gpa, unsigned order, bool alloc)
{
    if (alloc) {
        for (Pfn p = gpa; p < gpa + (1ull << order); p++) {
            backing_->pushFault(p, guest_->phys().frame(p).content);
        }
    } else if (opts_.balloon) {
        // Balloon driver: guest-freed memory returns to the host.
        backing_->pushFree(gpa, 1ull << order);
    }
}

void
VirtualMachine::onGuestChunk(sim::Process &proc,
                             const workload::WorkChunk &chunk)
{
    // Defer translation: the chunk's pages may not be mapped yet;
    // they will be by the time the next tick translates them.
    std::size_t budget = 512;
    for (Vpn vpn : chunk.touches) {
        if (budget-- == 0)
            break;
        pending_guest_touches_.emplace_back(proc.pid(), vpn);
    }
    for (const auto &s : chunk.sample) {
        if (budget-- == 0)
            break;
        pending_guest_touches_.emplace_back(proc.pid(), s.vpn);
    }
    for (Vpn vpn : chunk.faults) {
        if (budget-- == 0)
            break;
        pending_guest_touches_.emplace_back(proc.pid(), vpn);
    }
}

double
VirtualMachine::hostHugeFraction() const
{
    const auto &pt = host_proc_->space().pageTable();
    const std::uint64_t mapped = pt.mappedPages();
    if (mapped == 0)
        return 0.0;
    return static_cast<double>(pt.mappedHugePages() * kPagesPerHuge) /
           static_cast<double>(mapped);
}

void
VirtualMachine::tick()
{
    // Nested-walk amplification tracks the host's EPT page sizes.
    const double factor =
        opts_.nestedFactorBase -
        opts_.nestedFactorGain * hostHugeFraction();
    for (auto &proc : guest_->processes())
        proc->tlb().setNestedFactor(factor);

    // EPT-fault coupling: servicing the VM's backing faults (host
    // allocation, reclaim, swap writeback) stalls the faulting vCPU,
    // so new host fault time is charged back to the guest's runnable
    // processes.
    const TimeNs backing_ft = host_proc_->faultTime();
    if (backing_ft > charged_backing_fault_time_) {
        const TimeNs delta = backing_ft - charged_backing_fault_time_;
        charged_backing_fault_time_ = backing_ft;
        std::size_t runnable = 0;
        for (auto &proc : guest_->processes())
            runnable += proc->finished() ? 0 : 1;
        if (runnable > 0) {
            for (auto &proc : guest_->processes()) {
                if (!proc->finished()) {
                    proc->chargeExternal(
                        delta / static_cast<TimeNs>(runnable));
                }
            }
        }
    }

    // Translate last tick's guest touches (GVA -> GPA -> host VA).
    const Vpn host_base = addrToVpn(backing_->baseAddr());
    for (const auto &[pid, vpn] : pending_guest_touches_) {
        sim::Process *proc = guest_->findProcess(pid);
        if (!proc)
            continue;
        vm::Translation t = proc->space().pageTable().lookup(vpn);
        if (!t.present)
            continue;
        // Host-level major fault: the backing page was swapped out;
        // the guest vCPU stalls for the swap-in (the touches are a
        // sample, so a small amplification stands in for the
        // unsampled accesses that hit the same page).
        const TimeNs penalty = vs_.host().swapInIfNeeded(
            host_proc_->pid(), host_base + t.pfn);
        if (penalty > 0) {
            proc->chargeExternal(penalty * 4);
            backing_->pushFault(t.pfn,
                                guest_->phys().frame(t.pfn).content);
        }
        backing_->pushTouch(t.pfn);
    }
    pending_guest_touches_.clear();

    guest_->tick();
}

const mem::PageContent *
VirtualMachine::guestContentAt(Vpn host_vpn) const
{
    const Vpn base_vpn = addrToVpn(backing_->baseAddr());
    if (host_vpn < base_vpn)
        return nullptr;
    const Pfn gpa = host_vpn - base_vpn;
    if (gpa >= guest_->phys().totalFrames())
        return nullptr;
    return &guest_->phys().frame(gpa).content;
}

bool
VirtualMachine::allGuestWorkDone() const
{
    for (const auto &proc : guest_->processes()) {
        if (proc->workload().runsToCompletion() && !proc->finished())
            return false;
    }
    return true;
}

VirtualSystem::VirtualSystem(
    sim::SystemConfig host_cfg,
    std::unique_ptr<policy::HugePagePolicy> host_pol)
    : host_(host_cfg)
{
    host_.setPolicy(std::move(host_pol));
}

VirtualMachine &
VirtualSystem::addVm(const std::string &name, VmOptions opts,
                     std::unique_ptr<policy::HugePagePolicy> guest_pol)
{
    vms_.push_back(std::make_unique<VirtualMachine>(
        *this, name, opts, std::move(guest_pol)));
    if (ksm_)
        ksm_->trackProcess(vms_.back()->hostProcess().pid());
    return *vms_.back();
}

void
VirtualSystem::enableHostKsm(double pages_per_sec)
{
    ksm_ = std::make_unique<ksm::KsmDaemon>(pages_per_sec);
    for (auto &vm : vms_)
        ksm_->trackProcess(vm->hostProcess().pid());
    ksm_->setContentProvider(
        [this](sim::Process &proc, Vpn vpn) -> const mem::PageContent * {
            for (auto &vm : vms_) {
                if (vm->hostProcess().pid() == proc.pid())
                    return vm->guestContentAt(vpn);
            }
            return nullptr;
        });
}

void
VirtualSystem::tick()
{
    for (auto &vm : vms_)
        vm->tick();
    if (ksm_)
        ksm_->periodic(host_, host_.config().tickQuantum);
    host_.tick();
}

void
VirtualSystem::run(TimeNs duration)
{
    const TimeNs end = host_.now() + duration;
    while (host_.now() < end)
        tick();
}

void
VirtualSystem::runUntilGuestsDone(TimeNs limit)
{
    const TimeNs end = host_.now() + limit;
    while (host_.now() < end) {
        bool done = true;
        for (auto &vm : vms_) {
            if (!vm->allGuestWorkDone()) {
                done = false;
                break;
            }
        }
        if (done)
            return;
        tick();
    }
    HS_WARN("runUntilGuestsDone hit the time limit");
}

} // namespace hawksim::virt
