#include "trace.hh"

#include <atomic>
#include <mutex>

namespace perfbench {

const char *
layerName(Layer l)
{
    static constexpr std::array<const char *, kLayerCount> kNames = {
        "point",           "setup.system",    "setup.fragment",
        "setup.add_process", "sim.tick",      "virt.vm_tick",
        "virt.host_tick",  "ksm.periodic",    "policy.periodic",
        "policy.fault",    "policy.cow",      "policy.madvise",
        "policy.lifecycle", "workload.next",  "workload.init",
        "harness.collect",
    };
    return kNames[static_cast<unsigned>(l)];
}

namespace {

std::atomic<std::uint64_t> next_session_id{1};

struct ThreadSlot
{
    std::uint64_t session = 0;
    Recorder *rec = nullptr;
};
thread_local ThreadSlot tl_slot;

} // namespace

struct TraceSession::Impl
{
    std::uint64_t id = next_session_id.fetch_add(1);
    std::mutex mutex;
    std::vector<std::unique_ptr<Recorder>> recorders; // guarded
    std::chrono::steady_clock::time_point wallStart =
        std::chrono::steady_clock::now();
    std::uint64_t ticksStart = ticksNow();
};

TraceSession::TraceSession() : impl_(std::make_unique<Impl>()) {}
TraceSession::~TraceSession() = default;

Recorder &
TraceSession::recorder()
{
    if (tl_slot.session != impl_->id) {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->recorders.push_back(std::make_unique<Recorder>());
        tl_slot = {impl_->id, impl_->recorders.back().get()};
    }
    return *tl_slot.rec;
}

TraceSession::Totals
TraceSession::totals() const
{
    Totals t;
    const std::uint64_t ticks = ticksNow() - impl_->ticksStart;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            impl_->wallStart)
                            .count();
    t.secondsPerTick = ticks > 0 ? wall / static_cast<double>(ticks)
                                 : 0.0;
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const auto &rec : impl_->recorders) {
        for (unsigned i = 0; i < kLayerCount; i++) {
            t.stats[i].calls += rec->stats()[i].calls;
            t.stats[i].total += rec->stats()[i].total;
            t.stats[i].self += rec->stats()[i].self;
        }
        const Counts &c = rec->counts();
        t.counts.hugeFaults += c.hugeFaults;
        t.counts.sampledAccesses += c.sampledAccesses;
        t.counts.touches += c.touches;
        t.counts.writes += c.writes;
        t.counts.frees += c.frees;
    }
    return t;
}

void
TimedPolicy::onProcessStart(sim::System &sys, sim::Process &proc)
{
    Span s(&rec_, Layer::kPolicyLifecycle);
    inner_->onProcessStart(sys, proc);
}

void
TimedPolicy::onProcessExit(sim::System &sys, sim::Process &proc)
{
    Span s(&rec_, Layer::kPolicyLifecycle);
    inner_->onProcessExit(sys, proc);
}

policy::FaultOutcome
TimedPolicy::onFault(sim::System &sys, sim::Process &proc, Vpn vpn)
{
    Span s(&rec_, Layer::kPolicyFault);
    const policy::FaultOutcome out = inner_->onFault(sys, proc, vpn);
    rec_.counts().hugeFaults += out.huge ? 1 : 0;
    return out;
}

TimeNs
TimedPolicy::onCowFault(sim::System &sys, sim::Process &proc, Vpn vpn)
{
    Span s(&rec_, Layer::kPolicyCow);
    return inner_->onCowFault(sys, proc, vpn);
}

void
TimedPolicy::periodic(sim::System &sys)
{
    Span s(&rec_, Layer::kPolicyPeriodic);
    inner_->periodic(sys);
}

void
TimedPolicy::onMadviseFree(sim::System &sys, sim::Process &proc,
                           Addr start, std::uint64_t bytes)
{
    Span s(&rec_, Layer::kPolicyMadvise);
    inner_->onMadviseFree(sys, proc, start, bytes);
}

void
TimedWorkload::init(sim::Process &proc)
{
    Span s(&rec_, Layer::kWorkloadInit);
    inner_->init(proc);
}

void
TimedWorkload::next(sim::Process &proc, TimeNs max_compute,
                    workload::WorkChunk &chunk)
{
    Span s(&rec_, Layer::kWorkloadNext);
    inner_->next(proc, max_compute, chunk);
    Counts &c = rec_.counts();
    c.sampledAccesses += chunk.sample.size();
    c.touches += chunk.touches.size();
    c.writes += chunk.writes.size();
    c.frees += chunk.frees.size();
}

std::unique_ptr<policy::HugePagePolicy>
traced(std::unique_ptr<policy::HugePagePolicy> pol, Recorder *rec)
{
    if (rec == nullptr)
        return pol;
    return std::make_unique<TimedPolicy>(std::move(pol), *rec);
}

std::unique_ptr<workload::Workload>
traced(std::unique_ptr<workload::Workload> wl, Recorder *rec)
{
    if (rec == nullptr)
        return wl;
    return std::make_unique<TimedWorkload>(std::move(wl), *rec);
}

} // namespace perfbench
