#include "points.hh"

#include <malloc.h>

#include <chrono>
#include <memory>

#include "bench_common.hh"
#include "virt/vm.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

using bench::makePolicy;

sim::SystemConfig
systemConfig(const harness::RunContext &ctx, std::uint64_t bytes)
{
    sim::SystemConfig cfg;
    cfg.memoryBytes = bytes;
    cfg.seed = ctx.seed();
    cfg.trace = ctx.trace();
    cfg.fault = ctx.fault();
    cfg.inspect = ctx.inspect();
    cfg.snap = ctx.snap();
    cfg.control = ctx.control();
    cfg.ioFault = ctx.ioFault();
    return cfg;
}

bool
allDone(sim::System &sys)
{
    for (auto &proc : sys.processes()) {
        if (proc->workload().runsToCompletion() && !proc->finished())
            return false;
    }
    return true;
}

/**
 * System::runUntilAllDone untraced; traced, the same loop with a span
 * around each System::tick.
 */
void
runToCompletion(sim::System &sys, TimeNs limit, Recorder *rec,
                PointExtra &extra)
{
    if (rec == nullptr) {
        sys.runUntilAllDone(limit);
    } else {
        const TimeNs end = sys.now() + limit;
        while (sys.now() < end && !allDone(sys)) {
            Span s(rec, Layer::kTick);
            sys.tick();
        }
    }
    extra.simEndNs = sys.now();
    extra.limitHit = !allDone(sys);
}

/** Add a process whose workload @p make builds (forks happen inside). */
template <typename Make>
sim::Process &
addProcess(sim::System &sys, Recorder *rec, const std::string &name,
           Make &&make)
{
    Span s(rec, Layer::kSetupAddProcess);
    return sys.addProcess(name, traced(make(), rec));
}

/** Finish a native point: capture output, then tear the System down. */
void
collect(std::unique_ptr<sim::System> &sys, Recorder *rec,
        harness::RunOutput &out)
{
    Span s(rec, Layer::kCollect);
    out.simTimeNs = sys->now();
    out.captureObs(*sys);
    out.metrics = std::move(sys->metrics());
    sys.reset();
}

// fig8_heterogeneous: a TLB-sensitive app beside a light Redis.
harness::RunOutput
fig8Point(const harness::RunContext &ctx, PointEnv &env)
{
    Recorder *rec = env.recorder();
    Span point(rec, Layer::kPoint);
    const auto t0 = Clock::now();
    std::unique_ptr<sim::System> sys;
    {
        Span s(rec, Layer::kSetupSystem);
        sys = std::make_unique<sim::System>(systemConfig(ctx, GiB(8)));
        sys->setPolicy(traced(makePolicy(ctx.param("policy")), rec));
    }
    {
        Span s(rec, Layer::kSetupFragment);
        sys->fragmentMemoryMovable(1.0, 64);
    }
    sys->costs().promotionsPerSec = 8.0;

    const workload::Scale sc{12};
    const std::string &wl_name = ctx.param("workload");
    auto mkSensitive = [&]() -> std::unique_ptr<workload::Workload> {
        if (wl_name == "Graph500")
            return workload::makeGraph500(sys->rng().fork(), sc, 120);
        if (wl_name == "XSBench")
            return workload::makeXSBench(sys->rng().fork(), sc, 120);
        return workload::makeNpb("cg", sys->rng().fork(), sc, 120);
    };
    auto mkRedis = [&]() -> std::unique_ptr<workload::Workload> {
        return workload::makeRedisLight(sys->rng().fork(), sc, 1e6);
    };
    sim::Process *sensitive = nullptr;
    if (ctx.param("order") == "sensitive-first") {
        sensitive = &addProcess(*sys, rec, wl_name, mkSensitive);
        addProcess(*sys, rec, "redis", mkRedis);
    } else {
        addProcess(*sys, rec, "redis", mkRedis);
        sensitive = &addProcess(*sys, rec, wl_name, mkSensitive);
    }
    PointExtra extra;
    extra.setupS = secondsSince(t0);
    harness::RunOutput out;
    if (!env.setupOnly()) {
        runToCompletion(*sys, sec(1200), rec, extra);
        out.scalar("sensitive_runtime_s",
                   static_cast<double>(sensitive->runtime()) / 1e9);
        out.scalar("sensitive_mmu_pct", sensitive->mmuOverheadPct());
        collect(sys, rec, out);
    }
    env.put(ctx.point(), extra);
    return out;
}

// fig11_overcommit: three VMs on an overcommitted host.
harness::RunOutput
fig11Point(const harness::RunContext &ctx, PointEnv &env)
{
    Recorder *rec = env.recorder();
    Span point(rec, Layer::kPoint);
    const auto t0 = Clock::now();
    const std::string &mode = ctx.param("mode");
    const bool hawkeye = mode == "hawkeye";
    auto policyFor = [&] {
        return traced(makePolicy(hawkeye ? "HawkEye-G" : "Linux-2MB"),
                      rec);
    };
    std::unique_ptr<virt::VirtualSystem> vs;
    {
        Span s(rec, Layer::kSetupSystem);
        sim::SystemConfig host_cfg = systemConfig(ctx, GiB(6));
        host_cfg.costs.zeroDaemonPagesPerSec = 100'000.0;
        vs = std::make_unique<virt::VirtualSystem>(host_cfg,
                                                   policyFor());
        vs->host().enableSwap(true);
        if (hawkeye)
            vs->enableHostKsm(300'000.0);
    }
    const std::uint64_t sub = ctx.seed() ^ 0x9d1c37fb824e05a7ull;
    virt::VmOptions opts;
    opts.guestMemBytes = GiB(3);
    opts.balloon = (mode == "balloon");
    auto addVm = [&](const char *name, std::uint64_t seed) -> auto & {
        Span s(rec, Layer::kSetupSystem);
        opts.seed = seed;
        return vs->addVm(name, opts, policyFor());
    };
    auto kvStore = [&](virt::VirtualMachine &vm, const char *name,
                       std::vector<workload::KvPhase> phases,
                       std::uint64_t seed) {
        Span s(rec, Layer::kSetupAddProcess);
        workload::KvConfig kc;
        kc.arenaBytes = GiB(4);
        kc.servesForever = true;
        kc.phases = std::move(phases);
        vm.addGuestProcess(
            name,
            traced(std::make_unique<workload::KeyValueStoreWorkload>(
                       name, kc, Rng(sub + seed)),
                   rec));
    };
    using Type = workload::KvPhase::Type;
    auto phase = [](Type type) {
        workload::KvPhase p;
        p.type = type;
        return p;
    };

    // VM-1: Redis loads, deletes 70%, then serves.
    auto &vm1 = addVm("vm-redis", 1);
    {
        workload::KvPhase load = phase(Type::kInsert);
        load.count = 650'000;
        load.opsPerSec = 150'000;
        workload::KvPhase del = phase(Type::kDelete);
        del.fraction = 0.7;
        del.clusterRun = 64;
        workload::KvPhase serve = phase(Type::kServe);
        serve.durationSec = 1e6;
        serve.opsPerSec = 50'000;
        kvStore(vm1, "redis", {load, del, serve}, 1);
    }
    // VM-2: MongoDB waits, then needs the memory Redis freed.
    auto &vm2 = addVm("vm-mongo", 2);
    {
        workload::KvPhase wait = phase(Type::kPause);
        wait.durationSec = 60.0;
        workload::KvPhase load = phase(Type::kInsert);
        load.count = 650'000;
        load.opsPerSec = 120'000;
        workload::KvPhase del = phase(Type::kDelete);
        del.fraction = 0.7;
        del.clusterRun = 64;
        workload::KvPhase serve = phase(Type::kServe);
        serve.durationSec = 1e6;
        serve.opsPerSec = 40'000;
        kvStore(vm2, "mongo", {wait, load, del, serve}, 2);
    }
    // VM-3: PageRank-like scan for the whole run.
    auto &vm3 = addVm("vm-pagerank", 3);
    sim::Process *pagerank = nullptr;
    {
        Span s(rec, Layer::kSetupAddProcess);
        workload::StreamConfig pr;
        pr.footprintBytes = GiB(3) / 2;
        pr.wssBytes = GiB(1);
        pr.zipfS = 0.4;
        pr.accessesPerSec = 2.5e6;
        pr.workSeconds = 150.0;
        pagerank = &vm3.addGuestProcess(
            "pagerank",
            traced(std::make_unique<workload::StreamWorkload>(
                       "pagerank", pr, Rng(sub + 3)),
                   rec));
    }
    PointExtra extra;
    extra.setupS = secondsSince(t0);
    harness::RunOutput out;
    if (!env.setupOnly()) {
        // VirtualSystem::run untraced; traced, the same steps with a
        // span around each VM tick, the KSM scan and the host tick.
        const TimeNs end = vs->now() + sec(200);
        if (rec == nullptr) {
            vs->run(sec(200));
        } else {
            sim::System &host = vs->host();
            while (vs->now() < end) {
                Span step(rec, Layer::kTick);
                for (auto &vm : vs->vms()) {
                    Span s(rec, Layer::kVmTick);
                    vm->tick();
                }
                if (ksm::KsmDaemon *k = vs->hostKsm()) {
                    Span s(rec, Layer::kKsm);
                    k->periodic(host, host.config().tickQuantum);
                }
                Span s(rec, Layer::kHostTick);
                host.tick();
            }
        }
        extra.simEndNs = vs->now();
        extra.limitHit = vs->now() != end;
        if (const ksm::KsmDaemon *k = vs->hostKsm()) {
            extra.ksmScanned = k->stats().pagesScanned;
            extra.ksmMerged =
                k->stats().zeroMerged + k->stats().dupMerged;
        }

        Span s(rec, Layer::kCollect);
        auto kops = [&](virt::VirtualMachine &vm, double active_secs) {
            auto &p = *vm.guest().processes()[0];
            return static_cast<double>(p.opsCompleted()) /
                   active_secs / 1e3;
        };
        out.scalar("redis_kops", kops(vm1, 200.0));
        out.scalar("mongo_kops", kops(vm2, 140.0));
        out.scalar("pagerank_s",
                   pagerank->finished()
                       ? static_cast<double>(pagerank->runtime()) / 1e9
                       : 999.0);
        out.scalar("host_swap_outs",
                   static_cast<double>(
                       vs->host().swap().totalSwappedOut()));
        out.captureObs(vs->host());
        vs.reset();
    }
    env.put(ctx.point(), extra);
    return out;
}

template <harness::RunOutput (*Fn)(const harness::RunContext &,
                                   PointEnv &)>
harness::RunFn
bind(PointEnv &env)
{
    return [&env](const harness::RunContext &ctx) {
        harness::RunOutput out = Fn(ctx, env);
        // Hand the torn-down machine's free pages back to the kernel,
        // so that every point starts from the same heap whatever ran
        // before it. Otherwise whether the next set-up reuses them
        // depends on the allocator's history, and peak RSS and set-up
        // time flip between runs of one seed.
        Span s(env.recorder(), Layer::kCollect);
        malloc_trim(0);
        return out;
    };
}

void
registerFig8(harness::Registry &reg, PointEnv &env)
{
    reg.add("fig8_heterogeneous", "Fig 8 mirror")
        .axis("workload", {"Graph500", "cg.D"})
        .axis("policy",
              {"Linux-4KB", "Linux-2MB", "Ingens-90%", "HawkEye-G"})
        .axis("order", {"sensitive-first", "redis-first"})
        .run(bind<fig8Point>(env));
}

void
registerFig11(harness::Registry &reg, PointEnv &env)
{
    reg.add("fig11_overcommit", "Fig 11 mirror")
        .axis("mode", {"none", "balloon", "hawkeye"})
        .run(bind<fig11Point>(env));
}

} // namespace

void
PointEnv::put(const harness::RunPoint &point, const PointExtra &extra)
{
    std::lock_guard<std::mutex> lock(mutex_);
    extras_[pointKey(point)] = extra;
}

std::map<std::string, PointExtra>
PointEnv::take()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(extras_);
}

std::string
pointKey(const harness::RunPoint &point)
{
    std::string key = point.experiment;
    key += '/';
    key += std::to_string(point.index);
    return key;
}

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> kWorkloads = {
        {"native_colocated",
         "fig8_heterogeneous/workload=cg.D policy=HawkEye-G "
         "order=redis-first",
         registerFig8},
        {"virt_overcommit", "fig11_overcommit/mode=hawkeye",
         registerFig11},
    };
    return kWorkloads;
}

const WorkloadSpec *
findWorkload(std::string_view name)
{
    for (const WorkloadSpec &w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

} // namespace perfbench
