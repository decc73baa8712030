/**
 * @file
 * Host-time tracing for the benchmark's traced mode.
 *
 * Spans are opened around calls into each simulator layer, from the
 * benchmark's own code only: the driver's tick loops, point set-up,
 * and two decorators that forward every HugePagePolicy / Workload
 * call. A span's self time is its duration minus the duration of the
 * spans nested in it. Spans fold into per-layer totals as they close,
 * so memory stays constant however many faults a point takes.
 *
 * Each worker thread owns one Recorder; a point runs on one thread,
 * so nothing here is shared while a campaign runs.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "hawksim.hh"

namespace perfbench {

using namespace hawksim;

/** Where host time goes. */
enum class Layer : std::uint8_t
{
    kPoint,           //!< one grid point; self = driver glue
    kSetupSystem,     //!< System / VirtualSystem / VM construction
    kSetupFragment,   //!< fragmentMemory*
    kSetupAddProcess, //!< workload construction + addProcess
    kTick,            //!< System::tick, or one VirtualSystem step
    kVmTick,          //!< VirtualMachine::tick (guest engine + sync)
    kHostTick,        //!< host System::tick under VMs
    kKsm,             //!< KsmDaemon::periodic
    kPolicyPeriodic,  //!< HugePagePolicy::periodic
    kPolicyFault,     //!< HugePagePolicy::onFault
    kPolicyCow,       //!< HugePagePolicy::onCowFault
    kPolicyMadvise,   //!< HugePagePolicy::onMadviseFree
    kPolicyLifecycle, //!< onProcessStart / onProcessExit
    kWorkloadNext,    //!< Workload::next
    kWorkloadInit,    //!< Workload::init
    kCollect,         //!< output capture + System teardown
};

inline constexpr unsigned kLayerCount = 16;

const char *layerName(Layer l);

/** Cheap monotonic counter: the TSC where there is one. */
inline std::uint64_t
ticksNow()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

struct LayerStat
{
    std::uint64_t calls = 0;
    std::uint64_t total = 0; //!< ticks inside the span
    std::uint64_t self = 0;  //!< ticks not covered by nested spans
};

/** Counts taken at the same boundaries as the spans. */
struct Counts
{
    std::uint64_t hugeFaults = 0;
    std::uint64_t sampledAccesses = 0;
    std::uint64_t touches = 0;
    std::uint64_t writes = 0;
    std::uint64_t frees = 0;
};

class Recorder
{
  public:
    void
    open(Layer l)
    {
        if (depth_ == kMaxDepth)
            HS_FATAL("perfbench: span nesting deeper than ", kMaxDepth);
        Frame &f = stack_[depth_++];
        f.layer = l;
        f.child = 0;
        f.start = ticksNow();
    }

    void
    close()
    {
        const std::uint64_t end = ticksNow();
        const Frame &f = stack_[--depth_];
        const std::uint64_t d = end - f.start;
        LayerStat &s = stats_[static_cast<unsigned>(f.layer)];
        s.calls++;
        s.total += d;
        s.self += d - f.child;
        if (depth_ > 0)
            stack_[depth_ - 1].child += d;
    }

    const std::array<LayerStat, kLayerCount> &stats() const
    {
        return stats_;
    }
    Counts &counts() { return counts_; }
    const Counts &counts() const { return counts_; }

  private:
    static constexpr unsigned kMaxDepth = 16;
    struct Frame
    {
        Layer layer = Layer::kPoint;
        std::uint64_t start = 0;
        std::uint64_t child = 0;
    };
    std::array<Frame, kMaxDepth> stack_{};
    unsigned depth_ = 0;
    std::array<LayerStat, kLayerCount> stats_{};
    Counts counts_;
};

/** RAII span; a null recorder (untraced mode) records nothing. */
class Span
{
  public:
    Span(Recorder *rec, Layer l) : rec_(rec)
    {
        if (rec_ != nullptr)
            rec_->open(l);
    }
    ~Span()
    {
        if (rec_ != nullptr)
            rec_->close();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Recorder *rec_;
};

/**
 * Per-thread recorders of one traced campaign. recorder() hands each
 * worker thread its own; totals() is read after the campaign's
 * threads have joined.
 */
class TraceSession
{
  public:
    TraceSession();
    ~TraceSession();
    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** The calling thread's recorder for this session. */
    Recorder &recorder();

    /** Layer totals summed over threads, converted to seconds. */
    struct Totals
    {
        std::array<LayerStat, kLayerCount> stats{};
        Counts counts;
        double secondsPerTick = 0.0;

        double
        totalS(Layer l) const
        {
            return static_cast<double>(
                       stats[static_cast<unsigned>(l)].total) *
                   secondsPerTick;
        }
        double
        selfS(Layer l) const
        {
            return static_cast<double>(
                       stats[static_cast<unsigned>(l)].self) *
                   secondsPerTick;
        }
        std::uint64_t
        calls(Layer l) const
        {
            return stats[static_cast<unsigned>(l)].calls;
        }
    };
    Totals totals() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Forwards every policy call, timing each under its layer. */
class TimedPolicy final : public policy::HugePagePolicy
{
  public:
    TimedPolicy(std::unique_ptr<policy::HugePagePolicy> inner,
                Recorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {}

    std::string name() const override { return inner_->name(); }
    void attach(sim::System &sys) override { inner_->attach(sys); }
    void onProcessStart(sim::System &sys, sim::Process &proc) override;
    void onProcessExit(sim::System &sys, sim::Process &proc) override;
    policy::FaultOutcome onFault(sim::System &sys, sim::Process &proc,
                                 Vpn vpn) override;
    TimeNs onCowFault(sim::System &sys, sim::Process &proc,
                      Vpn vpn) override;
    void periodic(sim::System &sys) override;
    std::uint64_t promotions() const override
    {
        return inner_->promotions();
    }
    void onMadviseFree(sim::System &sys, sim::Process &proc, Addr start,
                       std::uint64_t bytes) override;
    void save(snap::Writer &w) const override { inner_->save(w); }
    void load(snap::Reader &r) override { inner_->load(r); }

  private:
    std::unique_ptr<policy::HugePagePolicy> inner_;
    Recorder &rec_;
};

/** Forwards every workload call, timing and counting each chunk. */
class TimedWorkload final : public workload::Workload
{
  public:
    TimedWorkload(std::unique_ptr<workload::Workload> inner,
                  Recorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {}

    std::string name() const override { return inner_->name(); }
    void init(sim::Process &proc) override;
    void next(sim::Process &proc, TimeNs max_compute,
              workload::WorkChunk &chunk) override;
    bool runsToCompletion() const override
    {
        return inner_->runsToCompletion();
    }
    void save(snap::Writer &w) const override { inner_->save(w); }
    void load(snap::Reader &r) override { inner_->load(r); }

  private:
    std::unique_ptr<workload::Workload> inner_;
    Recorder &rec_;
};

/** @p pol itself when untraced (@p rec null), else decorated. */
std::unique_ptr<policy::HugePagePolicy>
traced(std::unique_ptr<policy::HugePagePolicy> pol, Recorder *rec);
/** @p wl itself when untraced (@p rec null), else decorated. */
std::unique_ptr<workload::Workload>
traced(std::unique_ptr<workload::Workload> wl, Recorder *rec);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
