/**
 * @file
 * The benchmark's workloads: catalogue grid points rebuilt from the
 * library's public API.
 *
 * Each workload registers experiments under the catalogue's own
 * names and axes, so harness::Runner derives the same per-point
 * seeds as `hawksim_bench` and a point's canonical report entry is
 * byte-identical to the catalogue's (tests/test_mirror.py checks
 * this). The same point code runs untraced — the library's own run
 * loops, no wrappers — or traced, with decorated policies and
 * workloads and the driver owning the tick loop.
 */

#ifndef PERFBENCH_POINTS_HH
#define PERFBENCH_POINTS_HH

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hh"
#include "trace.hh"

namespace perfbench {

/** What a point reports beside its canonical report entry. */
struct PointExtra
{
    /** Host seconds from entering the point to its first tick. */
    double setupS = 0.0;
    /** Simulated time when the point stopped. */
    TimeNs simEndNs = 0;
    /** A run-to-completion process was still running at the limit. */
    bool limitHit = false;
    std::uint64_t ksmScanned = 0;
    std::uint64_t ksmMerged = 0;
};

/** How one campaign runs its points; shared by its worker threads. */
class PointEnv
{
  public:
    PointEnv(TraceSession *trace, bool setup_only)
        : trace_(trace), setup_only_(setup_only)
    {}

    /** The calling thread's recorder, or null when untraced. */
    Recorder *
    recorder() const
    {
        return trace_ != nullptr ? &trace_->recorder() : nullptr;
    }
    /** Stop each point after set-up (set-up timing passes). */
    bool setupOnly() const { return setup_only_; }

    void put(const harness::RunPoint &point, const PointExtra &extra);
    /** Extras keyed by "experiment/index"; read after the run. */
    std::map<std::string, PointExtra> take();

  private:
    TraceSession *trace_;
    bool setup_only_;
    std::mutex mutex_;
    std::map<std::string, PointExtra> extras_; // guarded by mutex_
};

/**
 * Runner worker threads of every workload. Each workload is a single
 * point, so more workers would only sit idle.
 */
constexpr unsigned kWorkers = 1;

/** One benchmark workload: a fixed set of catalogue points. */
struct WorkloadSpec
{
    const char *name;
    /** Runner filter selecting the mirrored points. */
    const char *filter;
    /** Register the mirrored experiments, bound to @p env. */
    void (*registerPoints)(harness::Registry &reg, PointEnv &env);
};

const std::vector<WorkloadSpec> &workloads();
const WorkloadSpec *findWorkload(std::string_view name);

/** "experiment/index", the key of PointEnv's extras. */
std::string pointKey(const harness::RunPoint &point);

} // namespace perfbench

#endif // PERFBENCH_POINTS_HH
