/**
 * @file
 * Parallel experiment runner.
 *
 * Expands every registered experiment into grid points, executes them
 * across a std::thread pool, and assembles a Report whose canonical
 * JSON is byte-identical for any --jobs value: per-point seeds are
 * derived from (master seed, experiment name, grid index) only, each
 * run owns its System, and results are emitted in expansion order
 * regardless of completion order. Wall-clock profiling is kept out of
 * the canonical report (it is the one thing that legitimately varies
 * between runs) and exposed separately.
 */

#ifndef HAWKSIM_HARNESS_RUNNER_HH
#define HAWKSIM_HARNESS_RUNNER_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "harness/experiment.hh"
#include "harness/json.hh"
#include "harness/supervisor.hh"
#include "obs/trace.hh"

namespace hawksim::harness {

struct RunnerOptions
{
    /** Worker threads (0 = hardware concurrency). */
    unsigned jobs = 0;
    /** Master seed every per-run seed derives from. */
    std::uint64_t masterSeed = 42;
    /**
     * Substring filter; a point runs if this occurs in its
     * experiment name or in "name/label". Empty = run everything.
     */
    std::string filter;
    /**
     * One stderr line per completed point, with the campaign's ETA
     * (see etaMs) once a point has executed.
     */
    bool verbose = false;
    /**
     * Per-run trace configuration (disabled by default). The CLI
     * enables it when --trace is given; the drained events land in
     * each RunRecord and are exported with Report::writeTrace.
     */
    obs::TraceConfig trace;
    /**
     * Per-run fault-injection + audit configuration (inert by
     * default). The CLI fills it from --chaos / --fault-script /
     * --audit-every; injection decisions derive
     * from each run's own seed, so the report stays byte-identical
     * for any --jobs value.
     */
    fault::FaultConfig fault;
    /**
     * Per-run introspection snapshots (disabled by default). The CLI
     * enables it for --inspect-every/--inspect-out; snapshots land in
     * each RunRecord and are exported with Report::inspectJson.
     */
    obs::InspectConfig inspect;
    /**
     * Checkpoint / restore / replay (inert by default). The CLI
     * fills it from --checkpoint-every / --restore / --replay-to;
     * `snap.checkpointPrefix` is ignored here — the runner derives a
     * per-grid-point prefix `<checkpointOut>/<experiment>-<index>`
     * so parallel points never clobber each other's files.
     */
    snap::SnapConfig snap;
    /** Directory for checkpoint files (--checkpoint-out). */
    std::string checkpointOut;
    /**
     * Failure-isolation policy: --retries and --point-timeout. With
     * the defaults every point runs exactly once, unsupervised, and
     * any escape aborts as before.
     */
    SupervisorOptions supervise;
    /** Campaign journal file (--journal; empty = no journal). */
    std::string journalPath;
    /**
     * Replay the journal and skip every point it already records
     * (--resume-campaign). Requires journalPath.
     */
    bool resumeCampaign = false;
};

/** One executed grid point. */
struct RunRecord
{
    RunPoint point;
    std::uint64_t seed = 0;
    RunOutput output;
    /** Host wall-clock of this run (profiling only, not canonical). */
    double wallMs = 0.0;
};

/** Schema tag stamped into the top-level canonical JSON report. */
inline constexpr const char *kReportSchema = "hawksim-report/v1";

struct Report
{
    std::uint64_t masterSeed = 0;
    std::vector<RunRecord> runs;
    /**
     * Per-point supervision ledger, parallel to `runs` (empty for
     * reports assembled outside the runner). Only a *degraded*
     * campaign surfaces it in toJson — see degraded().
     */
    std::vector<PointStatus> statuses;
    /** Total host wall-clock of the sweep. */
    double totalWallMs = 0.0;

    /**
     * Did any point end in a non-ok state? Retried-but-recovered and
     * journal-replayed points do NOT count: their results are
     * byte-identical to an undisturbed run, and flagging them would
     * break the report's determinism contract.
     */
    bool degraded() const;

    /**
     * Canonical machine-readable report: deterministic for a given
     * (registry, master seed, filter), independent of --jobs.
     */
    Json toJson() const;
    /** Wall-clock profile (non-deterministic; separate artifact). */
    Json profileJson() const;
    /**
     * Chrome trace_event / Perfetto JSON of every run's trace events
     * (one Perfetto process per run, in expansion order), plus
     * counter tracks (FMFI, free frames, vmstat buddy depths,
     * per-process RSS/huge-RSS, per-subsystem cost, fault-latency
     * percentiles) and tracer drop metadata. Points that ended
     * non-ok (failed / timed out) additionally carry "supervisor_*"
     * instants synthesized from the status ledger — the same
     * carve-out as the report's "status" block: a retried-but-
     * recovered point is byte-identical to a first-try success in
     * every canonical artifact, trace included (recovered retries
     * show only on the runner's stderr line). Like toJson, the
     * output is byte-identical for any --jobs value.
     */
    void writeTrace(std::ostream &os) const;
    /**
     * Versioned canonical-JSON dump of every run's snapshots
     * (obs::kInspectSchema; the --inspect-out artifact). Deterministic
     * and byte-identical for any --jobs value.
     */
    Json inspectJson() const;
};

/**
 * Serialize one run's cost accounting (always-on observability).
 * When @p traceStats describes an *enabled* tracer, a "trace"
 * sub-object with emit/drop accounting is appended; untraced runs
 * omit it so their reports stay byte-identical to older builds.
 */
Json costToJson(const obs::CostAccounting &cost,
                const obs::TraceStats *traceStats = nullptr);

/** Serialize one run's Metrics (series sorted by name + events). */
Json metricsToJson(const sim::Metrics &m);
/** Rebuild Metrics from metricsToJson output (round-trip). */
sim::Metrics metricsFromJson(const Json &j);

/**
 * Projected wall-clock ms until a campaign of @p total points ends,
 * @p elapsedMs after it started, with @p done points complete of
 * which @p fresh executed in this process. Only fresh points set the
 * rate: journal replays finish in microseconds and say nothing about
 * how long the rest will take. Empty before the first fresh point
 * and once nothing remains.
 */
std::optional<double> etaMs(std::size_t fresh, std::size_t done,
                            std::size_t total, double elapsedMs);

class Runner
{
  public:
    explicit Runner(RunnerOptions opts) : opts_(opts) {}

    /** Execute all matching grid points of @p reg. */
    Report run(const Registry &reg) const;

    /** Does @p point pass the options' filter? */
    static bool matches(const std::string &filter,
                        const RunPoint &point);

  private:
    RunnerOptions opts_;
};

} // namespace hawksim::harness

#endif // HAWKSIM_HARNESS_RUNNER_HH
