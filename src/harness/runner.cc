#include "harness/runner.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "base/logging.hh"
#include "harness/journal.hh"
#include "harness/seed.hh"
#include "obs/introspect.hh"
#include "obs/perfetto.hh"

namespace hawksim::harness {

Json
metricsToJson(const sim::Metrics &m)
{
    Json out = Json::object();
    Json events = Json::array();
    for (const auto &ev : m.events()) {
        Json e = Json::object();
        e.set("t", Json(static_cast<std::int64_t>(ev.time)));
        e.set("what", Json(ev.what));
        events.push(std::move(e));
    }
    out.set("events", std::move(events));
    Json series = Json::object();
    for (auto id : m.sortedIds()) {
        const TimeSeries &ts = m.series(id);
        Json t = Json::array();
        Json v = Json::array();
        for (const auto &p : ts.points()) {
            t.push(Json(static_cast<std::int64_t>(p.time)));
            v.push(Json(p.value));
        }
        Json one = Json::object();
        one.set("t", std::move(t));
        one.set("v", std::move(v));
        series.set(ts.name(), std::move(one));
    }
    out.set("series", std::move(series));
    return out;
}

sim::Metrics
metricsFromJson(const Json &j)
{
    sim::Metrics m;
    for (const auto &[name, ser] : j["series"].members()) {
        const auto id = m.seriesId(name);
        const Json &t = ser["t"];
        const Json &v = ser["v"];
        HS_ASSERT(t.size() == v.size(),
                  "series ", name, " t/v length mismatch");
        for (std::size_t i = 0; i < t.size(); i++) {
            m.record(id, static_cast<TimeNs>(t.at(i).asInt()),
                     v.at(i).asDouble());
        }
    }
    for (const auto &ev : j["events"].items()) {
        m.event(static_cast<TimeNs>(ev["t"].asInt()),
                ev["what"].asString());
    }
    return m;
}

Json
costToJson(const obs::CostAccounting &cost,
           const obs::TraceStats *traceStats)
{
    Json out = Json::object();
    out.set("total_ns",
            Json(static_cast<std::int64_t>(cost.totalNs())));
    Json subsys = Json::object();
    for (unsigned s = 0; s < obs::kSubsysCount; s++) {
        const auto sub = static_cast<obs::Subsys>(s);
        subsys.set(obs::subsysName(sub),
                   Json(static_cast<std::int64_t>(
                       cost.subsysNs(sub))));
    }
    out.set("subsys_ns", std::move(subsys));
    Json counters = Json::object();
    for (unsigned c = 0; c < obs::kCounterCount; c++) {
        const auto ctr = static_cast<obs::Counter>(c);
        counters.set(obs::counterName(ctr),
                     Json(static_cast<std::int64_t>(
                         cost.counter(ctr))));
    }
    out.set("counters", std::move(counters));
    const obs::LatencyHistogram &h = cost.faultLatency();
    Json lat = Json::object();
    lat.set("count", Json(static_cast<std::int64_t>(h.count())));
    lat.set("min", Json(static_cast<std::int64_t>(h.minimum())));
    lat.set("max", Json(static_cast<std::int64_t>(h.maximum())));
    lat.set("mean", Json(h.mean()));
    lat.set("p50", Json(h.quantile(0.50)));
    lat.set("p95", Json(h.quantile(0.95)));
    lat.set("p99", Json(h.quantile(0.99)));
    out.set("fault_latency_ns", std::move(lat));
    // Tracer accounting rides along only for traced runs, so reports
    // of untraced runs keep their historical byte-exact shape.
    if (traceStats != nullptr && traceStats->enabled) {
        Json tr = Json::object();
        tr.set("emitted", Json(static_cast<std::int64_t>(
                              traceStats->emitted)));
        tr.set("dropped", Json(static_cast<std::int64_t>(
                              traceStats->dropped)));
        Json by_cat = Json::object();
        for (unsigned c = 0; c < obs::kCatCount; c++) {
            by_cat.set(obs::catName(static_cast<obs::Cat>(c)),
                       Json(static_cast<std::int64_t>(
                           traceStats->droppedByCat[c])));
        }
        tr.set("dropped_by_cat", std::move(by_cat));
        out.set("trace", std::move(tr));
    }
    return out;
}

bool
Report::degraded() const
{
    for (const PointStatus &st : statuses)
        if (!st.ok())
            return true;
    return false;
}

Json
Report::toJson() const
{
    Json out = Json::object();
    out.set("schema", Json(kReportSchema));
    out.set("master_seed", Json(masterSeed));
    out.set("run_count", Json(static_cast<std::int64_t>(runs.size())));
    Json jruns = Json::array();
    for (const RunRecord &r : runs) {
        Json jr = Json::object();
        jr.set("experiment", Json(r.point.experiment));
        jr.set("index",
               Json(static_cast<std::int64_t>(r.point.index)));
        Json params = Json::object();
        for (const auto &[k, v] : r.point.params)
            params.set(k, Json(v));
        jr.set("params", std::move(params));
        jr.set("seed", Json(r.seed));
        jr.set("sim_time_ns",
               Json(static_cast<std::int64_t>(r.output.simTimeNs)));
        Json scalars = Json::object();
        for (const auto &[k, v] : r.output.scalars)
            scalars.set(k, Json(v));
        jr.set("scalars", std::move(scalars));
        jr.set("cost", costToJson(r.output.cost,
                                  &r.output.traceStats));
        jr.set("metrics", metricsToJson(r.output.metrics));
        jruns.push(std::move(jr));
    }
    out.set("runs", std::move(jruns));
    // The supervision ledger appears only when a point ended badly:
    // clean campaigns — including retried-but-recovered ones and
    // journal resumes — keep the exact historical report shape.
    if (degraded()) {
        Json pts = Json::array();
        for (std::size_t i = 0; i < statuses.size(); i++) {
            const PointStatus &st = statuses[i];
            if (st.fromJournal || (st.ok() && st.retries() == 0))
                continue;
            Json jp = Json::object();
            if (i < runs.size()) {
                jp.set("experiment", Json(runs[i].point.experiment));
                jp.set("index", Json(static_cast<std::int64_t>(
                                    runs[i].point.index)));
            }
            jp.set("state", Json(stateName(st.state)));
            jp.set("attempts",
                   Json(static_cast<std::int64_t>(st.attempts)));
            if (!st.error.empty())
                jp.set("error", Json(st.error));
            pts.push(std::move(jp));
        }
        Json status = Json::object();
        status.set("points", std::move(pts));
        out.set("status", std::move(status));
    }
    return out;
}

Json
Report::profileJson() const
{
    Json out = Json::object();
    out.set("schema", Json("hawksim-bench-profile/v1"));
    out.set("total_wall_ms", Json(totalWallMs));
    Json jruns = Json::array();
    for (const RunRecord &r : runs) {
        Json jr = Json::object();
        jr.set("experiment", Json(r.point.experiment));
        jr.set("index",
               Json(static_cast<std::int64_t>(r.point.index)));
        jr.set("wall_ms", Json(r.wallMs));
        jr.set("sim_time_ns",
               Json(static_cast<std::int64_t>(r.output.simTimeNs)));
        jruns.push(std::move(jr));
    }
    out.set("runs", std::move(jruns));
    return out;
}

namespace {

/**
 * Metrics series exported as Perfetto counter tracks: the headline
 * memory-state series, the vmstat sampler's buddy depths, and the
 * per-process RSS / huge-RSS series.
 */
bool
isCounterSeries(std::string_view name)
{
    if (name == "sys.fmfi9" || name == "sys.free_frames")
        return true;
    if (name.substr(0, 7) == "vmstat.")
        return true;
    if (name.size() > 1 && name[0] == 'p') {
        std::size_t i = 1;
        while (i < name.size() && name[i] >= '0' && name[i] <= '9')
            i++;
        if (i > 1 && i < name.size()) {
            const std::string_view rest = name.substr(i);
            return rest == ".rss_pages" || rest == ".huge_pages";
        }
    }
    return false;
}

} // namespace

void
Report::writeTrace(std::ostream &os) const
{
    obs::PerfettoWriter w(os);
    for (std::size_t i = 0; i < runs.size(); i++) {
        const RunRecord &r = runs[i];
        const auto pid = static_cast<std::uint32_t>(i + 1);
        w.beginProcess(pid, r.point.experiment + "/" +
                                r.point.label());
        w.runSpan(pid, r.output.simTimeNs);
        for (const obs::TraceEvent &ev : r.output.trace)
            w.event(pid, ev);

        // Counter tracks from the run's metrics, in sorted-name
        // order (the counter samples carry integer values; FMFI is
        // scaled to fixed-point thousandths to stay integral).
        const sim::Metrics &m = r.output.metrics;
        for (auto id : m.sortedIds()) {
            const TimeSeries &ts = m.series(id);
            if (!isCounterSeries(ts.name()))
                continue;
            const bool fixed_point = ts.name() == "sys.fmfi9";
            const std::string cname =
                fixed_point ? ts.name() + "_x1000" : ts.name();
            for (const auto &p : ts.points()) {
                const double v =
                    fixed_point ? p.value * 1000.0 : p.value;
                w.counter(pid, cname, p.time, std::llround(v));
            }
        }

        // Cost accounting as end-of-run counter samples: one track
        // per subsystem plus the fault-latency percentiles.
        const obs::CostAccounting &cost = r.output.cost;
        for (unsigned s = 0; s < obs::kSubsysCount; s++) {
            const auto sub = static_cast<obs::Subsys>(s);
            w.counter(pid,
                      std::string("cost.") + obs::subsysName(sub) +
                          "_ns",
                      r.output.simTimeNs, cost.subsysNs(sub));
        }
        const obs::LatencyHistogram &h = cost.faultLatency();
        w.counter(pid, "cost.fault_p50_ns", r.output.simTimeNs,
                  std::llround(h.quantile(0.50)));
        w.counter(pid, "cost.fault_p95_ns", r.output.simTimeNs,
                  std::llround(h.quantile(0.95)));
        w.counter(pid, "cost.fault_p99_ns", r.output.simTimeNs,
                  std::llround(h.quantile(0.99)));

        // Ring-drop accounting as one metadata instant, so a
        // truncated trace announces what it lost.
        const obs::TraceStats &st = r.output.traceStats;
        if (st.dropped > 0) {
            std::string args =
                "\"emitted\":" + std::to_string(st.emitted) +
                ",\"dropped\":" + std::to_string(st.dropped);
            for (unsigned c = 0; c < obs::kCatCount; c++) {
                if (st.droppedByCat[c] == 0)
                    continue;
                args += ",\"dropped_";
                args += obs::catName(static_cast<obs::Cat>(c));
                args += "\":" + std::to_string(st.droppedByCat[c]);
            }
            w.instantArgs(pid, 0, "tracer_drops", "trace",
                          r.output.simTimeNs, args);
        }

        // Supervision incidents as instants, so a failed or
        // timed-out point is visible in Perfetto next to the sim
        // events instead of only in the degraded report's "status"
        // block. Same carve-out as that block: only non-ok points
        // are annotated — a retried-but-recovered run is
        // byte-identical to a first-try success in *every* canonical
        // artifact, trace included (its attempt count shows only on
        // the runner's stderr line). A failed point's ledger does
        // include the retry instants that led up to the terminal
        // failure.
        if (i < statuses.size()) {
            const PointStatus &ps = statuses[i];
            if (!ps.ok() && !ps.fromJournal) {
                for (const AttemptEvent &ev : ps.events) {
                    const char *name =
                        ev.kind == AttemptEvent::Kind::kRetry
                            ? "supervisor_retry"
                        : ev.kind == AttemptEvent::Kind::kTimedOut
                            ? "supervisor_timeout"
                            : "supervisor_failed";
                    std::string args =
                        "\"attempt\":" +
                        std::to_string(ev.attempt) +
                        ",\"error_kind\":\"" +
                        std::string(ev.errorKind) + "\"";
                    w.instantArgs(pid, 0, name, "super",
                                  r.output.simTimeNs, args);
                }
            }
        }
    }
    w.finish();
}

Json
Report::inspectJson() const
{
    Json out = Json::object();
    out.set("schema", Json(obs::kInspectSchema));
    out.set("master_seed", Json(masterSeed));
    out.set("run_count",
            Json(static_cast<std::int64_t>(runs.size())));
    Json jruns = Json::array();
    for (const RunRecord &r : runs) {
        Json jr = Json::object();
        jr.set("experiment", Json(r.point.experiment));
        jr.set("index",
               Json(static_cast<std::int64_t>(r.point.index)));
        Json params = Json::object();
        for (const auto &[k, v] : r.point.params)
            params.set(k, Json(v));
        jr.set("params", std::move(params));
        jr.set("seed", Json(r.seed));
        Json snaps = Json::array();
        for (const obs::Snapshot &s : r.output.snapshots)
            snaps.push(obs::snapshotToJson(s));
        jr.set("snapshots", std::move(snaps));
        jruns.push(std::move(jr));
    }
    out.set("runs", std::move(jruns));
    return out;
}

std::optional<double>
etaMs(std::size_t fresh, std::size_t done, std::size_t total,
      double elapsedMs)
{
    if (fresh == 0 || done >= total || elapsedMs <= 0.0)
        return std::nullopt;
    return static_cast<double>(total - done) * elapsedMs /
           static_cast<double>(fresh);
}

namespace {

/** "m:ss", or "h:mm:ss" from an hour on. */
std::string
formatEta(double ms)
{
    const auto sec = static_cast<unsigned long long>(ms / 1e3 + 0.5);
    char buf[32];
    if (sec >= 3600) {
        std::snprintf(buf, sizeof(buf), "%llu:%02llu:%02llu",
                      sec / 3600, sec / 60 % 60, sec % 60);
    } else {
        std::snprintf(buf, sizeof(buf), "%llu:%02llu", sec / 60,
                      sec % 60);
    }
    return buf;
}

} // namespace

bool
Runner::matches(const std::string &filter, const RunPoint &point)
{
    if (filter.empty())
        return true;
    if (point.experiment.find(filter) != std::string::npos)
        return true;
    const std::string full = point.experiment + "/" + point.label();
    return full.find(filter) != std::string::npos;
}

Report
Runner::run(const Registry &reg) const
{
    struct Job
    {
        const Experiment *experiment;
        RunPoint point;
        std::uint64_t seed;
    };
    std::vector<Job> jobs;
    for (const auto &exp : reg.experiments()) {
        HS_ASSERT(exp->runFn() != nullptr, "experiment ",
                  exp->name(), " has no run function");
        for (RunPoint &pt : exp->expand()) {
            const std::uint64_t seed =
                deriveSeed(opts_.masterSeed, pt.experiment, pt.index);
            if (!matches(opts_.filter, pt))
                continue;
            jobs.push_back({exp.get(), std::move(pt), seed});
        }
    }

    Report report;
    report.masterSeed = opts_.masterSeed;
    report.runs.resize(jobs.size());
    report.statuses.resize(jobs.size());

    // Campaign journal: replay already-completed points on resume,
    // then (re)open the file so fresh completions append behind the
    // valid prefix.
    std::unordered_map<std::string, RunRecord> journaled;
    std::unique_ptr<CampaignJournal> journal;
    if (!opts_.journalPath.empty()) {
        const std::uint64_t fp = campaignFingerprint(reg, opts_);
        std::uint64_t keep = 0;
        if (opts_.resumeCampaign) {
            CampaignJournal::Loaded loaded =
                CampaignJournal::load(opts_.journalPath, fp);
            keep = loaded.validBytes;
            for (RunRecord &rec : loaded.records)
                journaled[journalKey(rec.point)] = std::move(rec);
            if (loaded.tornBytes > 0) {
                HS_WARN("journal ", opts_.journalPath, ": dropping ",
                        loaded.tornBytes,
                        " torn tail bytes (crash mid-append)");
            }
        }
        journal = std::make_unique<CampaignJournal>(opts_.journalPath,
                                                    fp, keep);
    }

    unsigned jobCount = opts_.jobs;
    if (jobCount == 0) {
        jobCount = std::thread::hardware_concurrency();
        if (jobCount == 0)
            jobCount = 1;
    }
    jobCount = static_cast<unsigned>(
        std::min<std::size_t>(jobCount, std::max<std::size_t>(
                                            jobs.size(), 1)));

    const auto sweep_start = std::chrono::steady_clock::now();
    std::atomic<std::size_t> next{0};
    // Per-point stderr lines; their counters exist only for them.
    std::mutex io_mutex;
    std::size_t done = 0;
    std::size_t fresh = 0;
    Watchdog watchdog(opts_.supervise.pointTimeoutSec);
    auto worker = [&](unsigned slot) {
        RunControl ctl;
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            const Job &job = jobs[i];
            RunRecord &rec = report.runs[i];
            PointStatus &status = report.statuses[i];
            rec.point = job.point;
            rec.seed = job.seed;

            // Resume: the journal already has this point's result.
            // Seeds must agree — they do unless the journal predates
            // a campaign change the fingerprint failed to catch.
            if (auto it = journaled.find(journalKey(job.point));
                it != journaled.end() && it->second.seed == job.seed) {
                rec = std::move(it->second);
                status.fromJournal = true;
                status.attempts = 0;
                if (opts_.verbose) {
                    std::lock_guard<std::mutex> lock(io_mutex);
                    std::fprintf(stderr, "[%zu/%zu] %s %s (journal)\n",
                                 ++done, jobs.size(),
                                 job.point.experiment.c_str(),
                                 job.point.label().c_str());
                }
                continue;
            }

            // Per-point injector for the harness I/O fault sites.
            // Seeded like the run itself, and *persistent across
            // retry attempts* so the occurrence counters advance: a
            // write that failed on attempt 1 succeeds on attempt 2
            // instead of failing deterministically forever.
            std::optional<fault::FaultInjector> ioFault;
            if (opts_.fault.injectionEnabled())
                ioFault.emplace(job.seed, opts_.fault);

            auto attempt = [&]() {
                const auto t0 = std::chrono::steady_clock::now();
                snap::SnapConfig snap = opts_.snap;
                if (snap.checkpointEvery > 0 &&
                    !opts_.checkpointOut.empty()) {
                    snap.checkpointPrefix =
                        opts_.checkpointOut + "/" +
                        job.point.experiment + "-" +
                        std::to_string(job.point.index);
                }
                RunContext ctx(job.point, job.seed, &opts_.trace,
                               &opts_.fault, &opts_.inspect, &snap,
                               &ctl,
                               ioFault ? &*ioFault : nullptr);
                // Assigned only when the attempt returns, so a
                // failed attempt leaves no partial output behind.
                rec.output = job.experiment->runFn()(ctx);
                rec.wallMs =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
            };
            status = supervisePoint(opts_.supervise, ctl, &watchdog,
                                    slot, attempt);
            if (status.ok() && journal)
                journal->append(rec, ioFault ? &*ioFault : nullptr);
            if (opts_.verbose) {
                std::lock_guard<std::mutex> lock(io_mutex);
                ++done;
                ++fresh;
                std::string note;
                if (!status.clean()) {
                    note += ", ";
                    note += stateName(status.state);
                    note += ", " + std::to_string(status.attempts) +
                            " attempts";
                }
                const std::optional<double> eta = etaMs(
                    fresh, done, jobs.size(),
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - sweep_start)
                        .count());
                if (eta)
                    note += ", ETA " + formatEta(*eta);
                std::fprintf(stderr, "[%zu/%zu] %s %s (%.0f ms%s)\n",
                             done, jobs.size(),
                             job.point.experiment.c_str(),
                             job.point.label().c_str(), rec.wallMs,
                             note.c_str());
            }
        }
    };

    if (jobCount <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobCount);
        for (unsigned t = 0; t < jobCount; t++)
            pool.emplace_back(worker, t);
        for (auto &t : pool)
            t.join();
    }
    report.totalWallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - sweep_start)
            .count();
    return report;
}

} // namespace hawksim::harness
