/**
 * @file
 * `perfbench` — outside-in host-time benchmark of HawkSim.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--report FILE] [--commit SHA]
 *
 * Runs one workload's catalogue points through harness::Runner in a
 * closed loop: a pass runs every point once, and passes repeat until
 * --seconds have elapsed (at least one).
 *
 *   --trace 0  set-up-only passes, then untraced passes: the library's
 *              own run loops, no wrappers. Prints the end-to-end
 *              metrics (medians over passes).
 *   --trace 1  pairs of an untraced and a traced pass. Prints the
 *              per-layer metrics of the traced passes and the tracing
 *              overhead.
 *
 * Every pass is checked: each point must finish before its time limit,
 * and every pass must reproduce the first pass's canonical report
 * entries and simulated end times bit for bit (traced passes
 * included). The last stdout line is one JSON object with the keys
 * correct, attempted, failed and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "build_info.hh"
#include "harness/runner.hh"
#include "points.hh"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/** Set-up-only passes continue until this much set-up is sampled. */
constexpr double kSetupSampleS = 4.0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Shortest text that reads back as the same double. */
std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

/** One campaign through harness::Runner. */
struct Pass
{
    double wallS = 0.0;   //!< Runner::run + report serialization
    double runnerS = 0.0; //!< Runner::run alone
    double reportS = 0.0; //!< Report::toJson().dump()
    std::string report;   //!< canonical report text
    /** Canonical entry of each point, in expansion order. */
    std::vector<std::string> entries;
    std::vector<std::string> keys;
    std::vector<double> pointWallS;
    std::vector<PointExtra> extras;
    /** Points that failed, hit their limit or did not report. */
    std::vector<bool> failed;
    double setupS = 0.0; //!< summed over points
    double simS = 0.0;   //!< simulated seconds, summed over points
    std::uint64_t promotions = 0;
    std::uint64_t migratedPages = 0;
    std::uint64_t zeroedPages = 0;
    std::uint64_t dedupedPages = 0;
    std::optional<TraceSession::Totals> trace;
};

enum class PassMode
{
    kUntraced,
    kTraced,
    kSetupOnly,
};

Pass
runPass(const WorkloadSpec &spec, std::uint64_t seed, PassMode mode)
{
    std::unique_ptr<TraceSession> session;
    if (mode == PassMode::kTraced)
        session = std::make_unique<TraceSession>();
    PointEnv env(session.get(), mode == PassMode::kSetupOnly);
    harness::Registry reg;
    spec.registerPoints(reg, env);
    harness::RunnerOptions opts;
    opts.jobs = kWorkers;
    opts.masterSeed = seed;
    opts.filter = spec.filter;

    Pass p;
    const auto t0 = Clock::now();
    const harness::Report rep = harness::Runner(opts).run(reg);
    p.runnerS = secondsSince(t0);
    harness::Json json;
    if (mode != PassMode::kSetupOnly) {
        const auto t1 = Clock::now();
        json = rep.toJson();
        p.report = json.dump();
        p.reportS = secondsSince(t1);
    }
    p.wallS = secondsSince(t0);
    if (session)
        p.trace = session->totals();

    std::map<std::string, PointExtra> extras = env.take();
    for (std::size_t i = 0; i < rep.runs.size(); i++) {
        const harness::RunRecord &r = rep.runs[i];
        const std::string key = pointKey(r.point);
        const auto it = extras.find(key);
        const bool ok = rep.statuses[i].ok() && it != extras.end() &&
                        !it->second.limitHit;
        p.keys.push_back(key);
        p.failed.push_back(!ok);
        p.extras.push_back(it != extras.end() ? it->second
                                              : PointExtra{});
        p.pointWallS.push_back(r.wallMs / 1e3);
        p.setupS += p.extras.back().setupS;
        p.simS += static_cast<double>(p.extras.back().simEndNs) / 1e9;
        if (!p.report.empty())
            p.entries.push_back(json["runs"].at(i).dump());
        const obs::CostAccounting &c = r.output.cost;
        p.promotions += c.counter(obs::Counter::kPromotions);
        p.migratedPages += c.counter(obs::Counter::kMigratedPages);
        p.zeroedPages += c.counter(obs::Counter::kZeroedPages);
        p.dedupedPages += c.counter(obs::Counter::kDedupedPages);
    }
    return p;
}

/**
 * Count @p p's points that differ from @p ref (canonical entry or
 * simulated end time) or failed; mark them failed in @p p.
 */
unsigned
checkAgainst(Pass &p, const Pass &ref)
{
    unsigned failed = 0;
    for (std::size_t i = 0; i < p.keys.size(); i++) {
        const bool same = i < ref.keys.size() &&
                          p.keys[i] == ref.keys[i] &&
                          p.entries[i] == ref.entries[i] &&
                          p.extras[i].simEndNs ==
                              ref.extras[i].simEndNs;
        if (!same)
            p.failed[i] = true;
        failed += p.failed[i] ? 1 : 0;
    }
    if (p.keys.size() != ref.keys.size())
        failed++;
    return failed;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * End-to-end metrics of untraced passes (medians over passes); setup_s
 * is the median of @p setupSamples, the set-up-only passes.
 */
std::vector<Metric>
endToEnd(const std::vector<Pass> &passes,
         const std::vector<double> &setupSamples)
{
    std::vector<double> wall, sim_rate;
    for (const Pass &p : passes) {
        wall.push_back(p.wallS);
        sim_rate.push_back(ratio(p.simS, p.wallS));
    }
    return {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setupSamples), "s"},
        {"sim_s_per_s", median(sim_rate), "s/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/** Per-layer metrics: traced passes for layers, untraced for harness. */
std::vector<Metric>
perLayer(const std::vector<Pass> &untraced,
         const std::vector<Pass> &traced)
{
    const double workers = kWorkers;
    TraceSession::Totals t;
    double report_s = 0.0;
    double ksm_scanned = 0.0, ksm_merged = 0.0;
    double promotions = 0.0, migrated = 0.0, zeroed = 0.0, deduped = 0.0;
    std::vector<double> traced_walls, untraced_walls;
    for (const Pass &p : traced) {
        const TraceSession::Totals &pt = *p.trace;
        // Fold passes together in seconds (each pass calibrates its
        // own tick length).
        for (unsigned i = 0; i < kLayerCount; i++) {
            const auto l = static_cast<Layer>(i);
            t.stats[i].calls += pt.calls(l);
            t.stats[i].total += static_cast<std::uint64_t>(
                pt.totalS(l) * 1e9);
            t.stats[i].self += static_cast<std::uint64_t>(
                pt.selfS(l) * 1e9);
        }
        t.counts.hugeFaults += pt.counts.hugeFaults;
        t.counts.sampledAccesses += pt.counts.sampledAccesses;
        t.counts.touches += pt.counts.touches;
        t.counts.writes += pt.counts.writes;
        t.counts.frees += pt.counts.frees;
        traced_walls.push_back(p.wallS);
        report_s += p.reportS;
        for (const PointExtra &e : p.extras) {
            ksm_scanned += static_cast<double>(e.ksmScanned);
            ksm_merged += static_cast<double>(e.ksmMerged);
        }
        promotions += static_cast<double>(p.promotions);
        migrated += static_cast<double>(p.migratedPages);
        zeroed += static_cast<double>(p.zeroedPages);
        deduped += static_cast<double>(p.dedupedPages);
    }
    t.secondsPerTick = 1e-9;
    const double n = static_cast<double>(traced.size());
    auto s = [&](Layer l) { return t.totalS(l) / n; };
    auto self = [&](Layer l) { return t.selfS(l) / n; };
    auto calls = [&](Layer l) {
        return static_cast<double>(t.calls(l)) / n;
    };
    auto nsPer = [&](Layer l, double count) {
        return ratio(s(l) * 1e9, count);
    };

    // Coverage: layer self time plus the report over the traced
    // passes' wall time on every worker. Neither the point span's own
    // self time (driver glue) nor Runner time outside the points is
    // claimed by a layer, so both count against it.
    double layer_self = 0.0;
    for (unsigned i = 0; i < kLayerCount; i++) {
        if (static_cast<Layer>(i) != Layer::kPoint)
            layer_self += self(static_cast<Layer>(i));
    }
    double traced_wall = 0.0;
    for (double w : traced_walls)
        traced_wall += w;
    const double coverage =
        ratio(layer_self + report_s / n,
              traced_wall / n * workers);

    std::vector<double> point_walls;
    double busy = 0.0, runner = 0.0, u_report = 0.0;
    for (const Pass &p : untraced) {
        untraced_walls.push_back(p.wallS);
        runner += p.runnerS;
        u_report += p.reportS;
        for (double w : p.pointWallS) {
            point_walls.push_back(w);
            busy += w;
        }
    }
    const double un = static_cast<double>(untraced.size());
    const double events = static_cast<double>(t.counts.sampledAccesses +
                                              t.counts.touches +
                                              t.counts.writes) /
                          n;
    const double fault_calls = calls(Layer::kPolicyFault);
    const double ksm_pages = ksm_scanned / n;
    const double engine_self = self(Layer::kTick) +
                               self(Layer::kVmTick) +
                               self(Layer::kHostTick);
    return {
        {"policy.periodic_s", s(Layer::kPolicyPeriodic), "s"},
        {"policy.periodic_ns_per_tick",
         nsPer(Layer::kPolicyPeriodic, calls(Layer::kPolicyPeriodic)),
         "ns"},
        {"cost.promotions", promotions / n, "count"},
        {"cost.migrated_pages", migrated / n, "count"},
        {"cost.zeroed_pages", zeroed / n, "count"},
        {"cost.deduped_pages", deduped / n, "count"},
        {"policy.fault_s", s(Layer::kPolicyFault), "s"},
        {"policy.fault_calls", fault_calls, "count"},
        {"policy.fault_ns_per_call",
         nsPer(Layer::kPolicyFault, fault_calls), "ns"},
        {"policy.huge_fault_frac",
         ratio(static_cast<double>(t.counts.hugeFaults) / n,
               fault_calls),
         "fraction"},
        {"policy.cow_s", s(Layer::kPolicyCow), "s"},
        {"policy.cow_calls", calls(Layer::kPolicyCow), "count"},
        {"policy.madvise_s", s(Layer::kPolicyMadvise), "s"},
        {"policy.madvise_calls", calls(Layer::kPolicyMadvise), "count"},
        {"workload.next_s", s(Layer::kWorkloadNext), "s"},
        {"workload.next_calls", calls(Layer::kWorkloadNext), "count"},
        {"workload.sampled_accesses",
         static_cast<double>(t.counts.sampledAccesses) / n, "count"},
        {"workload.touches", static_cast<double>(t.counts.touches) / n,
         "count"},
        {"workload.writes", static_cast<double>(t.counts.writes) / n,
         "count"},
        {"workload.frees", static_cast<double>(t.counts.frees) / n,
         "count"},
        {"sim.ticks", calls(Layer::kTick), "count"},
        {"sim.tick_s", s(Layer::kTick), "s"},
        {"sim.engine_self_s", engine_self, "s"},
        {"sim.engine_ns_per_event", ratio(engine_self * 1e9, events),
         "ns"},
        {"virt.vm_tick_s", s(Layer::kVmTick), "s"},
        {"virt.vm_tick_self_s", self(Layer::kVmTick), "s"},
        {"virt.host_tick_s", s(Layer::kHostTick), "s"},
        {"virt.host_tick_self_s", self(Layer::kHostTick), "s"},
        {"ksm.periodic_s", s(Layer::kKsm), "s"},
        {"ksm.pages_scanned", ksm_pages, "count"},
        {"ksm.merged_pages", ksm_merged / n, "count"},
        {"ksm.ns_per_scanned_page", nsPer(Layer::kKsm, ksm_pages), "ns"},
        {"setup.system_s", s(Layer::kSetupSystem), "s"},
        {"setup.fragment_s", s(Layer::kSetupFragment), "s"},
        {"setup.add_process_s", s(Layer::kSetupAddProcess), "s"},
        {"harness.point_p50_s", median(point_walls), "s"},
        {"harness.point_max_s",
         point_walls.empty()
             ? 0.0
             : *std::max_element(point_walls.begin(), point_walls.end()),
         "s"},
        {"harness.worker_idle_frac",
         1.0 - ratio(busy, runner * workers),
         "fraction"},
        {"harness.report_s", u_report / un, "s"},
        {"harness.collect_s", s(Layer::kCollect), "s"},
        {"trace.coverage_frac", coverage, "fraction"},
        {"trace.overhead_frac",
         ratio(median(traced_walls), median(untraced_walls)) - 1.0,
         "fraction"},
    };
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--report FILE] [--commit SHA]\n"
                 "workloads:",
                 why);
    for (const WorkloadSpec &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &s, const char *flag)
{
    std::uint64_t v = 0;
    const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
    if (res.ec != std::errc() || res.ptr != s.data() + s.size())
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, report_path, commit = "unknown";
    std::uint64_t seed = 42, seconds = 10;
    int trace = -1;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = parseUint(val, "--seed");
        else if (arg == "--seconds")
            seconds = parseUint(val, "--seconds");
        else if (arg == "--trace")
            trace = static_cast<int>(parseUint(val, "--trace"));
        else if (arg == "--report")
            report_path = val;
        else if (arg == "--commit")
            commit = val;
        else
            usage(("unknown flag " + arg).c_str());
    }
    const WorkloadSpec *spec = findWorkload(workload);
    if (spec == nullptr)
        usage(("unknown workload '" + workload + "'").c_str());
    if (trace != 0 && trace != 1)
        usage("--trace must be 0 or 1");

    std::printf(
        "{\"context\": {\"workload\": %s, \"seed\": %llu, "
        "\"workers\": %u, \"trace\": %d, \"seconds\": %llu, "
        "\"commit\": %s, \"build_type\": %s, \"cxx_flags\": %s, "
        "\"compiler\": %s, \"nproc\": %u}}\n",
        quoted(spec->name).c_str(),
        static_cast<unsigned long long>(seed), kWorkers, trace,
        static_cast<unsigned long long>(seconds),
        quoted(commit).c_str(), quoted(build::kBuildType).c_str(),
        quoted(build::kCxxFlags).c_str(),
        quoted(build::kCompiler).c_str(),
        std::thread::hardware_concurrency());
    std::fflush(stdout);

    // setup_s is the median over set-up-only passes: at least three,
    // and up to 20 until kSetupSampleS seconds are sampled. They are
    // kept apart from the measured passes, whose set-up runs between
    // simulations and so differs from back-to-back set-ups.
    std::vector<double> setup_samples;
    double setup_spent = 0.0;
    while (trace == 0 &&
           (setup_samples.size() < 3 ||
            (setup_spent < kSetupSampleS && setup_samples.size() < 20))) {
        setup_samples.push_back(
            runPass(*spec, seed, PassMode::kSetupOnly).setupS);
        setup_spent += setup_samples.back();
        std::printf("setup pass %zu %.4f s\n", setup_samples.size(),
                    setup_samples.back());
    }
    std::fflush(stdout);

    std::vector<Pass> untraced, traced;
    unsigned attempted = 0, failed = 0;
    const auto start = Clock::now();
    // Closed loop: start another pass (or pair) only while it should
    // still end within --seconds, judged by the mean so far.
    auto more = [&](std::size_t done) {
        if (done == 0)
            return true;
        const double elapsed = secondsSince(start);
        return elapsed + elapsed / static_cast<double>(done) <=
               static_cast<double>(seconds);
    };
    auto logPass = [](const char *kind, std::size_t n, const Pass &p) {
        std::printf("pass %zu %-8s wall %.4f s  setup %.4f s  "
                    "sim %.3f s  peak rss %.1f MB\n",
                    n, kind, p.wallS, p.setupS, p.simS, peakRssMb());
        std::fflush(stdout);
    };
    while (more(untraced.size())) {
        untraced.push_back(runPass(*spec, seed, PassMode::kUntraced));
        Pass &u = untraced.back();
        failed += checkAgainst(u, untraced.front());
        attempted += static_cast<unsigned>(u.keys.size());
        logPass("untraced", untraced.size(), u);
        if (trace == 1) {
            traced.push_back(runPass(*spec, seed, PassMode::kTraced));
            Pass &t = traced.back();
            failed += checkAgainst(t, untraced.front());
            attempted += static_cast<unsigned>(t.keys.size());
            logPass("traced", traced.size(), t);
        }
    }
    if (!report_path.empty()) {
        std::ofstream out(report_path, std::ios::binary);
        out << untraced.front().report;
        if (!out.good()) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         report_path.c_str());
            return 1;
        }
    }

    const std::vector<Metric> metrics =
        trace == 0 ? endToEnd(untraced, setup_samples)
                   : perLayer(untraced, traced);
    bool correct = failed == 0;
    for (const Metric &m : metrics) {
        std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (m.name == "trace.coverage_frac" && m.value < 0.95) {
            std::fprintf(stderr,
                         "perfbench: trace coverage %.3f < 0.95\n",
                         m.value);
            correct = false;
        }
    }
    std::printf("%-30s %16.6f fraction (%u of %u points)\n",
                "failed_frac", ratio(failed, attempted), failed,
                attempted);

    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); i++) {
        if (i > 0)
            line += ", ";
        line += quoted(metrics[i].name);
        line += ": {\"value\": ";
        line += number(metrics[i].value);
        line += ", \"unit\": ";
        line += quoted(metrics[i].unit);
        line += "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
