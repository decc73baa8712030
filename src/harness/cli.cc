#include "harness/cli.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analyze/analyze.hh"
#include "base/error.hh"
#include "base/io.hh"
#include "base/logging.hh"
#include "fault/fault.hh"
#include "harness/runner.hh"
#include "obs/introspect.hh"

namespace hawksim::harness {

namespace {

void
printUsage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "  --list           list experiments and grid sizes, then exit\n"
        "  --filter SUBSTR  run only grid points whose experiment name\n"
        "                   or \"name/label\" contains SUBSTR\n"
        "  --jobs N         worker threads (default: all cores);\n"
        "                   the report is identical for any N\n"
        "  --seed S         master seed (default 42)\n"
        "  --out FILE       canonical JSON report\n"
        "                   (default results/bench.json)\n"
        "  --profile FILE   also write wall-clock profile JSON\n"
        "  --trace FILE     write a Chrome trace_event JSON of every\n"
        "                   run (open in ui.perfetto.dev); identical\n"
        "                   for any --jobs\n"
        "  --trace-filter C comma-separated event categories to trace\n"
        "                   (fault,promote,demote,zero,bloat,compact,\n"
        "                   reclaim,tlb,proc; default: all)\n"
        "  --chaos          enable fault injection + invariant audits\n"
        "                   + the deterministic OOM killer (default\n"
        "                   rate 0.01 unless --fault-rate or\n"
        "                   --fault-script is given); the report is\n"
        "                   still identical for any --jobs\n"
        "  --fault-rate R   per-probe injection probability in [0,1]\n"
        "                   (implies --chaos)\n"
        "  --fault-script F scripted injection: lines of\n"
        "                   \"<site> <occurrence>\" (1-based), e.g.\n"
        "                   \"buddy-alloc 3\"; disables probabilistic\n"
        "                   injection (implies --chaos)\n"
        "  --audit-every N  run the invariant auditor every N ticks\n"
        "                   (0 = only at end of run / after faults)\n"
        "  --inspect-every N take a procfs-style state snapshot every\n"
        "                   N sim ticks (meminfo/buddyinfo/smaps/\n"
        "                   pagemap/TLB occupancy + vmstat.* series)\n"
        "  --inspect-out F  write all snapshots as versioned\n"
        "                   canonical JSON (implies --inspect-every\n"
        "                   100 unless given); identical for any\n"
        "                   --jobs\n"
        "  --heatmap FILE   render the last snapshot of every run as\n"
        "                   text VA-space heatmaps (implies\n"
        "                   --inspect-every 100 unless given)\n"
        "  --checkpoint-every N\n"
        "                   save a hawksim-snap/v1 checkpoint of\n"
        "                   every run's System every N sim ticks\n"
        "                   (requires --checkpoint-out)\n"
        "  --checkpoint-out DIR\n"
        "                   directory for checkpoint files, named\n"
        "                   <experiment>-<point>-tick<N>.snap\n"
        "  --restore FILE   rebuild each run, then overwrite its\n"
        "                   state from a checkpoint at the first\n"
        "                   tick; the resumed run is byte-identical\n"
        "                   to an uninterrupted one\n"
        "  --replay-to TICK stop every run after tick TICK (time\n"
        "                   travel: restore an earlier checkpoint\n"
        "                   and replay up to a point of interest)\n"
        "  --checkpoint-keep N\n"
        "                   keep only the newest N checkpoints per\n"
        "                   grid point (default 0 = keep all)\n"
        "  --restore-strict die on a corrupt/truncated --restore file\n"
        "                   instead of falling back to the newest\n"
        "                   older valid checkpoint beside it\n"
        "  --retries N      re-run a grid point that failed with a\n"
        "                   recoverable error (I/O fault, corrupt\n"
        "                   snapshot) up to N more times, same seed;\n"
        "                   a retried success is byte-identical to a\n"
        "                   first-try success (default 0)\n"
        "  --point-timeout SEC\n"
        "                   cancel a grid point whose tick heartbeat\n"
        "                   stalls for SEC seconds; it is recorded as\n"
        "                   timed-out, the campaign continues\n"
        "  --journal FILE   durably append each completed point to\n"
        "                   FILE (CRC-framed; survives SIGKILL)\n"
        "  --resume-campaign\n"
        "                   replay --journal FILE and re-run only the\n"
        "                   missing points; the final report is\n"
        "                   byte-identical to an uninterrupted run\n"
        "  --progress       live status line on stderr (rewritten in\n"
        "                   place on a TTY, one line per heartbeat\n"
        "                   otherwise); replaces per-run lines\n"
        "  --telemetry-out FILE\n"
        "                   append one hawksim-telemetry/v1 heartbeat\n"
        "                   per line (JSONL) while the campaign runs\n"
        "  --telemetry-port N\n"
        "                   serve Prometheus text on\n"
        "                   http://127.0.0.1:N/metrics (+ /healthz);\n"
        "                   0 picks an ephemeral port\n"
        "  --telemetry-interval SEC\n"
        "                   heartbeat period (default 1.0)\n"
        "  --analyze        report analytics instead of running the\n"
        "                   grid; needs --diff\n"
        "  --diff A B       diff two canonical artifacts: pinned\n"
        "                   fields byte-exact, wall-clock keys within\n"
        "                   --tolerance; exit 3 on regression\n"
        "  --summary-out FILE\n"
        "                   machine-readable diff summary JSON\n"
        "                   (default stdout)\n"
        "  --tolerance PCT  relative band for wall-clock keys in\n"
        "                   --diff (default 25)\n"
        "  --pretty         indent the report\n"
        "  --quiet          no per-run progress on stderr\n"
        "  --help           this text\n",
        argv0);
}

/**
 * The single user-input error path: one machine-readable "error:"
 * line on stderr and exit code 2. Environment failures while the
 * campaign executes take the sibling path in runCli's catch block
 * (same "error:" shape, exit code 1).
 */
int
usageError(const std::string &msg)
{
    std::fprintf(stderr, "error: %s\n", msg.c_str());
    return 2;
}

bool
parseUint(const char *s, std::uint64_t &out)
{
    const char *end = s + std::strlen(s);
    auto res = std::from_chars(s, end, out);
    return res.ec == std::errc() && res.ptr == end;
}

bool
parseProbability(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end && *end == '\0' && end != s && out >= 0.0 &&
           out <= 1.0;
}

/**
 * Parse a fault script: one "<site> <occurrence>" pair per line,
 * occurrences 1-based; '#' starts a comment, blank lines ignored.
 */
bool
loadFaultScript(const std::string &path, fault::FaultConfig &cfg)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "error: cannot open fault script %s\n",
                     path.c_str());
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        lineno++;
        std::istringstream ls(line);
        std::string tok;
        if (!(ls >> tok) || tok[0] == '#')
            continue;
        const auto site = fault::siteFromName(tok);
        if (!site) {
            std::fprintf(stderr,
                         "error: %s:%d: unknown fault site '%s'; "
                         "valid: ",
                         path.c_str(), lineno, tok.c_str());
            for (unsigned s = 0; s < fault::kSiteCount; s++) {
                std::fprintf(stderr, "%s%s", s ? "," : "",
                             fault::siteName(
                                 static_cast<fault::Site>(s)));
            }
            std::fprintf(stderr, "\n");
            return false;
        }
        std::uint64_t occ = 0;
        if (!(ls >> occ) || occ == 0) {
            std::fprintf(stderr,
                         "error: %s:%d: bad occurrence (1-based "
                         "integer required)\n",
                         path.c_str(), lineno);
            return false;
        }
        cfg.script.emplace_back(*site, occ);
    }
    return true;
}

} // namespace

int
runCli(int argc, char **argv, Registry &reg)
{
    RunnerOptions opts;
    opts.verbose = true;
    bool list = false;
    bool pretty = false;
    std::string out_path = "results/bench.json";
    std::string profile_path;
    std::string trace_path;
    std::string inspect_path;
    std::string heatmap_path;
    bool chaos = false;
    bool rate_set = false;
    bool analyze_mode = false;
    analyze::AnalyzeOptions an;

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n",
                             arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--list") {
            list = true;
        } else if (arg == "--filter") {
            const char *v = value();
            if (!v)
                return 2;
            opts.filter = v;
        } else if (arg == "--jobs") {
            const char *v = value();
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n)) {
                std::fprintf(stderr, "error: bad --jobs value\n");
                return 2;
            }
            opts.jobs = static_cast<unsigned>(n);
        } else if (arg == "--seed") {
            const char *v = value();
            std::uint64_t s = 0;
            if (!v || !parseUint(v, s)) {
                std::fprintf(stderr, "error: bad --seed value\n");
                return 2;
            }
            opts.masterSeed = s;
        } else if (arg == "--out") {
            const char *v = value();
            if (!v)
                return 2;
            out_path = v;
        } else if (arg == "--profile") {
            const char *v = value();
            if (!v)
                return 2;
            profile_path = v;
        } else if (arg == "--trace") {
            const char *v = value();
            if (!v)
                return 2;
            trace_path = v;
        } else if (arg == "--trace-filter") {
            const char *v = value();
            if (!v)
                return 2;
            auto mask = obs::parseCatMask(v);
            if (!mask) {
                std::fprintf(
                    stderr,
                    "bad --trace-filter '%s'; valid categories: ",
                    v);
                for (unsigned c = 0; c < obs::kCatCount; c++) {
                    std::fprintf(stderr, "%s%s", c ? "," : "",
                                 obs::catName(
                                     static_cast<obs::Cat>(c)));
                }
                std::fprintf(stderr, "\n");
                return 2;
            }
            opts.trace.mask = *mask;
        } else if (arg == "--chaos") {
            chaos = true;
        } else if (arg == "--fault-rate") {
            const char *v = value();
            double r = 0.0;
            if (!v || !parseProbability(v, r)) {
                std::fprintf(stderr,
                             "bad --fault-rate value (need a number "
                             "in [0,1])\n");
                return 2;
            }
            opts.fault.rate = r;
            rate_set = true;
            chaos = true;
        } else if (arg == "--fault-script") {
            const char *v = value();
            if (!v || !loadFaultScript(v, opts.fault))
                return 2;
            chaos = true;
        } else if (arg == "--audit-every") {
            const char *v = value();
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n)) {
                std::fprintf(stderr, "error: bad --audit-every value\n");
                return 2;
            }
            opts.fault.auditEvery = n;
        } else if (arg == "--inspect-every") {
            const char *v = value();
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n)) {
                std::fprintf(stderr, "error: bad --inspect-every value\n");
                return 2;
            }
            opts.inspect.everyTicks = n;
        } else if (arg == "--inspect-out") {
            const char *v = value();
            if (!v)
                return 2;
            inspect_path = v;
        } else if (arg == "--heatmap") {
            const char *v = value();
            if (!v)
                return 2;
            heatmap_path = v;
        } else if (arg == "--checkpoint-every") {
            const char *v = value();
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n)) {
                std::fprintf(stderr,
                             "bad --checkpoint-every value\n");
                return 2;
            }
            opts.snap.checkpointEvery = n;
        } else if (arg == "--checkpoint-out") {
            const char *v = value();
            if (!v)
                return 2;
            opts.checkpointOut = v;
        } else if (arg == "--restore") {
            const char *v = value();
            if (!v)
                return 2;
            opts.snap.restorePath = v;
        } else if (arg == "--replay-to") {
            const char *v = value();
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n) || n == 0) {
                std::fprintf(stderr, "error: bad --replay-to value\n");
                return 2;
            }
            opts.snap.replayToTick = n;
        } else if (arg == "--checkpoint-keep") {
            const char *v = value();
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n)) {
                std::fprintf(stderr,
                             "error: bad --checkpoint-keep value\n");
                return 2;
            }
            opts.snap.checkpointKeep = n;
        } else if (arg == "--restore-strict") {
            opts.snap.restoreStrict = true;
        } else if (arg == "--retries") {
            const char *v = value();
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n)) {
                std::fprintf(stderr, "error: bad --retries value\n");
                return 2;
            }
            opts.supervise.retries = static_cast<unsigned>(n);
        } else if (arg == "--point-timeout") {
            const char *v = value();
            char *end = nullptr;
            const double sec = v ? std::strtod(v, &end) : 0.0;
            if (!v || !end || *end != '\0' || end == v || sec <= 0.0) {
                std::fprintf(
                    stderr,
                    "error: bad --point-timeout value (need seconds "
                    "> 0)\n");
                return 2;
            }
            opts.supervise.pointTimeoutSec = sec;
        } else if (arg == "--journal") {
            const char *v = value();
            if (!v)
                return 2;
            opts.journalPath = v;
        } else if (arg == "--resume-campaign") {
            opts.resumeCampaign = true;
        } else if (arg == "--progress") {
            opts.telemetry.progress = true;
        } else if (arg == "--telemetry-out") {
            const char *v = value();
            if (!v)
                return 2;
            opts.telemetry.jsonlPath = v;
        } else if (arg == "--telemetry-port") {
            const char *v = value();
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n) || n > 65535) {
                std::fprintf(stderr,
                             "error: bad --telemetry-port value "
                             "(need a port in [0,65535])\n");
                return 2;
            }
            opts.telemetry.httpPort = static_cast<int>(n);
        } else if (arg == "--telemetry-interval") {
            const char *v = value();
            char *end = nullptr;
            const double sec = v ? std::strtod(v, &end) : 0.0;
            if (!v || !end || *end != '\0' || end == v ||
                sec <= 0.0) {
                std::fprintf(stderr,
                             "error: bad --telemetry-interval value "
                             "(need seconds > 0)\n");
                return 2;
            }
            opts.telemetry.intervalSec = sec;
        } else if (arg == "--analyze") {
            analyze_mode = true;
        } else if (arg == "--diff") {
            // Consumes TWO values: baseline, then candidate.
            const char *a = value();
            if (!a)
                return 2;
            const char *b = value();
            if (!b)
                return 2;
            an.diffPaths = {a, b};
            analyze_mode = true;
        } else if (arg == "--summary-out") {
            const char *v = value();
            if (!v)
                return 2;
            an.summaryOut = v;
        } else if (arg == "--tolerance") {
            const char *v = value();
            char *end = nullptr;
            const double pct = v ? std::strtod(v, &end) : 0.0;
            if (!v || !end || *end != '\0' || end == v ||
                pct < 0.0) {
                std::fprintf(stderr,
                             "error: bad --tolerance value (need a "
                             "percentage >= 0)\n");
                return 2;
            }
            an.tolerancePct = pct;
        } else if (arg == "--pretty") {
            pretty = true;
        } else if (arg == "--quiet") {
            opts.verbose = false;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            printUsage(argv[0]);
            return 2;
        }
    }

    if (analyze_mode) {
        if (an.diffPaths.empty())
            return usageError("--analyze needs --diff");
        setLogQuiet(true);
        return analyze::runAnalyze(an);
    }

    if (opts.snap.checkpointEvery > 0 && opts.checkpointOut.empty())
        return usageError(
            "--checkpoint-every requires --checkpoint-out");
    if (opts.resumeCampaign && opts.journalPath.empty())
        return usageError("--resume-campaign requires --journal");
    // Fail fast on a --restore typo: the recovery ladder handles a
    // *damaged* file, but a path that names nothing runs the whole
    // grid just to fail at the first tick of every point.
    if (!opts.snap.restorePath.empty() &&
        !std::filesystem::exists(opts.snap.restorePath))
        return usageError("--restore file '" + opts.snap.restorePath +
                          "' does not exist");

    if (chaos) {
        // Chaos mode: inject (default rate 0.01 unless the user was
        // specific), audit after every injected fault, and let the
        // deterministic OOM killer engage instead of self-kills.
        if (!rate_set && opts.fault.script.empty())
            opts.fault.rate = 0.01;
        opts.fault.auditOnFault = true;
        opts.fault.oomKiller = true;
    }

    if (list) {
        std::uint64_t total = 0;
        for (const auto &exp : reg.experiments()) {
            std::uint64_t matching = 0;
            for (const RunPoint &pt : exp->expand()) {
                if (Runner::matches(opts.filter, pt))
                    matching++;
            }
            total += matching;
            std::printf("%-28s %4llu/%llu points  %s\n",
                        exp->name().c_str(),
                        static_cast<unsigned long long>(matching),
                        static_cast<unsigned long long>(
                            exp->gridSize()),
                        exp->description().c_str());
        }
        std::printf("total: %llu grid points%s\n",
                    static_cast<unsigned long long>(total),
                    opts.filter.empty()
                        ? ""
                        : (" (filter: " + opts.filter + ")").c_str());
        return 0;
    }

    setLogQuiet(true);
    // --progress owns the stderr line; per-run progress lines would
    // shred it every completion.
    if (opts.telemetry.progress)
        opts.verbose = false;
    opts.trace.enabled = !trace_path.empty();
    // Snapshot artifacts need a sampling period; default to every
    // 100 ticks when only an output path was given.
    if ((!inspect_path.empty() || !heatmap_path.empty()) &&
        opts.inspect.everyTicks == 0) {
        opts.inspect.everyTicks = 100;
    }
    try {
        Runner runner(opts);
        const Report report = runner.run(reg);
        if (report.runs.empty()) {
            std::fprintf(stderr,
                         "error: no grid points matched filter "
                         "'%s'\n",
                         opts.filter.c_str());
            return 1;
        }

        const Json json = report.toJson();
        base::atomicWriteFile(out_path, pretty ? json.dumpPretty()
                                               : json.dump());
        if (!profile_path.empty())
            base::atomicWriteFile(profile_path,
                                  report.profileJson().dumpPretty());
        if (!trace_path.empty()) {
            std::ostringstream os;
            report.writeTrace(os);
            base::atomicWriteFile(trace_path, os.str());
        }
        if (!inspect_path.empty())
            base::atomicWriteFile(
                inspect_path, pretty
                                  ? report.inspectJson().dumpPretty()
                                  : report.inspectJson().dump());
        if (!heatmap_path.empty()) {
            std::string art;
            for (const RunRecord &r : report.runs) {
                if (r.output.snapshots.empty())
                    continue;
                const obs::Snapshot &last =
                    r.output.snapshots.back();
                art += "== " + r.point.experiment + "/" +
                       r.point.label() + " tick " +
                       std::to_string(last.tick) + " ==\n";
                art += obs::formatMemInfo(last);
                art += obs::formatBuddyInfo(last);
                for (const obs::ProcInfo &p : last.procs) {
                    if (p.finished && p.mappedPages == 0)
                        continue;
                    art += obs::renderHeatmap(p);
                }
                art += "\n";
            }
            base::atomicWriteFile(heatmap_path, art);
        }

        std::printf("%zu runs in %.1f s (wall), report: %s\n",
                    report.runs.size(), report.totalWallMs / 1e3,
                    out_path.c_str());
        if (report.degraded()) {
            std::size_t bad = 0;
            for (const PointStatus &st : report.statuses)
                bad += st.ok() ? 0 : 1;
            std::fprintf(stderr,
                         "error: %zu grid point%s did not complete "
                         "(see \"status\" in %s)\n",
                         bad, bad == 1 ? "" : "s", out_path.c_str());
            return 1;
        }
        return 0;
    } catch (const RecoverableError &e) {
        // The one environment-failure exit: journal mismatch, an
        // artifact path that cannot be written, an unusable
        // --restore file under --restore-strict.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

} // namespace hawksim::harness
