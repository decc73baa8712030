#include "harness/cli.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

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
        "       %s --diff A B [--summary-out FILE] [--tolerance PCT]\n"
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
        "                   reclaim,tlb,proc,chaos; default: all)\n"
        "  --chaos          enable fault injection + invariant audits\n"
        "                   + the deterministic OOM killer (per-probe\n"
        "                   rate 0.01 unless --fault-script is given);\n"
        "                   the report is still identical for any\n"
        "                   --jobs\n"
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
        "  --diff A B       diff two canonical artifacts instead of\n"
        "                   running the grid: pinned fields\n"
        "                   byte-exact, wall-clock keys within\n"
        "                   --tolerance; exit 3 on regression\n"
        "  --summary-out FILE\n"
        "                   machine-readable diff summary JSON\n"
        "                   (default stdout)\n"
        "  --tolerance PCT  relative band for wall-clock keys in\n"
        "                   --diff (default 25)\n"
        "  --quiet          no per-run progress lines on stderr\n"
        "                   (each line ends with the campaign's ETA\n"
        "                   once a point has executed)\n"
        "  --help           this text\n",
        argv0, argv0);
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

/** A rejected argument; runCli reports it through usageError. */
struct ArgError
{
    std::string msg;
};

/** Decimal digits only, the whole of @p s, no sign. */
bool
parseUint(std::string_view s, std::uint64_t &out)
{
    const char *end = s.data() + s.size();
    const auto res = std::from_chars(s.data(), end, out);
    return res.ec == std::errc() && res.ptr == end;
}

/** Walks argv; the value readers throw ArgError on bad input. */
class ArgReader
{
  public:
    ArgReader(int argc, char **argv) : argc_(argc), argv_(argv) {}

    /** Step to the next flag; false past the last one. */
    bool
    next()
    {
        if (++i_ >= argc_)
            return false;
        flag_ = argv_[i_];
        return true;
    }

    const std::string &flag() const { return flag_; }

    const char *
    value()
    {
        if (i_ + 1 >= argc_)
            throw ArgError{flag_ + " needs a value"};
        return argv_[++i_];
    }

    std::uint64_t
    uintValue()
    {
        std::uint64_t n = 0;
        if (!parseUint(value(), n))
            throw ArgError{"bad " + flag_ + " value"};
        return n;
    }

    /** A number that passes @p ok; @p need says which ones do. */
    double
    doubleValue(const char *need, bool (*ok)(double))
    {
        const char *v = value();
        char *end = nullptr;
        const double x = std::strtod(v, &end);
        if (end == v || *end != '\0' || !ok(x))
            throw ArgError{"bad " + flag_ + " value (need " + need +
                           ")"};
        return x;
    }

  private:
    int argc_;
    char **argv_;
    int i_ = 0;
    std::string flag_;
};

/**
 * Parse a fault script: one "<site> <occurrence>" pair per line,
 * occurrences 1-based; '#' starts a comment, blank lines ignored.
 */
void
loadFaultScript(const std::string &path, fault::FaultConfig &cfg)
{
    std::ifstream is(path);
    if (!is)
        throw ArgError{"cannot open fault script " + path};
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        lineno++;
        std::istringstream ls(line);
        std::string tok;
        if (!(ls >> tok) || tok[0] == '#')
            continue;
        const std::string where = path + ":" + std::to_string(lineno);
        const auto site = fault::siteFromName(tok);
        if (!site) {
            std::string msg =
                where + ": unknown fault site '" + tok + "'; valid: ";
            for (unsigned s = 0; s < fault::kSiteCount; s++) {
                if (s)
                    msg += ",";
                msg += fault::siteName(static_cast<fault::Site>(s));
            }
            throw ArgError{msg};
        }
        std::string occTok;
        std::uint64_t occ = 0;
        if (!(ls >> occTok) || !parseUint(occTok, occ) || occ == 0)
            throw ArgError{where +
                           ": bad occurrence (1-based integer required)"};
        cfg.script.emplace_back(*site, occ);
    }
}

} // namespace

int
runCli(int argc, char **argv, Registry &reg)
{
    RunnerOptions opts;
    opts.verbose = true;
    bool list = false;
    std::string out_path = "results/bench.json";
    std::string profile_path;
    std::string trace_path;
    std::string inspect_path;
    std::string heatmap_path;
    bool chaos = false;
    bool diff = false;
    analyze::AnalyzeOptions an;

    try {
        for (ArgReader args(argc, argv); args.next();) {
            const std::string &arg = args.flag();
            if (arg == "--list") {
                list = true;
            } else if (arg == "--filter") {
                opts.filter = args.value();
            } else if (arg == "--jobs") {
                opts.jobs = static_cast<unsigned>(args.uintValue());
            } else if (arg == "--seed") {
                opts.masterSeed = args.uintValue();
            } else if (arg == "--out") {
                out_path = args.value();
            } else if (arg == "--profile") {
                profile_path = args.value();
            } else if (arg == "--trace") {
                trace_path = args.value();
            } else if (arg == "--trace-filter") {
                const std::string v = args.value();
                const auto mask = obs::parseCatMask(v);
                if (!mask) {
                    std::string msg = "bad --trace-filter '" + v +
                                      "'; valid categories: ";
                    for (unsigned c = 0; c < obs::kCatCount; c++) {
                        if (c)
                            msg += ",";
                        msg += obs::catName(static_cast<obs::Cat>(c));
                    }
                    throw ArgError{msg};
                }
                opts.trace.mask = *mask;
            } else if (arg == "--chaos") {
                chaos = true;
            } else if (arg == "--fault-script") {
                loadFaultScript(args.value(), opts.fault);
                chaos = true;
            } else if (arg == "--audit-every") {
                opts.fault.auditEvery = args.uintValue();
            } else if (arg == "--inspect-every") {
                opts.inspect.everyTicks = args.uintValue();
            } else if (arg == "--inspect-out") {
                inspect_path = args.value();
            } else if (arg == "--heatmap") {
                heatmap_path = args.value();
            } else if (arg == "--checkpoint-every") {
                opts.snap.checkpointEvery = args.uintValue();
            } else if (arg == "--checkpoint-out") {
                opts.checkpointOut = args.value();
            } else if (arg == "--restore") {
                opts.snap.restorePath = args.value();
            } else if (arg == "--replay-to") {
                opts.snap.replayToTick = args.uintValue();
                if (opts.snap.replayToTick == 0)
                    throw ArgError{"bad --replay-to value (need a "
                                   "tick > 0)"};
            } else if (arg == "--checkpoint-keep") {
                opts.snap.checkpointKeep = args.uintValue();
            } else if (arg == "--restore-strict") {
                opts.snap.restoreStrict = true;
            } else if (arg == "--retries") {
                opts.supervise.retries =
                    static_cast<unsigned>(args.uintValue());
            } else if (arg == "--point-timeout") {
                opts.supervise.pointTimeoutSec = args.doubleValue(
                    "seconds > 0", [](double x) { return x > 0.0; });
            } else if (arg == "--journal") {
                opts.journalPath = args.value();
            } else if (arg == "--resume-campaign") {
                opts.resumeCampaign = true;
            } else if (arg == "--diff") {
                // Consumes TWO values: baseline, then candidate.
                an.baseline = args.value();
                an.candidate = args.value();
                diff = true;
            } else if (arg == "--summary-out") {
                an.summaryOut = args.value();
            } else if (arg == "--tolerance") {
                an.tolerancePct = args.doubleValue(
                    "a percentage >= 0",
                    [](double x) { return x >= 0.0; });
            } else if (arg == "--quiet") {
                opts.verbose = false;
            } else if (arg == "--help" || arg == "-h") {
                printUsage(argv[0]);
                return 0;
            } else {
                usageError("unknown option " + arg);
                printUsage(argv[0]);
                return 2;
            }
        }
    } catch (const ArgError &e) {
        return usageError(e.msg);
    }

    if (diff) {
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
        // Chaos mode: inject (rate 0.01 unless a script says exactly
        // where), audit after every injected fault, and let the
        // deterministic OOM killer engage instead of self-kills.
        if (opts.fault.script.empty())
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

        base::atomicWriteFile(out_path, report.toJson().dump());
        if (!profile_path.empty())
            base::atomicWriteFile(profile_path,
                                  report.profileJson().dumpPretty());
        if (!trace_path.empty()) {
            std::ostringstream os;
            report.writeTrace(os);
            base::atomicWriteFile(trace_path, os.str());
        }
        if (!inspect_path.empty())
            base::atomicWriteFile(inspect_path,
                                  report.inspectJson().dump());
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
