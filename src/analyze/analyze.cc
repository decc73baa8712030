#include "analyze/analyze.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "base/error.hh"
#include "base/io.hh"

namespace hawksim::analyze {

using harness::Json;

namespace {

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

/** Serialized bytes of a leaf value (scalars only reach here). */
std::string
leafBytes(const Json &j)
{
    return j.dump();
}

struct DiffWalker
{
    double tolerancePct;
    DiffResult out;

    void
    addEntry(std::vector<DiffEntry> &dst, const std::string &path,
             const char *kind, std::string a, std::string b,
             double relPct = 0.0)
    {
        dst.push_back(
            {path, kind, std::move(a), std::move(b), relPct});
    }

    /** Leaf name of a dotted path ("runs[3].wall_ms" -> "wall_ms"). */
    static std::string_view
    leafOf(std::string_view path)
    {
        const auto dot = path.rfind('.');
        std::string_view leaf =
            dot == std::string_view::npos ? path
                                          : path.substr(dot + 1);
        const auto bracket = leaf.find('[');
        if (bracket != std::string_view::npos)
            leaf = leaf.substr(0, bracket);
        return leaf;
    }

    void
    walk(const std::string &path, const Json &a, const Json &b)
    {
        if (a.type() != b.type()) {
            addEntry(out.regressions, path, "type", leafBytes(a),
                     leafBytes(b));
            return;
        }
        if (a.isObject()) {
            // a's members in order, then anything only b has. The
            // canonical writers emit insertion-ordered objects, so a
            // reordering shows up as missing/missing pairs — which is
            // exactly right: the bytes differ.
            for (const auto &[k, va] : a.members()) {
                if (!b.contains(k)) {
                    addEntry(out.regressions, path + "." + k,
                             "missing-in-b", leafBytes(va), "");
                    continue;
                }
                walk(path + "." + k, va, b[k]);
            }
            for (const auto &[k, vb] : b.members()) {
                if (!a.contains(k)) {
                    addEntry(out.regressions, path + "." + k,
                             "missing-in-a", "", leafBytes(vb));
                }
            }
            return;
        }
        if (a.isArray()) {
            if (a.size() != b.size()) {
                addEntry(out.regressions, path, "length",
                         std::to_string(a.size()),
                         std::to_string(b.size()));
            }
            const std::size_t n = std::min(a.size(), b.size());
            for (std::size_t i = 0; i < n; i++) {
                walk(path + "[" + std::to_string(i) + "]", a.at(i),
                     b.at(i));
            }
            return;
        }
        // Leaf.
        out.fieldsCompared++;
        const std::string ba = leafBytes(a);
        const std::string bb = leafBytes(b);
        if (ba == bb)
            return;
        if (a.type() == Json::Type::kNumber &&
            isToleranceKey(leafOf(path))) {
            const double x = a.asDouble();
            const double y = b.asDouble();
            const double mag =
                std::max({std::fabs(x), std::fabs(y), 1e-12});
            const double relPct = std::fabs(x - y) / mag * 100.0;
            addEntry(relPct <= tolerancePct ? out.tolerated
                                            : out.regressions,
                     path, relPct <= tolerancePct ? "within-band"
                                                  : "out-of-band",
                     ba, bb, relPct);
            return;
        }
        addEntry(out.regressions, path, "changed", ba, bb);
    }
};

Json
entryJson(const DiffEntry &e)
{
    Json j = Json::object();
    j.set("path", Json(e.path));
    j.set("kind", Json(e.kind));
    j.set("a", Json(e.a));
    j.set("b", Json(e.b));
    if (e.relPct != 0.0)
        j.set("rel_pct", Json(e.relPct));
    return j;
}

void
writeOrPrint(const std::string &path, const std::string &text)
{
    if (path.empty()) {
        std::fputs(text.c_str(), stdout);
        return;
    }
    base::atomicWriteFile(path, text);
}

} // namespace

bool
isToleranceKey(std::string_view key)
{
    // Wall-clock dependent leaves: host timing and anything derived
    // from it. Simulated-time keys (sim_time_ns, tick counts, cost
    // counters) are deterministic and deliberately NOT listed.
    if (key == "wall_ms" || key == "total_wall_ms" ||
        key == "elapsed_ms" || key == "eta_ms")
        return true;
    if (endsWith(key, "_ns_min") || endsWith(key, "_ns_median"))
        return true;
    if (key.find("ns_per_access") != std::string_view::npos)
        return true;
    if (key.find("speedup") != std::string_view::npos)
        return true;
    if (key.find("per_sec") != std::string_view::npos)
        return true;
    if (key.find("wall_us") != std::string_view::npos)
        return true;
    return false;
}

DiffResult
diffJson(const Json &a, const Json &b, double tolerancePct)
{
    DiffWalker w{tolerancePct, {}};
    w.walk("$", a, b);
    return std::move(w.out);
}

Json
diffSummaryJson(const DiffResult &r, const std::string &pathA,
                const std::string &pathB, double tolerancePct)
{
    Json out = Json::object();
    out.set("schema", Json(kAnalyzeSchema));
    out.set("baseline", Json(pathA));
    out.set("candidate", Json(pathB));
    out.set("tolerance_pct", Json(tolerancePct));
    out.set("fields_compared", Json(r.fieldsCompared));
    out.set("regressions",
            Json(static_cast<std::int64_t>(r.regressions.size())));
    out.set("tolerated",
            Json(static_cast<std::int64_t>(r.tolerated.size())));
    out.set("clean", Json(r.clean()));
    Json regs = Json::array();
    for (const DiffEntry &e : r.regressions)
        regs.push(entryJson(e));
    out.set("regression_entries", std::move(regs));
    Json tol = Json::array();
    for (const DiffEntry &e : r.tolerated)
        tol.push(entryJson(e));
    out.set("tolerated_entries", std::move(tol));
    return out;
}

int
runAnalyze(const AnalyzeOptions &opts)
{
    try {
        int rc = 0;

        if (!opts.diffPaths.empty()) {
            std::string errA, errB;
            Json a = Json::parse(base::readFile(opts.diffPaths[0]),
                                 &errA);
            Json b = Json::parse(base::readFile(opts.diffPaths[1]),
                                 &errB);
            if (!errA.empty() || !errB.empty()) {
                std::fprintf(
                    stderr, "error: %s: %s\n",
                    (!errA.empty() ? opts.diffPaths[0]
                                   : opts.diffPaths[1])
                        .c_str(),
                    (!errA.empty() ? errA : errB).c_str());
                return 1;
            }
            const DiffResult r =
                diffJson(a, b, opts.tolerancePct);
            const Json summary = diffSummaryJson(
                r, opts.diffPaths[0], opts.diffPaths[1],
                opts.tolerancePct);
            writeOrPrint(opts.summaryOut,
                         summary.dumpPretty() + "\n");
            if (!opts.summaryOut.empty()) {
                // Keep a one-line human verdict on stdout even when
                // the JSON went to a file.
                std::printf(
                    "analyze: %zu regression%s, %zu within band "
                    "(±%g%%), %llu fields\n",
                    r.regressions.size(),
                    r.regressions.size() == 1 ? "" : "s",
                    r.tolerated.size(), opts.tolerancePct,
                    static_cast<unsigned long long>(
                        r.fieldsCompared));
            }
            if (!r.clean())
                rc = kExitRegression;
        }

        return rc;
    } catch (const RecoverableError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

} // namespace hawksim::analyze
