/**
 * @file
 * Report analytics: diff two canonical artifacts with a regression
 * gate.
 *
 * The diff engine walks two JSON documents member-by-member. Every
 * field is compared *bit-exact* on its serialized bytes — that is the
 * whole point of the harness's canonical-JSON contract — except the
 * two wall-clock leaves `--profile` writes, `wall_ms` and
 * `total_wall_ms`, which get a relative tolerance band instead.
 * hawksim-report/v1 files contain no wall-clock keys at all, so
 * report diffs are fully exact.
 *
 * runAnalyze is the `--diff` CLI mode: exit 0 when clean, 3 on a
 * regression (CI gates on it), 2 on usage errors, 1 on environment
 * failures — mirroring the main campaign exit codes, with 3 kept
 * distinct so a gate can tell "the diff found something" from "the
 * diff could not run".
 */

#ifndef HAWKSIM_ANALYZE_ANALYZE_HH
#define HAWKSIM_ANALYZE_ANALYZE_HH

#include <string>
#include <string_view>
#include <vector>

#include "harness/json.hh"

namespace hawksim::analyze {

/** Schema tag of the machine-readable diff summary. */
inline constexpr const char *kAnalyzeSchema = "hawksim-analyze/v1";

/** Exit code runAnalyze returns when the diff found a regression. */
inline constexpr int kExitRegression = 3;

struct AnalyzeOptions
{
    /** The two artifacts to diff (--diff A B). */
    std::string baseline;
    std::string candidate;
    /** Machine-readable diff summary destination (--summary-out;
     *  "" = stdout). */
    std::string summaryOut;
    /** Relative band, in percent, for wall-clock keys (--tolerance). */
    double tolerancePct = 25.0;
};

/** One divergence between the two documents. */
struct DiffEntry
{
    /** Dotted path, e.g. "runs[3].metrics.events[0].tick". */
    std::string path;
    /** "changed", "out-of-band", "type", "missing-in-a",
     *  "missing-in-b" or "length". */
    std::string kind;
    /** Serialized values ("" for the missing side). */
    std::string a;
    std::string b;
    /** Relative delta in percent (tolerance-banded keys only). */
    double relPct = 0.0;
};

struct DiffResult
{
    /** Gate-tripping divergences: exact-key mismatches, structural
     *  differences, and banded keys outside the band. */
    std::vector<DiffEntry> regressions;
    /** Banded keys that moved but stayed inside the band. */
    std::vector<DiffEntry> tolerated;
    /** Fields compared (leaf values on both sides). */
    std::uint64_t fieldsCompared = 0;

    bool clean() const { return regressions.empty(); }
};

/**
 * Is the *leaf* key @p key wall-clock dependent, i.e. compared with
 * a tolerance band instead of bit-exact bytes? Only the keys an
 * artifact actually carries are: `wall_ms` and `total_wall_ms`.
 */
bool isToleranceKey(std::string_view key);

/** Diff two parsed documents. @p tolerancePct bands isToleranceKey
 *  leaves; everything else must match byte-for-byte. */
DiffResult diffJson(const harness::Json &a, const harness::Json &b,
                    double tolerancePct);

/** Machine-readable summary (kAnalyzeSchema) of one diff. */
harness::Json diffSummaryJson(const DiffResult &r,
                              const std::string &pathA,
                              const std::string &pathB,
                              double tolerancePct);

/** The --diff CLI mode. */
int runAnalyze(const AnalyzeOptions &opts);

} // namespace hawksim::analyze

#endif // HAWKSIM_ANALYZE_ANALYZE_HH
