/**
 * @file
 * Command-line front end of the experiment harness.
 *
 * `hawksim_bench` usage:
 *
 *   hawksim_bench [--list] [--filter SUBSTR] [--jobs N] [--seed S]
 *                 [--out FILE] [--profile FILE] [--trace FILE]
 *                 [--trace-filter CATS] [--pretty] [--quiet]
 *
 * The canonical JSON report (deterministic for a given seed/filter,
 * independent of --jobs) is written to --out
 * (default results/bench.json); wall-clock profiling, which *does*
 * vary run to run, goes to --profile when requested. --trace writes
 * a Chrome trace_event / Perfetto JSON of every run's simulated
 * events (open it in ui.perfetto.dev); like the report, it is
 * byte-identical for any --jobs value. Parent directories of all
 * output paths are created as needed.
 */

#ifndef HAWKSIM_HARNESS_CLI_HH
#define HAWKSIM_HARNESS_CLI_HH

#include "harness/experiment.hh"

namespace hawksim::harness {

/** Run the CLI against @p reg; returns the process exit code. */
int runCli(int argc, char **argv, Registry &reg);

} // namespace hawksim::harness

#endif // HAWKSIM_HARNESS_CLI_HH
