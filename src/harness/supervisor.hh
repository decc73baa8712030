/**
 * @file
 * Per-grid-point failure isolation for the harness.
 *
 * The supervisor wraps one grid point's execution in typed error
 * capture: recoverable environment failures (RecoverableError —
 * disk faults, corrupt snapshots, timeouts) are caught, retried
 * with deterministic capped exponential backoff, and recorded in a
 * per-point status ledger; HS_ASSERT stays fatal because an
 * invariant violation means the simulator itself is broken.
 *
 * Hangs are detected cooperatively: a single watchdog thread scans
 * the RunControl slots of all in-flight points. A point whose
 * heartbeat has not moved for --point-timeout seconds gets
 * `cancel` set; System::tick() notices at the next tick boundary
 * and throws RecoverableError(kTimeout). Timed-out points are
 * final — a deterministic simulation that hung once will hang
 * again, so retrying would only stall the campaign.
 *
 * Retries re-run the *same* attempt body: the runner re-derives the
 * same seed and rebuilds the System from scratch, so a retried
 * success is byte-identical to a first-try success. The backoff
 * delay is a pure function of (options, attempt) — no wall-clock
 * randomness — so retry schedules are reproducible too.
 */

#ifndef HAWKSIM_HARNESS_SUPERVISOR_HH
#define HAWKSIM_HARNESS_SUPERVISOR_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/control.hh"

namespace hawksim::harness {

struct SupervisorOptions
{
    /** Re-run a failed point up to N more times (0 = no retries). */
    unsigned retries = 0;
    /** Cancel a point whose heartbeat stalls this long (0 = off). */
    double pointTimeoutSec = 0.0;
    /** First retry waits this long; doubles per attempt. */
    std::uint64_t backoffBaseMs = 100;
    /** Backoff ceiling. */
    std::uint64_t backoffCapMs = 2000;
};

/**
 * One supervision incident: attempt @p attempt ended abnormally.
 * For a point that ended non-ok, the ledger of these becomes the
 * Perfetto export's supervisor instants, beside the degraded
 * report's "status" block.
 */
struct AttemptEvent
{
    enum class Kind : std::uint8_t
    {
        kRetry,    //!< attempt failed; a retry will run
        kTimedOut, //!< the watchdog cancelled the attempt (final)
        kFailed,   //!< attempt failed with the budget exhausted
    };

    Kind kind = Kind::kRetry;
    /** 1-based attempt number the incident belongs to. */
    unsigned attempt = 1;
    /** RecoverableError::kindName of the cause ("io", ...); the
     *  stable token, not the free-text message, so downstream
     *  surfaces stay deterministic under scripted injection. */
    const char *errorKind = "unknown";
};

/** Final disposition of one grid point. */
struct PointStatus
{
    enum class State : std::uint8_t
    {
        kOk,
        kFailed,
        kTimedOut,
    };

    State state = State::kOk;
    /** Attempts consumed (1 = first try; 0 = replayed from journal). */
    unsigned attempts = 1;
    /** Point was skipped because the campaign journal had it. */
    bool fromJournal = false;
    /** what() of the last RecoverableError (empty when ok). */
    std::string error;
    /** Abnormal attempt endings, in order (empty when clean). */
    std::vector<AttemptEvent> events;

    bool ok() const { return state == State::kOk; }
    /** Nothing noteworthy happened (first-try success, no replay). */
    bool clean() const { return ok() && attempts <= 1 && !fromJournal; }
    unsigned retries() const { return attempts > 0 ? attempts - 1 : 0; }
};

const char *stateName(PointStatus::State s);

/** Deterministic capped exponential backoff before retry @p attempt
 *  (1-based: the delay taken after attempt n fails). */
std::uint64_t backoffDelayMs(const SupervisorOptions &opts,
                             unsigned attempt);

/**
 * One watchdog thread scanning the heartbeats of all in-flight
 * points. Construct with the timeout; watch()/release() bracket
 * each attempt. With timeoutSec <= 0 the thread never starts and
 * every call is a no-op.
 */
class Watchdog
{
  public:
    explicit Watchdog(double timeoutSec);
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Begin watching @p ctl under slot @p slot (one per worker). */
    void watch(unsigned slot, RunControl *ctl);
    /** Stop watching @p slot (attempt finished, however it ended). */
    void release(unsigned slot);

  private:
    void scan();

    struct Slot
    {
        RunControl *ctl = nullptr;
        std::uint64_t lastBeat = 0;
        std::chrono::steady_clock::time_point lastProgress;
    };

    double timeout_sec_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Slot> slots_;
    bool stop_ = false;
    std::thread thread_;
};

/**
 * Run one grid point to a final status. @p attempt performs a
 * complete fresh attempt (build System, run, capture output) and
 * may throw RecoverableError; anything else propagates. @p wd may
 * be null (no timeout configured).
 */
PointStatus supervisePoint(const SupervisorOptions &opts,
                           RunControl &ctl, Watchdog *wd,
                           unsigned slot,
                           const std::function<void()> &attempt);

} // namespace hawksim::harness

#endif // HAWKSIM_HARNESS_SUPERVISOR_HH
