#include "harness/supervisor.hh"

#include <algorithm>
#include <exception>

#include "base/error.hh"
#include "base/logging.hh"

namespace hawksim::harness {

const char *
stateName(PointStatus::State s)
{
    switch (s) {
    case PointStatus::State::kOk:
        return "ok";
    case PointStatus::State::kFailed:
        return "failed";
    case PointStatus::State::kTimedOut:
        return "timed-out";
    }
    return "unknown";
}

std::uint64_t
backoffDelayMs(const SupervisorOptions &opts, unsigned attempt)
{
    if (opts.backoffBaseMs == 0)
        return 0;
    // base << (attempt-1), saturating at the cap. attempt is small
    // (bounded by --retries) but guard the shift anyway.
    const unsigned shift = std::min(attempt > 0 ? attempt - 1 : 0u, 20u);
    const std::uint64_t d = opts.backoffBaseMs << shift;
    return std::min(d, opts.backoffCapMs);
}

// -------------------------------------------------------------- Watchdog

Watchdog::Watchdog(double timeoutSec) : timeout_sec_(timeoutSec)
{
    if (timeout_sec_ <= 0.0)
        return;
    thread_ = std::thread([this] { scan(); });
}

Watchdog::~Watchdog()
{
    if (!thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

void
Watchdog::watch(unsigned slot, RunControl *ctl)
{
    if (timeout_sec_ <= 0.0)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    if (slots_.size() <= slot)
        slots_.resize(slot + 1);
    slots_[slot] = {ctl, ctl->heartbeat.load(std::memory_order_relaxed),
                    std::chrono::steady_clock::now()};
}

void
Watchdog::release(unsigned slot)
{
    if (timeout_sec_ <= 0.0)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    if (slot < slots_.size())
        slots_[slot].ctl = nullptr;
}

void
Watchdog::scan()
{
    using clock = std::chrono::steady_clock;
    const auto timeout = std::chrono::duration_cast<clock::duration>(
        std::chrono::duration<double>(timeout_sec_));
    // Poll at 1/10 of the timeout, clamped to [10ms, 250ms]: fine
    // enough to catch a stall promptly, coarse enough to be free.
    const auto period = std::clamp<clock::duration>(
        timeout / 10, std::chrono::milliseconds(10),
        std::chrono::milliseconds(250));

    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
        cv_.wait_for(lk, period);
        if (stop_)
            break;
        const auto now = clock::now();
        for (Slot &s : slots_) {
            if (s.ctl == nullptr)
                continue;
            const std::uint64_t beat =
                s.ctl->heartbeat.load(std::memory_order_relaxed);
            if (beat != s.lastBeat) {
                s.lastBeat = beat;
                s.lastProgress = now;
                continue;
            }
            if (now - s.lastProgress >= timeout &&
                !s.ctl->cancelled()) {
                s.ctl->timedOut.store(true,
                                      std::memory_order_relaxed);
                s.ctl->cancel.store(true, std::memory_order_relaxed);
            }
        }
    }
}

// ---------------------------------------------------------- supervision

PointStatus
supervisePoint(const SupervisorOptions &opts, RunControl &ctl,
               Watchdog *wd, unsigned slot,
               const std::function<void()> &attempt)
{
    PointStatus status;
    for (unsigned n = 1;; n++) {
        ctl.reset();
        if (wd != nullptr)
            wd->watch(slot, &ctl);
        try {
            attempt();
            if (wd != nullptr)
                wd->release(slot);
            status.state = PointStatus::State::kOk;
            status.attempts = n;
            return status;
        } catch (const RecoverableError &e) {
            if (wd != nullptr)
                wd->release(slot);
            status.attempts = n;
            status.error = e.what();
            const char *kind = RecoverableError::kindName(e.kind());
            const bool timedOut =
                e.kind() == RecoverableError::Kind::kTimeout ||
                ctl.timedOut.load(std::memory_order_relaxed);
            if (timedOut) {
                // Final: a deterministic sim that hung once will
                // hang again; retrying only stalls the campaign.
                status.state = PointStatus::State::kTimedOut;
                status.events.push_back(
                    {AttemptEvent::Kind::kTimedOut, n, kind});
                return status;
            }
            if (n > opts.retries) {
                status.state = PointStatus::State::kFailed;
                status.events.push_back(
                    {AttemptEvent::Kind::kFailed, n, kind});
                return status;
            }
            status.events.push_back(
                {AttemptEvent::Kind::kRetry, n, kind});
            const std::uint64_t delay = backoffDelayMs(opts, n);
            HS_WARN("supervisor: attempt ", n, " failed (", e.what(),
                    "); retrying in ", delay, "ms");
            if (delay > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay));
        } catch (const std::exception &e) {
            // Untyped exceptions (bad_alloc, stoull in a workload
            // spec) are captured so the campaign survives, but never
            // retried: they do not come from the recoverable-
            // environment paths, so a retry would fail identically.
            if (wd != nullptr)
                wd->release(slot);
            status.attempts = n;
            status.error = e.what();
            status.state = PointStatus::State::kFailed;
            status.events.push_back(
                {AttemptEvent::Kind::kFailed, n, "unhandled"});
            return status;
        }
    }
}

} // namespace hawksim::harness
