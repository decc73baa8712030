/**
 * @file
 * Supervisor tests: typed error capture, deterministic backoff,
 * retry accounting, the timed-out-is-final rule, and the cooperative
 * heartbeat watchdog.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "base/control.hh"
#include "base/error.hh"
#include "harness/supervisor.hh"

namespace hawksim::harness {
namespace {

SupervisorOptions
fastOpts(unsigned retries)
{
    SupervisorOptions opts;
    opts.retries = retries;
    opts.backoffBaseMs = 0; // tests never sleep
    return opts;
}

TEST(Backoff, DeterministicCappedDoubling)
{
    SupervisorOptions opts;
    opts.backoffBaseMs = 100;
    opts.backoffCapMs = 2000;
    EXPECT_EQ(backoffDelayMs(opts, 1), 100u);
    EXPECT_EQ(backoffDelayMs(opts, 2), 200u);
    EXPECT_EQ(backoffDelayMs(opts, 3), 400u);
    EXPECT_EQ(backoffDelayMs(opts, 5), 1600u);
    EXPECT_EQ(backoffDelayMs(opts, 6), 2000u);  // capped
    EXPECT_EQ(backoffDelayMs(opts, 60), 2000u); // shift-safe
    opts.backoffBaseMs = 0;
    EXPECT_EQ(backoffDelayMs(opts, 3), 0u);
}

TEST(Supervisor, FirstTrySuccessIsClean)
{
    RunControl ctl;
    const PointStatus st =
        supervisePoint(fastOpts(2), ctl, nullptr, 0, [] {});
    EXPECT_TRUE(st.ok());
    EXPECT_TRUE(st.clean());
    EXPECT_EQ(st.attempts, 1u);
    EXPECT_EQ(st.retries(), 0u);
    EXPECT_TRUE(st.error.empty());
}

TEST(Supervisor, RecoverableFailureRetriesThenSucceeds)
{
    RunControl ctl;
    int calls = 0;
    const PointStatus st =
        supervisePoint(fastOpts(2), ctl, nullptr, 0, [&] {
            if (++calls < 3)
                throw RecoverableError(RecoverableError::Kind::kIo,
                                       "transient disk fault");
        });
    EXPECT_TRUE(st.ok());
    EXPECT_FALSE(st.clean()); // retried, even though it recovered
    EXPECT_EQ(st.attempts, 3u);
    EXPECT_EQ(st.retries(), 2u);
    EXPECT_EQ(calls, 3);
}

TEST(Supervisor, ExhaustedRetriesRecordFailureWithError)
{
    RunControl ctl;
    int calls = 0;
    const PointStatus st =
        supervisePoint(fastOpts(1), ctl, nullptr, 0, [&] {
            calls++;
            throw RecoverableError(RecoverableError::Kind::kIo,
                                   "disk on fire");
        });
    EXPECT_EQ(st.state, PointStatus::State::kFailed);
    EXPECT_EQ(st.attempts, 2u); // 1 try + 1 retry
    EXPECT_EQ(calls, 2);
    EXPECT_NE(st.error.find("disk on fire"), std::string::npos);
}

TEST(Supervisor, TimeoutIsFinalDespiteRetryBudget)
{
    RunControl ctl;
    int calls = 0;
    const PointStatus st =
        supervisePoint(fastOpts(5), ctl, nullptr, 0, [&] {
            calls++;
            throw RecoverableError(RecoverableError::Kind::kTimeout,
                                   "cancelled at tick 7");
        });
    EXPECT_EQ(st.state, PointStatus::State::kTimedOut);
    // A deterministic hang repeats: retrying would stall the sweep.
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(st.attempts, 1u);
}

TEST(Supervisor, NonRecoverableExceptionFailsWithoutRetry)
{
    RunControl ctl;
    int calls = 0;
    const PointStatus st =
        supervisePoint(fastOpts(5), ctl, nullptr, 0, [&] {
            calls++;
            throw std::runtime_error("not an environment failure");
        });
    EXPECT_EQ(st.state, PointStatus::State::kFailed);
    EXPECT_EQ(calls, 1);
}

TEST(Supervisor, StateNamesAreStable)
{
    EXPECT_STREQ(stateName(PointStatus::State::kOk), "ok");
    EXPECT_STREQ(stateName(PointStatus::State::kFailed), "failed");
    EXPECT_STREQ(stateName(PointStatus::State::kTimedOut),
                 "timed-out");
}

TEST(Supervisor, EventLedgerRecordsEveryAbnormalEnding)
{
    // Two recoverable failures, then success: two kRetry events
    // with the stable error-kind token, nothing else.
    RunControl ctl;
    int calls = 0;
    PointStatus st =
        supervisePoint(fastOpts(2), ctl, nullptr, 0, [&] {
            if (++calls < 3)
                throw RecoverableError(RecoverableError::Kind::kIo,
                                       "transient");
        });
    ASSERT_EQ(st.events.size(), 2u);
    for (unsigned i = 0; i < 2; i++) {
        EXPECT_EQ(st.events[i].kind, AttemptEvent::Kind::kRetry);
        EXPECT_EQ(st.events[i].attempt, i + 1);
        EXPECT_STREQ(st.events[i].errorKind, "io");
    }

    // Exhausted budget: retries then a terminal kFailed.
    RunControl ctl2;
    st = supervisePoint(fastOpts(1), ctl2, nullptr, 0, [] {
        throw RecoverableError(
            RecoverableError::Kind::kCorruptSnapshot, "bad magic");
    });
    ASSERT_EQ(st.events.size(), 2u);
    EXPECT_EQ(st.events[0].kind, AttemptEvent::Kind::kRetry);
    EXPECT_EQ(st.events[1].kind, AttemptEvent::Kind::kFailed);
    EXPECT_EQ(st.events[1].attempt, 2u);
    EXPECT_STREQ(st.events[1].errorKind, "corrupt-snapshot");

    // Timeout: one terminal kTimedOut, no retry events.
    RunControl ctl3;
    st = supervisePoint(fastOpts(5), ctl3, nullptr, 0, [] {
        throw RecoverableError(RecoverableError::Kind::kTimeout,
                               "stalled");
    });
    ASSERT_EQ(st.events.size(), 1u);
    EXPECT_EQ(st.events[0].kind, AttemptEvent::Kind::kTimedOut);
    EXPECT_STREQ(st.events[0].errorKind, "timeout");

    // Untyped exception: terminal kFailed tagged "unhandled".
    RunControl ctl4;
    st = supervisePoint(fastOpts(5), ctl4, nullptr, 0, [] {
        throw std::runtime_error("boom");
    });
    ASSERT_EQ(st.events.size(), 1u);
    EXPECT_EQ(st.events[0].kind, AttemptEvent::Kind::kFailed);
    EXPECT_STREQ(st.events[0].errorKind, "unhandled");

    // Clean success: empty ledger.
    RunControl ctl5;
    st = supervisePoint(fastOpts(0), ctl5, nullptr, 0, [] {});
    EXPECT_TRUE(st.events.empty());
}

TEST(Watchdog, CancelsStalledHeartbeatAndSparesLiveOne)
{
    Watchdog wd(0.15); // 150 ms stall budget, ~15 ms scan period
    RunControl stalled;
    RunControl lively;
    wd.watch(0, &stalled);
    wd.watch(1, &lively);

    // The lively point beats; the stalled one never does.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    while (!stalled.cancelled() &&
           std::chrono::steady_clock::now() < deadline) {
        lively.beat();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(stalled.cancelled());
    EXPECT_TRUE(stalled.timedOut.load());
    EXPECT_FALSE(lively.cancelled());
    wd.release(0);
    wd.release(1);
}

TEST(Watchdog, DisabledWatchdogIsInert)
{
    Watchdog wd(0.0);
    RunControl ctl;
    wd.watch(0, &ctl); // no thread, no effect
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(ctl.cancelled());
    wd.release(0);
}

} // namespace
} // namespace hawksim::harness
