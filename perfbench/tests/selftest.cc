/**
 * @file
 * Inertness check of the tracing decorators.
 *
 * Runs one small native System twice — plain, and with TimedPolicy /
 * TimedWorkload wrapped around the same policy and workloads under a
 * traced tick loop — and requires the two to be indistinguishable:
 * same policy name and promotion count, and bit-identical checkpoint
 * images (which serialize the policy and workloads through their
 * save() hooks). It then restores the plain image into a freshly
 * built decorated System, which exercises load() and the restore's
 * save -> load -> save roundtrip audit. Exits 0 on success.
 *
 *   cmake --build .bench_build/perfbench --target perfbench_selftest
 *   .bench_build/perfbench/perfbench_selftest
 */

#include <cstdio>
#include <memory>
#include <string>

#include "trace.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

std::unique_ptr<sim::System>
build(Recorder *rec)
{
    sim::SystemConfig cfg;
    cfg.memoryBytes = GiB(2);
    cfg.seed = 7;
    auto sys = std::make_unique<sim::System>(cfg);
    sys->setPolicy(traced(std::make_unique<core::HawkEyePolicy>(), rec));
    sys->fragmentMemoryMovable(1.0, 64);
    sys->costs().promotionsPerSec = 8.0;
    const workload::Scale sc{64};
    sys->addProcess("cg", traced(workload::makeNpb("cg", sys->rng().fork(),
                                                   sc, 120),
                                 rec));
    sys->addProcess("redis",
                    traced(workload::makeRedisLight(sys->rng().fork(),
                                                    sc, 120),
                           rec));
    return sys;
}

} // namespace

int
main()
{
    constexpr int kTicks = 6000;
    auto plain = build(nullptr);
    for (int i = 0; i < kTicks; i++)
        plain->tick();

    TraceSession session;
    Recorder &rec = session.recorder();
    auto decorated = build(&rec);
    for (int i = 0; i < kTicks; i++) {
        Span s(&rec, Layer::kTick);
        decorated->tick();
    }

    expect(dynamic_cast<TimedPolicy *>(&decorated->policy()) != nullptr,
           "decorated run uses TimedPolicy");
    expect(plain->policy().name() == decorated->policy().name(),
           "name() forwarded");
    expect(plain->policy().promotions() ==
               decorated->policy().promotions(),
           "promotions() forwarded");
    expect(plain->policy().promotions() > 0,
           "the run promotes (promotions() is exercised)");
    const std::string image = plain->saveImage();
    expect(image == decorated->saveImage(),
           "save() forwarded: checkpoint images bit-identical");

    const TraceSession::Totals t = session.totals();
    expect(t.calls(Layer::kTick) == kTicks, "one span per tick");
    expect(t.calls(Layer::kPolicyPeriodic) == kTicks,
           "policy.periodic timed once per tick");
    expect(t.calls(Layer::kPolicyFault) > 0 &&
               t.calls(Layer::kWorkloadNext) > 0,
           "fault and workload spans recorded");
    expect(t.selfS(Layer::kTick) <= t.totalS(Layer::kTick),
           "self time within span time");

    // load(): restore the plain image into a fresh decorated System.
    auto restored = build(&rec);
    restored->restoreFromBytes(image);
    expect(restored->saveImage() == image,
           "load() forwarded: restored image re-serializes bit-equal");

    std::printf("%s\n", failures == 0 ? "selftest passed"
                                      : "selftest FAILED");
    return failures == 0 ? 0 : 1;
}
