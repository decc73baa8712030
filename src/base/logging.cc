#include "base/logging.hh"

#include <atomic>
#include <exception>

namespace hawksim {

namespace {
// Set by tests from runner worker threads; relaxed suffices because
// no other memory is published through it.
std::atomic<bool> quiet_flag{false};
} // namespace

void
setLogQuiet(bool quiet)
{
    quiet_flag.store(quiet, std::memory_order_relaxed);
}

namespace detail {

/**
 * Exception thrown by panic so that death tests and callers that want
 * to recover (none in-tree) see a typed failure before abort.
 */
void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (!quiet_flag.load(std::memory_order_relaxed))
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (!quiet_flag.load(std::memory_order_relaxed))
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace hawksim
