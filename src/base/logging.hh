/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * panic()  — an internal invariant was violated (simulator bug); aborts.
 * fatal()  — the simulation cannot continue due to a user/config error;
 *            exits with status 1.
 * warn()   — something questionable happened but simulation continues.
 * inform() — status message for the user.
 */

#ifndef HAWKSIM_BASE_LOGGING_HH
#define HAWKSIM_BASE_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace hawksim {

namespace detail {

/** Build a message string from any streamable parts. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Toggle for warn()/inform() output (tests silence it). */
void setLogQuiet(bool quiet);

#define HS_PANIC(...)                                                        \
    ::hawksim::detail::panicImpl(__FILE__, __LINE__,                         \
                                 ::hawksim::detail::concat(__VA_ARGS__))

#define HS_FATAL(...)                                                        \
    ::hawksim::detail::fatalImpl(__FILE__, __LINE__,                         \
                                 ::hawksim::detail::concat(__VA_ARGS__))

#define HS_WARN(...)                                                         \
    ::hawksim::detail::warnImpl(::hawksim::detail::concat(__VA_ARGS__))

#define HS_INFORM(...)                                                       \
    ::hawksim::detail::informImpl(::hawksim::detail::concat(__VA_ARGS__))

/** Panic unless a simulator invariant holds. */
#define HS_ASSERT(cond, ...)                                                 \
    do {                                                                     \
        if (!(cond)) {                                                       \
            HS_PANIC("assertion failed: " #cond " ",                        \
                     ::hawksim::detail::concat(__VA_ARGS__));                \
        }                                                                    \
    } while (0)

} // namespace hawksim

#endif // HAWKSIM_BASE_LOGGING_HH
