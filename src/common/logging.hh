/**
 * @file
 * gem5-style status and error reporting: inform / warn / fatal / panic.
 *
 * fatal() is for user errors (bad configuration, invalid arguments) and
 * exits cleanly; panic() is for internal invariant violations and
 * aborts. Both accept printf-style format strings.
 */

#ifndef VSMOOTH_COMMON_LOGGING_HH
#define VSMOOTH_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace vsmooth {

/** Print an informational status message to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning about questionable-but-survivable behaviour. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable *user* error (bad config, invalid argument)
 * and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation (a vsmooth bug) and abort().
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace vsmooth

#endif // VSMOOTH_COMMON_LOGGING_HH
