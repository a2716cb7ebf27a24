/**
 * @file
 * The `vsmooth serve` daemon: sweep-as-a-service.
 *
 * A long-running process that listens on a Unix or TCP socket,
 * accepts newline-delimited JSON scenario batches (see protocol.hh),
 * executes each item through the deterministic batch engine
 * (batch.hh) on a bounded executor pool, and streams one Result line
 * per item. Repeat submissions of the same canonical config are
 * answered from the content-addressed cache with the exact bytes of
 * the first computation.
 *
 * Lifecycle: SIGTERM/SIGINT or a `shutdown` request starts a graceful
 * drain — the listener closes, queued items are rejected with a
 * retryable status, in-flight items run to completion and their
 * results are delivered, then the process exits. No partial or
 * corrupt response is ever emitted: a response line is written
 * atomically under the connection's write lock.
 *
 * A connection is released when its client closes (or half-closes)
 * it: the socket closes once the connection's last in-flight result
 * has been sent, and the reader thread is joined at the next accept,
 * so a long-running daemon's fds and threads track its live
 * connections.
 */

#ifndef VSMOOTH_SERVE_SERVER_HH
#define VSMOOTH_SERVE_SERVER_HH

#include <cstddef>
#include <string>

namespace vsmooth::serve {

struct ServeOptions
{
    /** Unix-domain socket path (takes precedence when non-empty). */
    std::string socketPath;
    /** TCP port on 127.0.0.1 (0 = ephemeral, reported via ready
     *  file / log). Used when socketPath is empty. */
    int port = 0;
    /** Executor threads running batch items. */
    std::size_t workers = 2;
    /** Cache byte budget (0 disables caching). */
    std::size_t cacheBytes = std::size_t{64} << 20;
    /** Bounded queue capacity; submissions beyond it get `busy`. */
    std::size_t queueCapacity = 256;
    /** When non-empty, "<kind> <address>" is written here (atomic
     *  rename) once the socket is listening — how scripted tests
     *  learn an ephemeral port. */
    std::string readyFile;
};

/** Run the daemon until drained. Returns a process exit code. */
int runServe(const ServeOptions &opt);

} // namespace vsmooth::serve

#endif // VSMOOTH_SERVE_SERVER_HH
