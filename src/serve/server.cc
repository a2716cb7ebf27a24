#include "server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "batch.hh"
#include "cache.hh"
#include "common/fsio.hh"
#include "common/logging.hh"
#include "protocol.hh"
#include "queue.hh"

namespace vsmooth::serve {

namespace {

/** Self-pipe written by the signal handler; -1 when no server runs. */
std::atomic<int> g_signalPipe{-1};

extern "C" void
onTermSignal(int)
{
    const int fd = g_signalPipe.load(std::memory_order_relaxed);
    if (fd >= 0) {
        const char byte = 1;
        [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
    }
}

/** One client connection. Response lines are written under `writeM`
 *  so concurrent executor completions never interleave bytes. */
struct Connection
{
    explicit Connection(int fd) : fd(fd) {}
    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool
    send(const std::string &line)
    {
        std::lock_guard lk(writeM);
        return sendLine(fd, line);
    }

    bool send(const Json &j) { return send(j.dump()); }

    int fd;
    std::mutex writeM;
};

/** Progress of one batch request; the executor completing the final
 *  item sends batch_done. */
struct BatchState
{
    std::shared_ptr<Connection> conn;
    std::string batchId;
    std::size_t items = 0;
    std::atomic<std::size_t> remaining{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> errors{0};

    void
    finishOne()
    {
        if (remaining.fetch_sub(1) != 1)
            return;
        Json done = Json::object();
        done.set("type", "batch_done");
        done.set("batch", batchId);
        done.set("items", Json(static_cast<std::uint64_t>(items)));
        done.set("cache_hits", Json(hits.load()));
        done.set("cache_misses", Json(misses.load()));
        done.set("rejected", Json(rejected.load()));
        done.set("errors", Json(errors.load()));
        conn->send(done);
    }
};

Json
withItemContext(Json error, const std::string &batchId,
                const std::string &itemId, std::size_t index)
{
    error.set("batch", batchId);
    error.set("item", itemId);
    error.set("index", Json(static_cast<std::uint64_t>(index)));
    return error;
}

class Server
{
  public:
    explicit Server(const ServeOptions &opt)
        : opt_(opt), cache_(opt.cacheBytes),
          queue_(opt.queueCapacity == 0 ? 1 : opt.queueCapacity)
    {
    }

    int run();

  private:
    /** One connection's reader thread. `conn` is the server's
     *  reference; the reader drops it on EOF or error, so the fd
     *  closes once the last in-flight item of that connection has
     *  been sent (each BatchState holds its own reference). */
    struct Reader
    {
        std::shared_ptr<Connection> conn; // null once the reader is done
        std::thread thread;
    };

    bool listenSocket();
    void acceptLoop();
    void reapReaders();
    void serveConnection(std::shared_ptr<Connection> conn);
    void handleRequest(const std::shared_ptr<Connection> &conn,
                       const std::string &line);
    void handleBatch(const std::shared_ptr<Connection> &conn,
                     const Json &req);
    void requestDrain();

    ServeOptions opt_;
    ResultCache cache_;
    TaskQueue queue_;

    int listenFd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    std::atomic<bool> draining_{false};

    /** Guards each Reader's `conn`. Only the accept/drain thread
     *  adds, joins or erases list entries. */
    std::mutex readersM_;
    std::list<Reader> readers_;
};

bool
Server::listenSocket()
{
    if (!opt_.socketPath.empty()) {
        sockaddr_un addr{};
        if (opt_.socketPath.size() >= sizeof(addr.sun_path)) {
            warn("serve: socket path too long (%zu bytes)",
                  opt_.socketPath.size());
            return false;
        }
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            return false;
        ::unlink(opt_.socketPath.c_str());
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opt_.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listenFd_, 64) != 0) {
            warn("serve: cannot listen on '%s': %s",
                  opt_.socketPath.c_str(), std::strerror(errno));
            return false;
        }
        inform("serve: listening on unix socket %s",
             opt_.socketPath.c_str());
        if (!opt_.readyFile.empty()) {
            writeFileAtomic(opt_.readyFile, [&](std::ostream &os) {
                os << "unix " << opt_.socketPath << "\n";
                return os.good();
            });
        }
        return true;
    }

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return false;
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opt_.port));
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 64) != 0) {
        warn("serve: cannot listen on port %d: %s", opt_.port,
              std::strerror(errno));
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    const int port = ntohs(addr.sin_port);
    inform("serve: listening on 127.0.0.1:%d", port);
    if (!opt_.readyFile.empty()) {
        writeFileAtomic(opt_.readyFile, [&](std::ostream &os) {
            os << "tcp " << port << "\n";
            return os.good();
        });
    }
    return true;
}

int
Server::run()
{
    int pipeFds[2];
    if (::pipe(pipeFds) != 0) {
        warn("serve: pipe: %s", std::strerror(errno));
        return 1;
    }
    wakeRead_ = pipeFds[0];
    wakeWrite_ = pipeFds[1];
    g_signalPipe.store(wakeWrite_);

    // Writes race client disconnects by design; the failed send is
    // the signal, not SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);
    struct sigaction sa{};
    sa.sa_handler = onTermSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    if (!listenSocket())
        return 1;

    std::vector<std::thread> executors;
    for (std::size_t i = 0; i < std::max<std::size_t>(1, opt_.workers);
         ++i) {
        executors.emplace_back([this] {
            Task t;
            while (queue_.pop(&t)) {
                t.run();
                queue_.taskDone();
            }
        });
    }

    acceptLoop();

    // --- graceful drain -------------------------------------------------
    ::close(listenFd_);
    listenFd_ = -1;
    if (!opt_.socketPath.empty())
        ::unlink(opt_.socketPath.c_str());

    // Reject everything still queued (their connections hear a
    // retryable status), let in-flight items finish and deliver.
    queue_.beginDrain();
    queue_.awaitIdle();
    for (auto &t : executors)
        t.join();

    // Quiesce the live readers: pending requests already dispatched,
    // new reads see EOF.
    {
        std::lock_guard lk(readersM_);
        for (const Reader &r : readers_) {
            if (r.conn)
                ::shutdown(r.conn->fd, SHUT_RD);
        }
    }
    for (Reader &r : readers_)
        r.thread.join();
    readers_.clear();

    g_signalPipe.store(-1);
    ::close(wakeRead_);
    ::close(wakeWrite_);
    inform("serve: drained, exiting");
    return 0;
}

void
Server::acceptLoop()
{
    for (;;) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakeRead_, POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll: %s", std::strerror(errno));
            return;
        }
        if (fds[1].revents & POLLIN)
            return; // SIGTERM/SIGINT or shutdown request
        if (!(fds[0].revents & POLLIN))
            continue;
        reapReaders();
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        std::lock_guard lk(readersM_);
        Reader &r = readers_.emplace_back();
        r.conn = std::make_shared<Connection>(fd);
        // std::list nodes never move, so `r` stays valid until the
        // accept thread erases it after joining this thread.
        r.thread = std::thread([this, conn = r.conn, &r]() mutable {
            serveConnection(std::move(conn));
            std::lock_guard done(readersM_);
            r.conn.reset();
        });
    }
}

void
Server::reapReaders()
{
    std::lock_guard lk(readersM_);
    for (auto it = readers_.begin(); it != readers_.end();) {
        if (it->conn) {
            ++it;
            continue;
        }
        // The reader released `conn` as its last step, so the join
        // returns at once.
        it->thread.join();
        it = readers_.erase(it);
    }
}

void
Server::serveConnection(std::shared_ptr<Connection> conn)
{
    LineReader reader(conn->fd);
    std::string line;
    for (;;) {
        switch (reader.next(&line)) {
        case LineReader::Status::Line:
            handleRequest(conn, line);
            break;
        case LineReader::Status::Oversized:
            // Structured error, connection stays usable: the frame
            // was consumed to its newline.
            conn->send(makeError(
                "line_too_long",
                "request exceeds " + std::to_string(kMaxLineBytes) +
                    " bytes per line"));
            break;
        case LineReader::Status::Eof:
        case LineReader::Status::Error:
            return;
        }
    }
}

void
Server::handleRequest(const std::shared_ptr<Connection> &conn,
                      const std::string &line)
{
    if (line.empty())
        return;
    std::string parseError;
    const Json req = Json::parse(line, &parseError);
    if (!parseError.empty()) {
        conn->send(makeError("bad_json", parseError));
        return;
    }
    const Json *type = req.find("type");
    if (!type || !type->isString()) {
        conn->send(makeError("bad_request",
                             "missing string field 'type'"));
        return;
    }
    const std::string &t = type->asString();
    if (t == "ping") {
        Json pong = Json::object();
        pong.set("type", "pong");
        conn->send(pong);
        return;
    }
    if (t == "stats") {
        const ResultCache::Stats s = cache_.stats();
        Json j = Json::object();
        j.set("type", "stats");
        j.set("cache_hits", Json(s.hits));
        j.set("cache_misses", Json(s.misses));
        j.set("cache_insertions", Json(s.insertions));
        j.set("cache_evictions", Json(s.evictions));
        j.set("cache_entries",
              Json(static_cast<std::uint64_t>(s.entries)));
        j.set("cache_bytes",
              Json(static_cast<std::uint64_t>(s.bytes)));
        j.set("queue_depth",
              Json(static_cast<std::uint64_t>(queue_.depth())));
        j.set("draining", queue_.draining());
        conn->send(j);
        return;
    }
    if (t == "shutdown") {
        Json j = Json::object();
        j.set("type", "shutting_down");
        conn->send(j);
        requestDrain();
        return;
    }
    if (t == "batch") {
        handleBatch(conn, req);
        return;
    }
    conn->send(makeError("bad_request",
                         "unknown request type '" + t + "'"));
}

void
Server::handleBatch(const std::shared_ptr<Connection> &conn,
                    const Json &req)
{
    const Json *items = req.find("items");
    if (!items || !items->isArray()) {
        conn->send(
            makeError("bad_request", "batch lacks array 'items'"));
        return;
    }
    auto state = std::make_shared<BatchState>();
    state->conn = conn;
    if (const Json *id = req.find("id"); id && id->isString())
        state->batchId = id->asString();
    state->items = items->asArray().size();
    // +1 guard ref: the submission loop below must finish before any
    // executor completion can believe it delivered the last item.
    state->remaining.store(state->items + 1);

    for (std::size_t i = 0; i < items->asArray().size(); ++i) {
        const Json &itemJson = items->asArray()[i];
        auto item = std::make_shared<BatchItem>();
        std::string parseError;
        if (!BatchItem::fromJson(itemJson, *item, &parseError)) {
            // A malformed item is a structured per-item error; the
            // rest of the batch still runs.
            ++state->errors;
            conn->send(withItemContext(
                makeError("bad_item", parseError), state->batchId,
                item->id.empty() ? std::to_string(i) : item->id, i));
            state->finishOne();
            continue;
        }
        if (item->id.empty())
            item->id = std::to_string(i);

        // Serialized once here on the submission thread and memoized
        // in the item; the executor task below reuses the same bytes
        // through its shared_ptr instead of capturing copies.
        const std::string &key = item->canonicalKey();
        const std::string hash = fnv1aHex(key);
        std::string payload;
        if (cache_.lookup(key, &payload)) {
            ++state->hits;
            conn->send(makeResult(state->batchId, item->id, i, "hit",
                                  hash, payload));
            state->finishOne();
            continue;
        }

        const std::size_t index = i;
        Task task;
        task.run = [this, state, item, hash, index] {
            const Result r = runBatchItem(*item);
            std::string bytes = serializeResult(r);
            state->conn->send(makeResult(state->batchId, item->id,
                                         index, "miss", hash, bytes));
            cache_.insert(item->canonicalKey(), std::move(bytes));
            ++state->misses;
            state->finishOne();
        };
        task.reject = [state, item, index] {
            ++state->rejected;
            Json e = makeError("draining",
                               "server is draining; resubmit later",
                               /*retryable=*/true);
            state->conn->send(withItemContext(e, state->batchId,
                                              item->id, index));
            state->finishOne();
        };
        switch (queue_.push(std::move(task))) {
        case TaskQueue::Push::Accepted:
            break;
        case TaskQueue::Push::Busy:
            ++state->rejected;
            conn->send(withItemContext(
                makeError("busy", "queue full; resubmit later",
                          /*retryable=*/true),
                state->batchId, item->id, i));
            state->finishOne();
            break;
        case TaskQueue::Push::Draining:
            ++state->rejected;
            conn->send(withItemContext(
                makeError("draining",
                          "server is draining; resubmit later",
                          /*retryable=*/true),
                state->batchId, item->id, i));
            state->finishOne();
            break;
        }
    }
    state->finishOne(); // drop the guard ref
}

void
Server::requestDrain()
{
    if (draining_.exchange(true))
        return;
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wakeWrite_, &byte, 1);
}

} // namespace

int
runServe(const ServeOptions &opt)
{
    Server server(opt);
    return server.run();
}

} // namespace vsmooth::serve
