/**
 * @file
 * Tests for the `vsmooth serve` layer: the content-addressed result
 * cache, the bounded backpressure queue, NDJSON framing edges
 * (oversized line, truncated JSON), batch-item validation, and a live
 * client/server round trip over a Unix socket driven through the real
 * binary (path injected via VSMOOTH_CLI_PATH).
 *
 * The protocol-edge tests assert the survivability contract: a framing
 * or schema error on one request produces a structured error response
 * on the same connection — never a disconnect, never a dead daemon.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pdn/package_config.hh"
#include "sched/oracle_matrix.hh"
#include "serve/batch.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "workload/spec_suite.hh"

namespace fs = std::filesystem;
using namespace vsmooth;
using namespace vsmooth::serve;

namespace {

fs::path
scratchDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("vsmooth_serve_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

// ---------------------------------------------------------------------
// Result cache

TEST(ServeCache, HitReturnsExactBytesAndCountsStats)
{
    ResultCache cache(1 << 20);
    const std::string key = "{\"kind\": \"summary\", \"config\": {}}";
    const std::string payload = "{\"metrics\": {\"cycles\": 123}}";

    std::string out;
    EXPECT_FALSE(cache.lookup(key, &out));
    cache.insert(key, payload);
    ASSERT_TRUE(cache.lookup(key, &out));
    EXPECT_EQ(out, payload); // byte-identical replay

    const ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, key.size() + payload.size());
}

TEST(ServeCache, LruEvictionRespectsByteBudget)
{
    // Each entry is key (2 bytes) + payload (10 bytes) = 12 bytes;
    // budget fits exactly two entries.
    ResultCache cache(24);
    const std::string pay(10, 'p');
    cache.insert("k1", pay);
    cache.insert("k2", pay);

    // Touch k1 so k2 becomes least recently used, then overflow.
    std::string out;
    ASSERT_TRUE(cache.lookup("k1", &out));
    cache.insert("k3", pay);

    EXPECT_TRUE(cache.lookup("k1", &out));
    EXPECT_FALSE(cache.lookup("k2", &out)); // evicted as LRU
    EXPECT_TRUE(cache.lookup("k3", &out));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);

    // An entry larger than the whole budget is never cached (and must
    // not evict everything else trying).
    cache.insert("huge", std::string(100, 'x'));
    EXPECT_FALSE(cache.lookup("huge", &out));
    EXPECT_TRUE(cache.lookup("k3", &out));

    // Budget zero disables caching outright.
    ResultCache off(0);
    off.insert("k", "v");
    EXPECT_FALSE(off.lookup("k", &out));
}

// ---------------------------------------------------------------------
// Bounded queue

TEST(ServeQueue, BusyWhenFullThenDrainRejectsBacklogInOrder)
{
    TaskQueue q(2);
    std::vector<int> rejected;
    std::atomic<int> ran{0};
    auto task = [&](int id) {
        return Task{[&ran] { ++ran; },
                    [&rejected, id] { rejected.push_back(id); }};
    };

    EXPECT_EQ(q.push(task(1)), TaskQueue::Push::Accepted);
    EXPECT_EQ(q.push(task(2)), TaskQueue::Push::Accepted);
    EXPECT_EQ(q.push(task(3)), TaskQueue::Push::Busy);
    EXPECT_EQ(q.depth(), 2u);

    // Drain rejects the backlog (in queue order) without running it.
    q.beginDrain();
    EXPECT_EQ(q.push(task(4)), TaskQueue::Push::Draining);
    ASSERT_EQ(rejected.size(), 2u);
    EXPECT_EQ(rejected[0], 1);
    EXPECT_EQ(rejected[1], 2);
    EXPECT_EQ(ran.load(), 0);

    // Draining + empty: workers are told to exit.
    Task t;
    EXPECT_FALSE(q.pop(&t));
    q.awaitIdle(); // no in-flight work; must not block
}

TEST(ServeQueue, WorkerRunsAcceptedTasksAndIdlesOut)
{
    TaskQueue q(8);
    std::atomic<int> ran{0};
    std::thread worker([&] {
        Task t;
        while (q.pop(&t)) {
            t.run();
            q.taskDone();
        }
    });
    for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(q.push(Task{[&ran] { ++ran; }, [] {}}),
                  TaskQueue::Push::Accepted);
    }
    // Drain rejects whatever the worker has not yet popped, so wait
    // for the backlog to run before draining.
    for (int i = 0; i < 500 && ran.load() < 5; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    q.beginDrain();
    q.awaitIdle();
    worker.join();
    EXPECT_EQ(ran.load(), 5);
}

// ---------------------------------------------------------------------
// NDJSON framing

TEST(ServeProtocol, LineReaderRecoversAfterOversizedFrame)
{
    // Feed the reader from a regular file: one good frame, one frame
    // past the 1 MiB cap, another good frame, and a partial trailing
    // frame with no newline.
    const fs::path dir = scratchDir("linereader");
    const fs::path file = dir / "frames";
    {
        std::ofstream os(file, std::ios::binary);
        os << "{\"type\": \"ping\"}\n";
        os << std::string(kMaxLineBytes + 100, 'x') << "\n";
        os << "{\"type\": \"stats\"}\n";
        os << "{\"partial";
    }
    const int fd = ::open(file.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    LineReader reader(fd);
    std::string line;

    EXPECT_EQ(reader.next(&line), LineReader::Status::Line);
    EXPECT_EQ(line, "{\"type\": \"ping\"}");

    // The oversized frame is consumed to its newline and reported
    // once; the next frame is intact.
    EXPECT_EQ(reader.next(&line), LineReader::Status::Oversized);
    EXPECT_EQ(reader.next(&line), LineReader::Status::Line);
    EXPECT_EQ(line, "{\"type\": \"stats\"}");

    // A partial trailing frame is dropped at EOF, not surfaced.
    EXPECT_EQ(reader.next(&line), LineReader::Status::Eof);
    ::close(fd);
}

// ---------------------------------------------------------------------
// Batch items

TEST(ServeBatch, FromJsonRejectsBadItemsWithMessages)
{
    BatchItem item;
    std::string error;

    auto parse = [&](const char *text) {
        std::string parseError;
        const Json j = Json::parse(text, &parseError);
        EXPECT_TRUE(parseError.empty()) << parseError;
        error.clear();
        return BatchItem::fromJson(j, item, &error);
    };

    EXPECT_FALSE(parse("{\"kind\": \"bogus\", \"config\": {}}"));
    EXPECT_NE(error.find("unknown experiment kind"), std::string::npos)
        << error;

    // FuzzConfig schema violations surface as messages, not fatals.
    EXPECT_FALSE(parse("{\"config\": {\"cores\": 3}}"));
    EXPECT_FALSE(error.empty());

    // oracle_cell validates benchmark names up front (specByName
    // would fatal inside the executor otherwise).
    EXPECT_FALSE(parse("{\"kind\": \"oracle_cell\", "
                       "\"bench_a\": \"nonesuch\", "
                       "\"bench_b\": \"mcf\"}"));
    EXPECT_NE(error.find("nonesuch"), std::string::npos) << error;

    // Unknown property names likewise fail at parse time.
    EXPECT_FALSE(parse("{\"kind\": \"fuzz\", \"config\": {}, "
                       "\"properties\": [\"no_such_property\"]}"));
    EXPECT_NE(error.find("no_such_property"), std::string::npos)
        << error;

    EXPECT_TRUE(parse("{\"kind\": \"summary\", "
                      "\"config\": {\"seed\": 3, \"cycles\": 2000}}"))
        << error;
}

TEST(ServeBatch, CanonicalKeyIgnoresIdAndFieldOrder)
{
    auto keyOf = [](const char *text) {
        std::string parseError;
        const Json j = Json::parse(text, &parseError);
        EXPECT_TRUE(parseError.empty()) << parseError;
        BatchItem item;
        std::string error;
        EXPECT_TRUE(BatchItem::fromJson(j, item, &error)) << error;
        return item.canonicalKey();
    };

    // Same scenario: different field order, explicit default kind,
    // different id — identical cache key.
    const std::string a =
        keyOf("{\"config\": {\"seed\": 3, \"cycles\": 2000}}");
    const std::string b =
        keyOf("{\"id\": \"other\", \"kind\": \"summary\", "
              "\"config\": {\"cycles\": 2000, \"seed\": 3}}");
    EXPECT_EQ(a, b);

    // Any parameter that affects the Result changes the key.
    const std::string c =
        keyOf("{\"config\": {\"seed\": 4, \"cycles\": 2000}}");
    EXPECT_NE(a, c);
    EXPECT_NE(fnv1aHex(a), fnv1aHex(c));
}

TEST(ServeBatch, CanonicalKeyIsSerializedOncePerItem)
{
    std::string parseError;
    const Json j = Json::parse(
        "{\"config\": {\"seed\": 3, \"cycles\": 2000}}", &parseError);
    ASSERT_TRUE(parseError.empty()) << parseError;
    BatchItem item;
    std::string error;
    ASSERT_TRUE(BatchItem::fromJson(j, item, &error)) << error;

    // Memoized: every call hands back the same bytes (same object),
    // so lookup, hashing, and the executor's insert never re-walk the
    // config JSON.
    const std::string &first = item.canonicalKey();
    const std::string &second = item.canonicalKey();
    EXPECT_EQ(&first, &second);
    EXPECT_FALSE(first.empty());
    const std::string firstCopy = first; // `first` aliases the memo

    // Re-parsing into the same item resets the memo with the fields.
    const Json j2 = Json::parse(
        "{\"config\": {\"seed\": 4, \"cycles\": 2000}}", &parseError);
    ASSERT_TRUE(BatchItem::fromJson(j2, item, &error)) << error;
    EXPECT_NE(item.canonicalKey(), firstCopy);
}

TEST(ServeBatch, RunBatchItemIsBitDeterministic)
{
    std::string parseError;
    const Json j = Json::parse(
        "{\"kind\": \"summary\", "
        "\"config\": {\"seed\": 11, \"cycles\": 3000}}",
        &parseError);
    ASSERT_TRUE(parseError.empty()) << parseError;
    BatchItem item;
    std::string error;
    ASSERT_TRUE(BatchItem::fromJson(j, item, &error)) << error;

    const std::string first = serializeResult(runBatchItem(item));
    const std::string second = serializeResult(runBatchItem(item));
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"cycles\":3000"), std::string::npos)
        << first.substr(0, 200);
}

TEST(ServeBatch, OracleCellEqualsTheTwoBenchmarkMatrixCell)
{
    // An oracle_cell item measures its one cell; that must be the
    // cell of the whole matrix over {bench_a, bench_b}, self-pairs
    // included.
    for (const auto &[a, b] : std::vector<std::pair<std::string,
                                                    std::string>>{
             {"mcf", "lbm"}, {"gcc", "gcc"}}) {
        std::string parseError, error;
        const Json j = Json::parse(
            "{\"kind\": \"oracle_cell\", \"bench_a\": \"" + a +
                "\", \"bench_b\": \"" + b +
                "\", \"cycles_per_pair\": 30000,"
                " \"decap_fraction\": 0.25, \"oracle_seed\": 7}",
            &parseError);
        ASSERT_TRUE(parseError.empty()) << parseError;
        BatchItem item;
        ASSERT_TRUE(BatchItem::fromJson(j, item, &error)) << error;
        const Result r = runBatchItem(item);

        std::vector<workload::SpecBenchmark> suite{
            workload::specByName(a)};
        if (a != b)
            suite.push_back(workload::specByName(b));
        sched::OracleConfig cfg;
        cfg.cyclesPerPair = 30'000;
        cfg.seed = 7;
        cfg.system.package =
            pdn::PackageConfig::core2duo().withDecapFraction(0.25);
        const sched::OracleMatrix m(suite, cfg);
        const sched::PairProfile &p = m.pair(0, suite.size() - 1);

        EXPECT_EQ(r.metricValue("droops_per_1k"), p.droopsPer1k) << a;
        EXPECT_EQ(r.metricValue("ipc"), p.ipc) << a;
        EXPECT_EQ(r.countValue("cycles"), p.emergencies.cycles) << a;
        std::vector<double> counts(p.emergencies.counts.begin(),
                                   p.emergencies.counts.end());
        for (const auto &[name, values] : r.allSeries()) {
            if (name == "emergency_margins") {
                EXPECT_EQ(values, p.emergencies.margins) << a;
            } else {
                EXPECT_EQ(name, "emergency_counts");
                EXPECT_EQ(values, counts) << a;
            }
        }
        EXPECT_EQ(r.allSeries().size(), 2u);
    }
}

// ---------------------------------------------------------------------
// Live daemon round trip (real binary, Unix socket)

namespace {

/** Fork/exec the real CLI as `vsmooth serve`, wait for its ready
 *  file, and SIGTERM it on destruction. */
struct Daemon
{
    pid_t pid = -1;
    std::string sock;

    /** Launch and wait for the ready file; false (with a recorded
     *  failure) if the daemon never came up. */
    bool start(const fs::path &dir)
    {
        sock = (dir / "s.sock").string();
        const std::string ready = (dir / "ready").string();
        const std::string log = (dir / "serve.log").string();
        pid = ::fork();
        if (pid == 0) {
            const int out =
                ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            ::dup2(out, 1);
            ::dup2(out, 2);
            ::execl(VSMOOTH_CLI_PATH, "vsmooth", "serve", "--socket",
                    sock.c_str(), "--workers", "2", "--ready-file",
                    ready.c_str(), static_cast<char *>(nullptr));
            _exit(127); // exec failed
        }
        EXPECT_GT(pid, 0);
        for (int i = 0; i < 500 && !fs::exists(ready); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_TRUE(fs::exists(ready))
            << "daemon never became ready; log:\n" << slurp(log);
        return pid > 0 && fs::exists(ready);
    }

    /** SIGTERM and reap; returns the daemon's exit code. */
    int terminate()
    {
        if (pid <= 0)
            return -1;
        ::kill(pid, SIGTERM);
        int status = 0;
        ::waitpid(pid, &status, 0);
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    ~Daemon()
    {
        if (pid > 0) {
            ::kill(pid, SIGTERM);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    }
};

int
connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
    // A hung daemon should fail the test, not hang it.
    timeval tv{30, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
}

struct CliResult
{
    int exitCode = -1;
    std::string output;
};

CliResult
runCli(const std::string &args)
{
    const std::string cmd =
        std::string(VSMOOTH_CLI_PATH) + " " + args + " 2>/dev/null";
    FILE *pipe = ::popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    CliResult r;
    std::array<char, 4096> buf;
    while (pipe && fgets(buf.data(), buf.size(), pipe))
        r.output += buf.data();
    if (pipe) {
        const int status = ::pclose(pipe);
        r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    return r;
}

} // namespace

TEST(ServeDaemon, ProtocolEdgesKeepTheConnectionAlive)
{
    const fs::path dir = scratchDir("edges");
    Daemon daemon;
    ASSERT_TRUE(daemon.start(dir));

    const int fd = connectUnix(daemon.sock);
    LineReader reader(fd);
    std::string line;
    auto expectResponse = [&](const char *what) {
        ASSERT_EQ(reader.next(&line), LineReader::Status::Line)
            << what;
    };

    // Truncated JSON in a well-framed line: structured bad_json
    // error, connection survives.
    ASSERT_TRUE(sendLine(fd, "{\"type\": \"ping\""));
    expectResponse("truncated json");
    EXPECT_NE(line.find("\"bad_json\""), std::string::npos) << line;

    // Nesting far past the parser's depth limit, yet inside the frame
    // cap: a structured bad_json error, not a stack overflow.
    ASSERT_TRUE(sendLine(fd, std::string(400'000, '[') +
                                 std::string(400'000, ']')));
    expectResponse("deep nesting");
    EXPECT_NE(line.find("\"bad_json\""), std::string::npos) << line;
    EXPECT_NE(line.find("nesting deeper than"), std::string::npos)
        << line;

    // Oversized line: consumed, answered, connection survives.
    ASSERT_TRUE(sendLine(fd, std::string(kMaxLineBytes + 64, 'z')));
    expectResponse("oversized line");
    EXPECT_NE(line.find("\"line_too_long\""), std::string::npos)
        << line;

    // Unknown request type.
    ASSERT_TRUE(sendLine(fd, "{\"type\": \"frobnicate\"}"));
    expectResponse("unknown type");
    EXPECT_NE(line.find("\"bad_request\""), std::string::npos) << line;

    // Unknown experiment kind inside a batch: a per-item structured
    // error plus batch_done — not a disconnect, not a dead executor.
    ASSERT_TRUE(sendLine(
        fd, "{\"type\": \"batch\", \"id\": \"e\", \"items\": "
            "[{\"kind\": \"bogus\", \"config\": {}}]}"));
    expectResponse("bad item error");
    EXPECT_NE(line.find("\"bad_item\""), std::string::npos) << line;
    EXPECT_NE(line.find("unknown experiment kind"), std::string::npos)
        << line;
    expectResponse("batch_done after bad item");
    EXPECT_NE(line.find("\"batch_done\""), std::string::npos) << line;

    // The same connection still answers a healthy request.
    ASSERT_TRUE(sendLine(fd, "{\"type\": \"ping\"}"));
    expectResponse("ping after errors");
    EXPECT_NE(line.find("\"pong\""), std::string::npos) << line;
    ::close(fd);

    // SIGTERM drains cleanly.
    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeDaemon, ConnectionChurnReleasesDescriptors)
{
    // Sequential short-lived connections must not accumulate in the
    // daemon: each one's socket closes after the client leaves, so
    // the daemon's open-fd count returns to where it started.
    const fs::path dir = scratchDir("churn");
    Daemon daemon;
    ASSERT_TRUE(daemon.start(dir));
    const fs::path fdDir =
        fs::path("/proc") / std::to_string(daemon.pid) / "fd";
    auto openFds = [&] {
        std::size_t n = 0;
        for ([[maybe_unused]] const auto &e :
             fs::directory_iterator(fdDir))
            ++n;
        return n;
    };
    const std::size_t baseline = openFds();

    for (int i = 0; i < 300; ++i) {
        const int fd = connectUnix(daemon.sock);
        LineReader reader(fd);
        std::string line;
        ASSERT_TRUE(sendLine(fd, "{\"type\": \"ping\"}"));
        ASSERT_EQ(reader.next(&line), LineReader::Status::Line) << i;
        ASSERT_NE(line.find("\"pong\""), std::string::npos) << line;
        ::close(fd);
    }
    // The daemon closes each socket after its reader sees EOF, which
    // may trail the client's close by a moment.
    std::size_t after = openFds();
    for (int i = 0; i < 250 && after != baseline; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        after = openFds();
    }
    EXPECT_EQ(after, baseline);

    // A client that only half-closes hears EOF back once the daemon
    // is done with the connection.
    const int fd = connectUnix(daemon.sock);
    timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::shutdown(fd, SHUT_WR);
    LineReader reader(fd);
    std::string line;
    EXPECT_EQ(reader.next(&line), LineReader::Status::Eof);
    ::close(fd);

    EXPECT_EQ(daemon.terminate(), 0);
}

TEST(ServeDaemon, CacheHitRoundTripIsBitIdenticalToLocal)
{
    const fs::path dir = scratchDir("roundtrip");
    const fs::path batch = dir / "batch.json";
    {
        std::ofstream os(batch);
        os << "[{\"kind\": \"summary\", "
              "\"config\": {\"seed\": 7, \"cycles\": 2000}},\n"
           << " {\"kind\": \"fuzz\", "
              "\"config\": {\"seed\": 5, \"cycles\": 1500}, "
              "\"properties\": [\"run_twice_determinism\"]}]\n";
    }
    Daemon daemon;
    ASSERT_TRUE(daemon.start(dir));

    const std::string base =
        "client --socket " + daemon.sock + " --batch " + batch.string();

    // First pass computes; every line is a miss.
    const CliResult pass1 = runCli(base + " --results-only");
    ASSERT_EQ(pass1.exitCode, 0) << pass1.output;
    ASSERT_FALSE(pass1.output.empty());

    // Second pass must be served from cache, byte-identical.
    const CliResult pass2 = runCli(base + " --results-only");
    ASSERT_EQ(pass2.exitCode, 0) << pass2.output;
    EXPECT_EQ(pass1.output, pass2.output);

    const CliResult envelope = runCli(base);
    ASSERT_EQ(envelope.exitCode, 0) << envelope.output;
    EXPECT_EQ(envelope.output.find("\"cache\": \"miss\""),
              std::string::npos)
        << envelope.output;
    std::size_t hits = 0;
    for (std::size_t at = envelope.output.find("\"cache\": \"hit\"");
         at != std::string::npos;
         at = envelope.output.find("\"cache\": \"hit\"", at + 1))
        ++hits;
    EXPECT_EQ(hits, 2u) << envelope.output;

    // The served bytes equal the offline computation of the same
    // batch — the core bit-identity guarantee.
    const CliResult local =
        runCli("client --local --batch " + batch.string() +
               " --results-only");
    ASSERT_EQ(local.exitCode, 0) << local.output;
    EXPECT_EQ(pass1.output, local.output);

    EXPECT_EQ(daemon.terminate(), 0);
}
