#include "parallel.hh"

#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

namespace vsmooth {

namespace {

/** Set while a thread is executing pool work (workers always; the
 *  caller while it participates). Nested parallelFor calls from such
 *  a thread run serially inline instead of deadlocking on the pool. */
thread_local bool tl_inPool = false;

std::size_t
defaultJobs()
{
    if (const char *env = std::getenv("VSMOOTH_JOBS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

constexpr std::size_t kNoIndex = std::numeric_limits<std::size_t>::max();

/**
 * The process-wide pool. Workers are spawned lazily, the first time a
 * parallelFor actually needs them, and then persist. The singleton is
 * intentionally leaked so blocked workers never race static
 * destruction at process exit.
 *
 * One sweep runs at a time (concurrent top-level callers queue on
 * runGate_). A sweep is a generation: task parameters are published
 * under the mutex, workers are woken, and every index grab re-checks
 * the generation so a worker that oversleeps a whole sweep can never
 * touch a stale or future task.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        static ThreadPool *pool = new ThreadPool;
        return *pool;
    }

    std::size_t
    jobs()
    {
        std::lock_guard lk(m_);
        return jobs_;
    }

    void
    setJobs(std::size_t n)
    {
        std::lock_guard lk(m_);
        jobs_ = n == 0 ? defaultJobs() : n;
    }

    void
    run(std::size_t begin, std::size_t end,
        const std::function<void(std::size_t)> &fn)
    {
        if (end <= begin)
            return;

        std::unique_lock lk(m_);
        const std::size_t threads = std::min(jobs_, end - begin);
        if (threads <= 1 || tl_inPool) {
            lk.unlock();
            for (std::size_t i = begin; i < end; ++i)
                fn(i);
            return;
        }

        runGate_.wait(lk, [&] { return !running_; });
        running_ = true;
        end_ = end;
        fn_ = &fn;
        next_ = begin;
        active_ = 0;
        error_ = nullptr;
        errorIndex_ = kNoIndex;
        seats_ = threads - 1;
        spawnWorkers(threads - 1);
        ++generation_;
        const std::uint64_t gen = generation_;
        cv_.notify_all();
        lk.unlock();

        // The calling thread participates instead of just waiting.
        tl_inPool = true;
        workIndices(gen, &fn);
        tl_inPool = false;

        lk.lock();
        doneCv_.wait(lk, [&] { return next_ >= end_ && active_ == 0; });
        std::exception_ptr err = error_;
        running_ = false;
        runGate_.notify_one();
        lk.unlock();
        if (err)
            std::rethrow_exception(err);
    }

  private:
    void
    spawnWorkers(std::size_t needed)
    {
        // Called with m_ held; generation_ not yet bumped, so a new
        // worker's first wait matches the sweep being launched.
        while (numWorkers_ < needed) {
            ++numWorkers_;
            std::thread(
                [this, seen = generation_]() mutable { workerLoop(seen); })
                .detach();
        }
    }

    void
    workerLoop(std::uint64_t seen)
    {
        tl_inPool = true;
        std::unique_lock lk(m_);
        for (;;) {
            cv_.wait(lk, [&] { return generation_ != seen; });
            seen = generation_;
            // The pool may hold more workers than this sweep's job
            // count (an earlier sweep ran with more); only `seats_` of
            // them join it.
            if (seats_ == 0)
                continue;
            --seats_;
            const auto *fn = fn_;
            lk.unlock();
            workIndices(seen, fn);
            lk.lock();
        }
    }

    std::size_t
    grabIndex(std::uint64_t gen)
    {
        std::lock_guard lk(m_);
        if (generation_ != gen || next_ >= end_)
            return kNoIndex;
        ++active_;
        return next_++;
    }

    void
    workIndices(std::uint64_t gen, const std::function<void(std::size_t)> *fn)
    {
        for (;;) {
            // Each index is its own chunk, handed out in index order to
            // whichever thread is free: sweep items differ in cost, so
            // static ranges leave threads idle.
            const std::size_t i = grabIndex(gen);
            if (i == kNoIndex)
                return;
            try {
                (*fn)(i);
            } catch (...) {
                std::lock_guard lk(m_);
                // Keep the exception from the lowest throwing index,
                // not whichever thread reached this line first. Every
                // lower index was dispatched before it and drains
                // before the caller rethrows, so the winner is
                // deterministic no matter how threads are scheduled.
                if (!error_ || i < errorIndex_) {
                    error_ = std::current_exception();
                    errorIndex_ = i;
                }
                next_ = end_; // abandon undispatched indices
            }
            std::lock_guard lk(m_);
            if (--active_ == 0 && next_ >= end_)
                doneCv_.notify_all();
        }
    }

    std::mutex m_;
    std::condition_variable cv_;      // wakes workers for a new sweep
    std::condition_variable doneCv_;  // wakes the caller on completion
    std::condition_variable runGate_; // serializes top-level sweeps

    std::size_t jobs_ = defaultJobs();
    std::size_t numWorkers_ = 0;
    bool running_ = false;

    // Current sweep (valid while running_).
    std::uint64_t generation_ = 0;
    const std::function<void(std::size_t)> *fn_ = nullptr;
    std::size_t end_ = 0;
    std::size_t next_ = 0;   // next undispatched index
    std::size_t active_ = 0; // indices dispatched and still running
    std::size_t seats_ = 0;  // workers that may still join
    std::exception_ptr error_;
    std::size_t errorIndex_ = kNoIndex; // index that set error_
};

} // namespace

std::size_t
numJobs()
{
    return ThreadPool::instance().jobs();
}

void
setJobs(std::size_t n)
{
    ThreadPool::instance().setJobs(n);
}

void
parallelFor(std::size_t begin, std::size_t end,
            const std::function<void(std::size_t)> &fn)
{
    ThreadPool::instance().run(begin, end, fn);
}

} // namespace vsmooth
