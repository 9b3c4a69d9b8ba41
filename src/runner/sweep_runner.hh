/**
 * @file
 * Parallel execution of independent simulation replications.
 *
 * A Section 4.2 bench is a *sweep*: the cross product of offered
 * loads, buffer organizations, and (sometimes) seeds, where every
 * point is one self-contained FabricSimulator run.
 * The points share no state, so they can execute on any number of
 * worker threads — as long as the *results* come back in the
 * sweep's enumeration order and every task derives its randomness
 * from its index (see deriveTaskSeed), the output is bit-identical
 * to a sequential run regardless of thread count or scheduling.
 *
 * SweepRunner implements exactly that contract: map(count, fn)
 * claims indices from an atomic counter, runs fn(i) on a fixed-size
 * pool of std::threads, stores each result at slot i, and rethrows
 * the first task exception after the pool drains.  Per-task
 * wall-clock timings (and simulated-cycles-per-second rates, when
 * the caller reports cycle counts) are collected on the side so the
 * perf sidecar files never influence the deterministic outputs.
 */

#ifndef DAMQ_RUNNER_SWEEP_RUNNER_HH
#define DAMQ_RUNNER_SWEEP_RUNNER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace damq {

/** Wall-clock and throughput counters for one sweep task. */
struct TaskPerf
{
    /** Wall-clock seconds spent inside the task body. */
    double wallSeconds = 0.0;

    /** Simulated network cycles the task reported (0 = unknown). */
    std::uint64_t simCycles = 0;

    /** simCycles / wallSeconds (0 when either is unknown). */
    double cyclesPerSecond = 0.0;
};

/** How one guarded sweep task ended. */
enum class TaskStatus
{
    Ok,      ///< produced a result
    Failed,  ///< threw on every attempt
    TimedOut ///< exceeded the per-task wall-clock budget
};

/** Status + diagnostics of one mapGuarded() task. */
struct TaskOutcome
{
    TaskStatus status = TaskStatus::Ok;

    /** Attempts consumed (1 on a clean first run). */
    std::uint32_t attempts = 0;

    /** what() of the last failure (empty when Ok / TimedOut). */
    std::string error;

    bool ok() const { return status == TaskStatus::Ok; }
};

/** Degradation knobs of mapGuarded(). */
struct GuardPolicy
{
    /** Attempts per task before it is reported Failed (>= 1).
     *  Only thrown exceptions are retried — a timeout is not (a
     *  hung task would just hang again, twice as long). */
    std::uint32_t maxAttempts = 1;

    /**
     * Per-task wall-clock budget in seconds (0 = unlimited).  A
     * task past its budget is abandoned: its slot stays empty, its
     * outcome says TimedOut, and the sweep moves on.  The runaway
     * attempt keeps executing on a detached thread until it
     * finishes on its own — its result is discarded — so the task
     * callable must stay valid for the process lifetime (benches
     * pass stateless lambdas, which trivially are).
     */
    double taskTimeoutSeconds = 0.0;
};

/** Executes the independent tasks of one sweep on a thread pool. */
class SweepRunner
{
  public:
    /** @param num_threads worker count; 1 runs tasks inline. */
    explicit SweepRunner(unsigned num_threads = 1)
        : numThreads(num_threads == 0 ? 1 : num_threads)
    {
    }

    /** Worker threads this runner fans tasks across. */
    unsigned threads() const { return numThreads; }

    /**
     * Run @p fn(index) for every index in [0, @p count) and return
     * the results ordered by index.  @p fn must be callable
     * concurrently from multiple threads and must not share mutable
     * state across indices.  The optional @p cycles_of extracts a
     * simulated-cycle count from a result for the perf counters.
     * The first exception any task throws is rethrown here once all
     * workers have stopped.
     */
    template <typename Fn,
              typename R = decltype(std::declval<Fn &>()(std::size_t{0}))>
    std::vector<R> map(std::size_t count, Fn &&fn,
                       std::uint64_t (*cycles_of)(const R &) = nullptr)
    {
        const auto sweep_start = std::chrono::steady_clock::now();
        std::vector<std::optional<R>> slots(count);
        perf.assign(count, TaskPerf{});

        std::atomic<std::size_t> next{0};
        std::exception_ptr first_error;
        std::mutex error_mutex;

        const auto worker = [&]() {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= count)
                    return;
                try {
                    const auto t0 = std::chrono::steady_clock::now();
                    slots[i].emplace(fn(i));
                    const auto t1 = std::chrono::steady_clock::now();
                    TaskPerf &p = perf[i];
                    p.wallSeconds =
                        std::chrono::duration<double>(t1 - t0).count();
                    if (cycles_of != nullptr) {
                        p.simCycles = cycles_of(*slots[i]);
                        if (p.wallSeconds > 0.0)
                            p.cyclesPerSecond =
                                static_cast<double>(p.simCycles) /
                                p.wallSeconds;
                    }
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error)
                        first_error = std::current_exception();
                    // Let the remaining workers drain the queue; the
                    // tasks are independent, so one failure does not
                    // poison the others.
                }
            }
        };

        if (numThreads == 1 || count <= 1) {
            worker();
        } else {
            const unsigned spawn =
                numThreads > count ? static_cast<unsigned>(count)
                                   : numThreads;
            std::vector<std::thread> pool;
            pool.reserve(spawn);
            for (unsigned t = 0; t < spawn; ++t)
                pool.emplace_back(worker);
            for (std::thread &t : pool)
                t.join();
        }

        const auto sweep_end = std::chrono::steady_clock::now();
        wallSeconds_ =
            std::chrono::duration<double>(sweep_end - sweep_start)
                .count();

        if (first_error)
            std::rethrow_exception(first_error);

        std::vector<R> results;
        results.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            damq_assert(slots[i].has_value(),
                        "sweep task ", i, " produced no result");
            results.push_back(std::move(*slots[i]));
        }
        return results;
    }

    /**
     * Degradation-tolerant variant of map(): every task gets up to
     * @p policy.maxAttempts tries and (optionally) a wall-clock
     * budget, and the sweep always returns — failed or timed-out
     * tasks simply leave their slot empty instead of poisoning the
     * whole run.  Per-task dispositions are available from
     * taskOutcomes() afterwards, so benches can flush the partial
     * results and report the casualties.
     */
    template <typename Fn,
              typename R = decltype(std::declval<Fn &>()(std::size_t{0}))>
    std::vector<std::optional<R>>
    mapGuarded(std::size_t count, Fn &&fn, const GuardPolicy &policy,
               std::uint64_t (*cycles_of)(const R &) = nullptr)
    {
        damq_assert(policy.maxAttempts >= 1,
                    "mapGuarded needs at least one attempt");
        const auto sweep_start = std::chrono::steady_clock::now();
        std::vector<std::optional<R>> slots(count);
        perf.assign(count, TaskPerf{});
        outcomes_.assign(count, TaskOutcome{});

        std::atomic<std::size_t> next{0};
        const auto worker = [&]() {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= count)
                    return;
                runGuarded(i, fn, policy, slots[i], outcomes_[i]);
                if (slots[i].has_value() && cycles_of != nullptr) {
                    TaskPerf &p = perf[i];
                    p.simCycles = cycles_of(*slots[i]);
                    if (p.wallSeconds > 0.0)
                        p.cyclesPerSecond =
                            static_cast<double>(p.simCycles) /
                            p.wallSeconds;
                }
            }
        };

        if (numThreads == 1 || count <= 1) {
            worker();
        } else {
            const unsigned spawn =
                numThreads > count ? static_cast<unsigned>(count)
                                   : numThreads;
            std::vector<std::thread> pool;
            pool.reserve(spawn);
            for (unsigned t = 0; t < spawn; ++t)
                pool.emplace_back(worker);
            for (std::thread &t : pool)
                t.join();
        }

        const auto sweep_end = std::chrono::steady_clock::now();
        wallSeconds_ =
            std::chrono::duration<double>(sweep_end - sweep_start)
                .count();
        return slots;
    }

    /** Per-task perf counters of the last map() call, by index. */
    const std::vector<TaskPerf> &taskPerf() const { return perf; }

    /** Per-task dispositions of the last mapGuarded() call. */
    const std::vector<TaskOutcome> &taskOutcomes() const
    {
        return outcomes_;
    }

    /** Wall-clock seconds of the last map() call, fan-out included. */
    double wallSeconds() const { return wallSeconds_; }

  private:
    /** One guarded task: attempts, timeout, outcome bookkeeping. */
    template <typename Fn, typename R>
    void runGuarded(std::size_t i, Fn &fn, const GuardPolicy &policy,
                    std::optional<R> &slot, TaskOutcome &outcome)
    {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint32_t attempt = 1;
             attempt <= policy.maxAttempts; ++attempt) {
            outcome.attempts = attempt;
            if (policy.taskTimeoutSeconds <= 0.0) {
                try {
                    slot.emplace(fn(i));
                    outcome.status = TaskStatus::Ok;
                    outcome.error.clear();
                    break;
                } catch (const std::exception &e) {
                    outcome.status = TaskStatus::Failed;
                    outcome.error = e.what();
                } catch (...) {
                    outcome.status = TaskStatus::Failed;
                    outcome.error = "unknown exception";
                }
                continue;
            }

            // Budgeted attempt: run the body on its own thread and
            // wait at most the budget.  The attempt thread owns a
            // shared state block so a runaway can finish (and be
            // discarded) safely after we have given up on it.
            struct Attempt
            {
                std::mutex m;
                std::condition_variable cv;
                bool done = false;
                std::optional<R> result;
                std::string error;
                bool failed = false;
            };
            auto shared = std::make_shared<Attempt>();
            std::thread([shared, &fn, i]() {
                std::optional<R> local;
                std::string error;
                bool failed = false;
                try {
                    local.emplace(fn(i));
                } catch (const std::exception &e) {
                    failed = true;
                    error = e.what();
                } catch (...) {
                    failed = true;
                    error = "unknown exception";
                }
                {
                    const std::lock_guard<std::mutex> lock(shared->m);
                    shared->result = std::move(local);
                    shared->error = std::move(error);
                    shared->failed = failed;
                    shared->done = true;
                }
                shared->cv.notify_all();
            }).detach();

            std::unique_lock<std::mutex> lock(shared->m);
            const bool finished = shared->cv.wait_for(
                lock,
                std::chrono::duration<double>(
                    policy.taskTimeoutSeconds),
                [&] { return shared->done; });
            if (!finished) {
                // Abandon the attempt; no retry (see GuardPolicy).
                outcome.status = TaskStatus::TimedOut;
                outcome.error.clear();
                break;
            }
            if (!shared->failed) {
                slot = std::move(shared->result);
                outcome.status = TaskStatus::Ok;
                outcome.error.clear();
                break;
            }
            outcome.status = TaskStatus::Failed;
            outcome.error = shared->error;
        }
        const auto t1 = std::chrono::steady_clock::now();
        perf[i].wallSeconds =
            std::chrono::duration<double>(t1 - t0).count();
    }

    unsigned numThreads;
    std::vector<TaskPerf> perf;
    std::vector<TaskOutcome> outcomes_;
    double wallSeconds_ = 0.0;
};

} // namespace damq

#endif // DAMQ_RUNNER_SWEEP_RUNNER_HH
