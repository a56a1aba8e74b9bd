/**
 * @file
 * Work-stealing thread pool for the experiment-orchestration engine.
 *
 * Each worker owns a deque: it pushes and pops its own work at the
 * back and, when empty, steals from the front of a sibling's deque
 * (oldest task first), so large task batches spread across cores with
 * minimal contention. The pool executes tasks in an unspecified order
 * — callers that need deterministic output must make each task
 * independent and write to a pre-assigned slot (see engine.cc).
 *
 * `jobs == 1` is special-cased everywhere above this layer: the
 * serial path never constructs a pool, so single-job runs are exactly
 * the legacy code path with no threads involved.
 */

#ifndef PHOENIX_EXP_POOL_H
#define PHOENIX_EXP_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace phoenix::exp {

/** Resolve a --jobs value: 0 means hardware_concurrency (min 1). */
int resolveJobs(int jobs);

/** Fixed-size work-stealing pool. Tasks must not throw. */
class WorkStealingPool
{
  public:
    /** Spawn @p threads workers (at least 1). */
    explicit WorkStealingPool(int threads);

    /** Drains remaining work, then joins all workers. */
    ~WorkStealingPool();

    WorkStealingPool(const WorkStealingPool &) = delete;
    WorkStealingPool &operator=(const WorkStealingPool &) = delete;

    /**
     * Enqueue a task. Tasks submitted from a worker thread go to that
     * worker's own deque (depth-first, cache-friendly); external
     * submissions are dealt round-robin across workers.
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    int threadCount() const { return static_cast<int>(workers_.size()); }

  private:
    struct Worker
    {
        std::deque<std::function<void()>> tasks;
        std::mutex mutex;
    };

    void workerLoop(size_t self);
    bool popOwn(size_t self, std::function<void()> &task);
    bool steal(size_t self, std::function<void()> &task);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    std::mutex stateMutex_;
    std::condition_variable workAvailable_;
    std::condition_variable allDone_;
    size_t pending_ = 0; // submitted but not yet finished
    size_t nextWorker_ = 0;
    bool stopping_ = false;
};

/**
 * Run fn(i) for every i in [0, count) on @p jobs threads (resolved via
 * resolveJobs). jobs == 1 runs serially on the calling thread with no
 * pool; otherwise each index is one stealable task. Returns the
 * resolved job count actually used.
 */
int parallelFor(int jobs, size_t count,
                const std::function<void(size_t)> &fn);

} // namespace phoenix::exp

#endif // PHOENIX_EXP_POOL_H
