/**
 * @file
 * Persistent worker-thread pool for intra-simulation sharding.
 *
 * One NetworkSim with SimConfig::shards == S owns one ShardPool of
 * S - 1 parked worker threads; the calling thread acts as shard 0.
 * run(fn) invokes fn(k) once for every shard k in [0, S) and
 * returns only when all invocations have finished — a dispatch
 * barrier, not a task queue.  The simulator calls run() once per
 * cycle, for the injection fill + build blocks, so workers park on
 * a condition variable between dispatches instead of being
 * respawned (thread creation would dominate the work at small N).
 * run() takes the callable by reference and never copies it, so a
 * dispatch performs no heap allocation.
 *
 * The pool provides the synchronization edges the sharded step
 * relies on: everything written before run() is visible to every
 * shard, and everything any shard wrote is visible to the caller
 * after run() returns.  Determinism is the caller's job — shards
 * must partition their writes (docs/SIMULATOR.md, "Determinism").
 */

#ifndef IADM_SIM_SHARD_POOL_HPP
#define IADM_SIM_SHARD_POOL_HPP

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace iadm::sim {

/** Barrier-style dispatch pool; shard 0 runs on the caller. */
class ShardPool
{
  public:
    /** Spawn @p shards - 1 parked workers (shards must be >= 2). */
    explicit ShardPool(unsigned shards);
    ~ShardPool();

    ShardPool(const ShardPool &) = delete;
    ShardPool &operator=(const ShardPool &) = delete;

    unsigned shards() const { return shards_; }

    /**
     * Invoke @p fn(k) for every shard k in [0, shards()) — k == 0
     * on the calling thread — and wait for all of them to finish.
     * Not reentrant; one dispatch at a time.
     */
    template <class Fn>
    void
    run(const Fn &fn)
    {
        dispatch(
            [](const void *f, unsigned k) {
                (*static_cast<const Fn *>(f))(k);
            },
            &fn);
    }

  private:
    /** Type-erased job: calls the run() callable at @p f. */
    using Job = void (*)(const void *f, unsigned shard);

    void dispatch(Job job, const void *fn);
    void workerLoop(unsigned shard);

    unsigned shards_;
    std::vector<std::thread> threads_;
    std::mutex m_;
    std::condition_variable cvStart_;
    std::condition_variable cvDone_;
    Job job_ = nullptr;
    const void *fn_ = nullptr;
    std::uint64_t generation_ = 0; //!< bumps per dispatch (and stop)
    unsigned remaining_ = 0;       //!< workers still in flight
    bool stop_ = false;
};

} // namespace iadm::sim

#endif // IADM_SIM_SHARD_POOL_HPP
