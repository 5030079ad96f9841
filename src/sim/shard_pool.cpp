#include "sim/shard_pool.hpp"

#include "common/logging.hpp"

namespace iadm::sim {

ShardPool::ShardPool(unsigned shards) : shards_(shards)
{
    IADM_ASSERT(shards >= 2,
                "a ShardPool needs at least 2 shards; shards=1 is "
                "the serial path and must not construct one");
    threads_.reserve(shards - 1);
    for (unsigned k = 1; k < shards; ++k)
        threads_.emplace_back([this, k] { workerLoop(k); });
}

ShardPool::~ShardPool()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
        ++generation_;
    }
    cvStart_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ShardPool::dispatch(Job job, const void *fn)
{
    {
        std::lock_guard<std::mutex> lk(m_);
        IADM_ASSERT(job_ == nullptr, "ShardPool::run is not reentrant");
        job_ = job;
        fn_ = fn;
        remaining_ = shards_ - 1;
        ++generation_;
    }
    cvStart_.notify_all();
    job(fn, 0); // the caller is shard 0
    std::unique_lock<std::mutex> lk(m_);
    cvDone_.wait(lk, [this] { return remaining_ == 0; });
    job_ = nullptr;
}

void
ShardPool::workerLoop(unsigned shard)
{
    std::uint64_t seen = 0;
    for (;;) {
        Job job;
        const void *fn;
        {
            std::unique_lock<std::mutex> lk(m_);
            cvStart_.wait(lk,
                          [&] { return generation_ != seen; });
            seen = generation_;
            if (stop_)
                return;
            job = job_;
            fn = fn_;
        }
        job(fn, shard);
        {
            std::lock_guard<std::mutex> lk(m_);
            if (--remaining_ == 0)
                cvDone_.notify_one();
        }
    }
}

} // namespace iadm::sim
