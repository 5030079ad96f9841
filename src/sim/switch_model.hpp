/**
 * @file
 * Queued switch model for the packet-switched IADM simulation.
 *
 * Each switch of each stage owns one FIFO input queue of bounded
 * capacity.  The IADM switch "selects one of its input links and
 * connects it to one or more of its output links" — modeled as: per
 * cycle, a switch forwards at most one packet and accepts at most
 * one packet (the Gamma network's 3x3 crossbar switches lift the
 * acceptance restriction).
 *
 * Storage is ring buffers, never node-based containers: QueueArena
 * packs all stages x N queues of a simulator into one contiguous
 * ring of 32-bit packet handles with power-of-two indexing
 * (head/tail are free-running counters, wrap is a mask).  A handle
 * names a packet in the arena's pool; packets stay put in the pool
 * while their handles move from queue to queue, so a hop moves 4
 * bytes, not a 96-byte Packet.  The pool is reserved up front for
 * every packet that can be live at once, so the steady-state hot
 * path performs no heap allocation.  QueueArena is not
 * thread-safe: one simulator owns it and steps it on one thread.
 */

#ifndef IADM_SIM_SWITCH_MODEL_HPP
#define IADM_SIM_SWITCH_MODEL_HPP

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "sim/packet.hpp"

namespace iadm::sim {

/**
 * All stages x N switch queues of one simulator: one contiguous
 * ring of packet handles plus the packet pool they index.
 *
 * Queue q = stage * N + j owns ring slots
 * [q << slotShift, (q + 1) << slotShift); its ring position is the
 * free-running head/tail counter masked by (slots - 1).  Every
 * operation is O(1) with no allocation; the per-queue metadata
 * (head_, tail_) lives in two flat arrays so the per-cycle
 * service scan touches memory sequentially.
 *
 * The pool is reserved for stages x N x capacity packets (every
 * queue full), and packets are constructed in it one at a time on
 * first use, so it is never value-initialized as a whole and pages
 * nobody touches cost no memory.  Released handles go on a LIFO
 * free list: a just-delivered packet's cache-hot storage is the
 * next packet built.
 */
class QueueArena
{
  public:
    /** Index of a packet in the arena's pool. */
    using Handle = std::uint32_t;

    /**
     * Deepest queue an arena accepts.  The experiments use 2-8
     * slots; the bound keeps ring sizes far below the 2^32 that the
     * free-running head/tail counters wrap at, and the ring at most
     * stages x N x 1024 handles.  NetworkSim and `iadm_tool sweep
     * --caps` reject capacities outside [1, kMaxCapacity].
     */
    static constexpr std::size_t kMaxCapacity = 1024;

    QueueArena(unsigned stages, Label n_size, std::size_t capacity)
        : cap_(capacity),
          queues_(static_cast<std::size_t>(stages) * n_size),
          n_(n_size)
    {
        IADM_ASSERT(capacity >= 1 && capacity <= kMaxCapacity,
                    "queue capacity ", capacity, " outside [1, ",
                    kMaxCapacity, "]");
        const std::size_t slots = std::bit_ceil(capacity);
        mask_ = static_cast<std::uint32_t>(slots - 1);
        shift_ = static_cast<unsigned>(std::countr_zero(slots));
        ring_.resize(queues_ << shift_);
        head_.assign(queues_, 0);
        tail_.assign(queues_, 0);
        poolCap_ = queues_ * capacity;
        IADM_ASSERT(poolCap_ <= std::numeric_limits<Handle>::max(),
                    "packet pool of ", poolCap_,
                    " exceeds 32-bit handles");
        // One plain allocation, aligned by hand: an over-aligned
        // allocation splits heap chunks, and a process that builds
        // simulators in turn then fragments its heap.
        poolMem_.reset(new unsigned char[poolCap_ * sizeof(Packet) +
                                         kLine - 1]);
        pool_ = reinterpret_cast<Packet *>(
            (reinterpret_cast<std::uintptr_t>(poolMem_.get()) +
             kLine - 1) &
            ~std::uintptr_t{kLine - 1});
        free_.reset(new Handle[poolCap_]);
#ifdef IADM_SANITIZE_BUILD
        released_.assign(poolCap_, false);
#endif
    }

    /** Queue id of switch @p j at stage @p stage. */
    std::size_t
    qid(unsigned stage, Label j) const
    {
        return static_cast<std::size_t>(stage) * n_ + j;
    }

    bool empty(std::size_t q) const { return head_[q] == tail_[q]; }
    bool full(std::size_t q) const { return size(q) >= cap_; }

    std::size_t
    size(std::size_t q) const
    {
        return tail_[q] - head_[q];
    }

    Packet &front(std::size_t q) { return pool_[ring_[headSlot(q)]]; }

    /** The packet @p h names. */
    Packet &packet(Handle h) { return pool_[h]; }

    /**
     * Take a free handle: the most recently released one, else the
     * pool's next never-used packet.  Its packet holds stale
     * contents to overwrite.
     */
    Handle
    claim()
    {
        if (freeCount_ != 0) {
            const Handle h = free_[--freeCount_];
#ifdef IADM_SANITIZE_BUILD
            released_[h] = false;
#endif
            return h;
        }
        IADM_ASSERT(poolBuilt_ < poolCap_, "packet pool exhausted at ",
                    poolBuilt_);
        ::new (pool_ + poolBuilt_) Packet;
        return static_cast<Handle>(poolBuilt_++);
    }

    /** Return @p h to the free list. */
    void
    release(Handle h)
    {
#ifdef IADM_SANITIZE_BUILD
        IADM_ASSERT(h < poolBuilt_ && !released_[h],
                    "packet handle ", h, " released twice");
        released_[h] = true;
#endif
        free_[freeCount_++] = h;
    }

    /**
     * Claim a handle, append it to @p q (the caller must have
     * checked the queue is not full) and return its packet for
     * in-place construction; it holds stale contents to overwrite.
     */
    Packet &
    emplaceBack(std::size_t q)
    {
        const Handle h = claim();
        pushHandle(q, h);
        return pool_[h];
    }

    /** Enqueue; returns false when full. */
    bool
    push(std::size_t q, Packet &&p)
    {
        if (full(q))
            return false;
        emplaceBack(q) = std::move(p);
        return true;
    }

    /** Remove and return the head packet (queue must be nonempty). */
    Packet
    pop(std::size_t q)
    {
        const Handle h = ring_[headSlot(q)];
        ++head_[q];
        Packet p = std::move(pool_[h]);
        release(h);
        return p;
    }

    /** Discard the head packet, releasing its handle.  Always
     *  inlined, like moveFront: every hop ends in one of the two. */
    [[gnu::always_inline]] void
    dropFront(std::size_t q)
    {
        release(ring_[headSlot(q)]);
        ++head_[q];
    }

    /**
     * Move the head of @p src to the tail of @p dst: one handle
     * changes rings and the packet stays where it is.  The caller
     * must have checked that src is nonempty and dst is not full.
     */
    [[gnu::always_inline]] void
    moveFront(std::size_t src, std::size_t dst)
    {
        pushHandle(dst, ring_[headSlot(src)]);
        ++head_[src];
    }

    /**
     * Hint the head packet of @p q into cache ahead of use: follow
     * its handle to the packet's two cache lines.
     */
    void
    prefetchFront(std::size_t q) const
    {
        const auto *p =
            reinterpret_cast<const char *>(&pool_[ring_[headSlot(q)]]);
        __builtin_prefetch(p);
        __builtin_prefetch(p + kLine);
    }

    /** Hint the tail ring word of @p q (the push side) for write. */
    void
    prefetchTail(std::size_t q)
    {
        __builtin_prefetch(&ring_[(q << shift_) + (tail_[q] & mask_)],
                           1);
    }

    /** Packets across every queue — O(queues) scan, not hot-path. */
    std::size_t
    totalSize() const
    {
        std::size_t total = 0;
        for (std::size_t q = 0; q < queues_; ++q)
            total += size(q);
        return total;
    }

    /** Handles claimed and not released (sanity checks, tests). */
    std::size_t
    liveHandles() const
    {
        return poolBuilt_ - freeCount_;
    }

    /** Packets the pool has ever built: the live high-water mark. */
    std::size_t poolSize() const { return poolBuilt_; }

  private:
    /** Append claimed handle @p h to the tail of @p q. */
    void
    pushHandle(std::size_t q, Handle h)
    {
        ring_[(q << shift_) + (tail_[q]++ & mask_)] = h;
    }

    /** Cache line size; pooled packets start 0 or 32 bytes into a
     *  line, so each spans exactly two. */
    static constexpr std::size_t kLine = 64;
    static_assert(sizeof(Packet) % (kLine / 2) == 0);
    // Pooled packets are never destroyed, only overwritten.
    static_assert(std::is_trivially_destructible_v<Packet>);

    std::size_t
    headSlot(std::size_t q) const
    {
        return (q << shift_) + (head_[q] & mask_);
    }

    std::vector<Handle> ring_;        //!< queues x slots handles
    std::vector<std::uint32_t> head_; //!< free-running per queue
    std::vector<std::uint32_t> tail_;
    std::unique_ptr<unsigned char[]> poolMem_; //!< pool storage
    Packet *pool_ = nullptr;    //!< kLine-aligned within poolMem_
    std::size_t poolBuilt_ = 0; //!< packets constructed so far
    std::size_t poolCap_ = 0;   //!< packets poolMem_ holds
    /** LIFO free list: every handle fits, so a release never grows
     *  it (and the hop path carries no vector growth code). */
    std::unique_ptr<Handle[]> free_;
    std::size_t freeCount_ = 0; //!< handles on free_
#ifdef IADM_SANITIZE_BUILD
    std::vector<bool> released_; //!< handle is on free_
#endif
    std::uint32_t mask_ = 0;  //!< physical ring slots - 1
    unsigned shift_ = 0;      //!< log2(physical ring slots)
    std::size_t cap_ = 0;     //!< logical capacity (<= slots)
    std::size_t queues_ = 0;
    Label n_ = 0;
};

} // namespace iadm::sim

#endif // IADM_SIM_SWITCH_MODEL_HPP
