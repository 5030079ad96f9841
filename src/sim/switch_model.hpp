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
 * Packet slab with power-of-two ring indexing (head/tail are
 * free-running counters, wrap is a mask), so the steady-state hot
 * path performs no heap allocation and queue metadata stays
 * cache-resident.  SwitchQueue is the standalone single-queue
 * equivalent for callers that need just one FIFO.
 *
 * Concurrency contract (intra-simulation sharding,
 * docs/SIMULATOR.md): QueueArena is not thread-safe as a whole, but
 * every element it stores — a head_/tail_ cursor pair and the slab
 * slots of one queue — belongs to exactly one queue, so concurrent
 * access is safe as long as no two threads touch the *same* queue.
 * The sharded injector relies on this: each fill + build block
 * builds packets only into the stage-0 queues of its own attempts'
 * sources, which are distinct within a cycle.  There are no
 * arena-global mutable members to race on (slots_/mask_ are set at
 * construction).
 */

#ifndef IADM_SIM_SWITCH_MODEL_HPP
#define IADM_SIM_SWITCH_MODEL_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/packet.hpp"

namespace iadm::sim {

namespace detail {

/** Smallest power of two >= max(v, 1). */
constexpr std::uint32_t
ringSlots(std::size_t v)
{
    std::uint32_t s = 1;
    while (s < v)
        s <<= 1;
    return s;
}

} // namespace detail

/** Bounded FIFO of packets attached to one switch (ring buffer). */
class SwitchQueue
{
  public:
    explicit SwitchQueue(std::size_t capacity = 4)
        : ring_(detail::ringSlots(capacity)),
          mask_(detail::ringSlots(capacity) - 1),
          capacity_(capacity)
    {
    }

    bool full() const { return size() >= capacity_; }
    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }
    std::size_t capacity() const { return capacity_; }

    /** Enqueue; returns false when full. */
    bool
    push(Packet p)
    {
        if (full())
            return false;
        ring_[tail_++ & mask_] = std::move(p);
        return true;
    }

    /** The head packet (queue must be nonempty). */
    Packet &front();
    const Packet &front() const;

    /** Remove and return the head packet. */
    Packet pop();

  private:
    std::vector<Packet> ring_;
    std::uint32_t head_ = 0; //!< free-running; index is head_ & mask_
    std::uint32_t tail_ = 0;
    std::uint32_t mask_;
    std::size_t capacity_;
};

/**
 * All stages x N switch queues of one simulator in a single
 * contiguous Packet slab.
 *
 * Queue q = stage * N + j owns slots
 * [q << slotShift, (q + 1) << slotShift); its ring position is the
 * free-running head/tail counter masked by (slots - 1).  Every
 * operation is O(1) with no allocation; the per-queue metadata
 * (head_, tail_) lives in two flat arrays so the per-cycle
 * service scan touches memory sequentially.
 */
class QueueArena
{
  public:
    QueueArena() = default;

    QueueArena(unsigned stages, Label n_size, std::size_t capacity)
        : slots_(detail::ringSlots(capacity)),
          mask_(slots_ - 1),
          shift_(0),
          cap_(capacity),
          queues_(static_cast<std::size_t>(stages) * n_size),
          n_(n_size)
    {
        while ((std::uint32_t{1} << shift_) < slots_)
            ++shift_;
        slab_.resize(queues_ * slots_);
        head_.assign(queues_, 0);
        tail_.assign(queues_, 0);
    }

    /** Queue id of switch @p j at stage @p stage. */
    std::size_t
    qid(unsigned stage, Label j) const
    {
        return static_cast<std::size_t>(stage) * n_ + j;
    }

    std::size_t capacity() const { return cap_; }
    std::size_t queueCount() const { return queues_; }

    bool empty(std::size_t q) const { return head_[q] == tail_[q]; }
    bool full(std::size_t q) const { return size(q) >= cap_; }

    std::size_t
    size(std::size_t q) const
    {
        return tail_[q] - head_[q];
    }

    Packet &
    front(std::size_t q)
    {
        return slab_[(q << shift_) + (head_[q] & mask_)];
    }

    /** Enqueue; returns false when full. */
    bool
    push(std::size_t q, Packet &&p)
    {
        if (full(q))
            return false;
        slab_[(q << shift_) + (tail_[q]++ & mask_)] = std::move(p);
        return true;
    }

    /**
     * Claim the tail slot of @p q for in-place construction (the
     * caller must have checked the queue is not full) and return
     * it; the slot still holds a stale packet to overwrite.
     */
    Packet &
    emplaceBack(std::size_t q)
    {
        return slab_[(q << shift_) + (tail_[q]++ & mask_)];
    }

    /** Remove and return the head packet (queue must be nonempty). */
    Packet
    pop(std::size_t q)
    {
        return std::move(slab_[(q << shift_) + (head_[q]++ & mask_)]);
    }

    /** Discard the head packet without copying it out. */
    void dropFront(std::size_t q) { ++head_[q]; }

    /**
     * Move the head of @p src to the tail of @p dst in one
     * slab-to-slab assignment (no intermediate Packet).  The caller
     * must have checked that src is nonempty and dst is not full.
     */
    void
    moveFront(std::size_t src, std::size_t dst)
    {
        slab_[(dst << shift_) + (tail_[dst]++ & mask_)] = std::move(
            slab_[(src << shift_) + (head_[src]++ & mask_)]);
    }

    /**
     * Hint the head (pop side) or tail (push side) slot of @p q
     * into cache ahead of use; Packet spans two cache lines.
     */
    void
    prefetchFront(std::size_t q) const
    {
        const auto *p = reinterpret_cast<const char *>(
            &slab_[(q << shift_) + (head_[q] & mask_)]);
        __builtin_prefetch(p);
        __builtin_prefetch(p + 64);
        __builtin_prefetch(p + sizeof(Packet) - 1);
    }

    void
    prefetchTail(std::size_t q)
    {
        auto *p = reinterpret_cast<char *>(
            &slab_[(q << shift_) + (tail_[q] & mask_)]);
        __builtin_prefetch(p, 1);
        __builtin_prefetch(p + 64, 1);
        __builtin_prefetch(p + sizeof(Packet) - 1, 1);
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

  private:
    std::vector<Packet> slab_;          //!< queues x slots packets
    std::vector<std::uint32_t> head_;   //!< free-running per queue
    std::vector<std::uint32_t> tail_;
    std::uint32_t slots_ = 0; //!< physical ring slots (power of two)
    std::uint32_t mask_ = 0;
    unsigned shift_ = 0;      //!< log2(slots_)
    std::size_t cap_ = 0;     //!< logical capacity (<= slots_)
    std::size_t queues_ = 0;
    Label n_ = 0;
};

} // namespace iadm::sim

#endif // IADM_SIM_SWITCH_MODEL_HPP
