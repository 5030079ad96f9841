/**
 * @file
 * Traffic patterns for the packet-switched simulation.
 *
 * Concurrency contract: the simulator invokes every mutating hook —
 * gate(), pick(), beginCycle(), onInject(), onRetire() — from serial
 * code only, at any shard count.  gate/pick/beginCycle run in the
 * injection draw phase (the RNG stream must not depend on the shard
 * count); onInject fires from the serial injection commit; and
 * onRetire fires from the service loop, which is always serial.
 * Only the injection fill + build phase runs on shard threads, and
 * it calls no hook.  Patterns may therefore keep plain per-source
 * state, but that state must be per-source *bytes or wider* — never
 * std::vector<bool>, whose packed words would make any future
 * concurrent use a data race by construction.
 */

#ifndef IADM_SIM_TRAFFIC_HPP
#define IADM_SIM_TRAFFIC_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "perm/permutation.hpp"
#include "sim/packet.hpp"

namespace iadm::sim {

/** Chooses a destination for each newly injected packet. */
class TrafficPattern
{
  public:
    virtual ~TrafficPattern() = default;
    virtual Label pick(Label src, Rng &rng) = 0;
    virtual std::string name() const = 0;

    /**
     * Source-side admission gate, consulted once per source per
     * cycle before the rate draw; patterns with temporal structure
     * (bursts, ramps, closed-loop windows) override it.  Default:
     * always open.  Implementations must draw the same number of
     * random values per call regardless of the outcome, so serial
     * and sharded runs stay stream-identical.
     */
    virtual bool
    gate(Label, Rng &)
    {
        return true;
    }

    /**
     * True when gate() may return false or advance state (and so
     * must really be called every cycle).  Patterns whose gate is
     * the always-open default override this to false, letting the
     * simulator skip N virtual calls per cycle; a gate that draws
     * no randomness is stream-identical whether called or skipped.
     */
    virtual bool
    gated() const
    {
        return true;
    }

    /**
     * Called once at the top of each injection cycle (before any
     * gate() call of that cycle), but only when gated() is true.
     * Time-varying shapers (rate ramps) update their per-cycle
     * state here instead of per source.
     */
    virtual void beginCycle(Cycle) {}

    /**
     * True when the pattern needs injection/retirement feedback
     * (closed-loop load).  The simulator then calls onInject /
     * onRetire, both from serial code (see the file comment).
     */
    virtual bool
    closedLoop() const
    {
        return false;
    }

    /** A packet from @p src entered the network (enqueued). */
    virtual void onInject(Label) {}

    /** A packet from @p src left it (delivered or dropped). */
    virtual void onRetire(Label) {}
};

/** Uniformly random destinations. */
class UniformTraffic : public TrafficPattern
{
  public:
    explicit UniformTraffic(Label n_size) : nSize_(n_size) {}
    Label pick(Label src, Rng &rng) override;
    std::string name() const override { return "uniform"; }
    bool gated() const override { return false; }

  private:
    Label nSize_;
};

/** Fixed permutation traffic (each source always sends to p(src)). */
class PermutationTraffic : public TrafficPattern
{
  public:
    explicit PermutationTraffic(perm::Permutation p)
        : perm_(std::move(p)) {}
    Label pick(Label src, Rng &rng) override;
    std::string name() const override { return "permutation"; }
    bool gated() const override { return false; }

  private:
    perm::Permutation perm_;
};

/**
 * Hotspot traffic: with probability @p hot_fraction the destination
 * is the hot node, otherwise uniform.
 */
class HotspotTraffic : public TrafficPattern
{
  public:
    HotspotTraffic(Label n_size, Label hot, double hot_fraction)
        : nSize_(n_size), hot_(hot), hotFraction_(hot_fraction) {}
    Label pick(Label src, Rng &rng) override;
    std::string name() const override { return "hotspot"; }
    bool gated() const override { return false; }

  private:
    Label nSize_;
    Label hot_;
    double hotFraction_;
};

/**
 * Bursty traffic: uniform destinations modulated by a per-source
 * two-state (on/off) Markov chain with expected burst and idle
 * lengths; the chain advances in gate(), called once per source
 * per cycle.  gate() draws exactly one random value per call
 * whatever the state, so the stream is shard-count independent.
 */
class BurstyTraffic : public TrafficPattern
{
  public:
    BurstyTraffic(Label n_size, double burst_len, double idle_len);

    Label pick(Label src, Rng &rng) override;
    std::string name() const override { return "bursty"; }
    bool gate(Label src, Rng &rng) override;

    /** Long-run fraction of time a source is ON. */
    double dutyCycle() const;

  private:
    Label nSize_;
    double pOnToOff_; //!< 1 / burst length
    double pOffToOn_; //!< 1 / idle length
    /** Per-source chain state, one byte per source (see the file
     *  header: never std::vector<bool> — adjacent sources must not
     *  share a word). */
    std::vector<std::uint8_t> on_;
};

/** Bit-reversal permutation traffic (a classic cube stressor). */
std::unique_ptr<TrafficPattern> makeBitReversalTraffic(Label n_size);

/** Matrix-transpose permutation traffic (n even). */
std::unique_ptr<TrafficPattern> makeTransposeTraffic(Label n_size);

/** Uniform-shift ("tornado"-style) permutation traffic. */
std::unique_ptr<TrafficPattern> makeShiftTraffic(Label n_size,
                                                 Label shift);

} // namespace iadm::sim

#endif // IADM_SIM_TRAFFIC_HPP
