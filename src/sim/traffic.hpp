/**
 * @file
 * Traffic patterns for the packet-switched simulation: the
 * TrafficPattern interface and the destination sources that
 * ScenarioSpec::make (sim/scenario.hpp) composes.  A ScenarioSpec is
 * the one traffic description — front ends, sweeps and benches
 * parse, validate and build traffic through it, and load shapers
 * (bursts, ramps, closed-loop windows) exist only as its clauses.
 *
 * Injection contract: the simulator's injection is one pass over
 * the sources in ascending order, and each source finishes —
 * gate(), then pick(), then onInject() if its packet entered —
 * before the next source's gate() runs; onRetire() fires from the
 * service loop.  A source's onInject() may therefore change only
 * state that no other source's gate() or pick() reads in the same
 * cycle: hooks keep per-source state, indexed by the source label
 * they are given.  State shared across sources would let one
 * source's injection steer a later source's draws and tie the
 * random stream to the injection order.
 */

#ifndef IADM_SIM_TRAFFIC_HPP
#define IADM_SIM_TRAFFIC_HPP

#include <cstdint>
#include <memory>
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

    /**
     * Source-side admission gate, consulted once per source per
     * cycle before the rate draw; patterns with temporal structure
     * (bursts, ramps, closed-loop windows) override it.  Default:
     * always open.  Implementations must draw the same number of
     * random values per call regardless of the outcome, so the
     * random stream does not depend on the gate's state.
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
     * onRetire (see the file comment).
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
    bool gated() const override { return false; }

  private:
    perm::Permutation perm_;
};

/**
 * Hotspot traffic: with probability @p hot_fraction the destination
 * is drawn uniformly from the hot set, otherwise uniformly from all
 * N.  A one-node set skips the index draw, so its stream is one
 * chance() then at most one uniform(N) per pick — the stream the
 * golden fixtures pin for `hotspot:N:F`.
 */
class HotspotTraffic : public TrafficPattern
{
  public:
    HotspotTraffic(Label n_size, std::vector<Label> hot,
                   double hot_fraction)
        : nSize_(n_size), hot_(std::move(hot)),
          hotFraction_(hot_fraction)
    {
    }
    Label pick(Label src, Rng &rng) override;
    bool gated() const override { return false; }

  private:
    Label nSize_;
    std::vector<Label> hot_;
    double hotFraction_;
};

} // namespace iadm::sim

#endif // IADM_SIM_TRAFFIC_HPP
