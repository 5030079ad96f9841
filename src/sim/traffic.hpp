/**
 * @file
 * Traffic patterns for the packet-switched simulation: the
 * TrafficPattern interface and the destination sources that
 * ScenarioSpec::make (sim/scenario.hpp) composes.  A ScenarioSpec is
 * the one traffic description — front ends, sweeps and benches
 * parse, validate and build traffic through it, and load shapers
 * (bursts, ramps, closed-loop windows) exist only as its clauses.
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
