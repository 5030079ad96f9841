/**
 * @file
 * Composable traffic scenarios: a Click-style mini-grammar that
 * wires one destination source together with a stack of load
 * shapers into a single TrafficPattern (docs/SIMULATOR.md,
 * "Scenario grammar").
 *
 * A spec is a '/'-separated list of clauses, each `role:kind:args`:
 *
 *   dst:uniform                       uniform destinations
 *   dst:hotspot:0+5+9:0.3             hot node set ('+'-separated)
 *                                     and hot fraction
 *   dst:perm:shift:4                  permutation family: shift,
 *   dst:perm:bitrev                   bitrev, transpose, complement
 *   dst:perm:complement:63            (xor mask), shuffle,
 *   dst:perm:shuffle                  exchange (cube dimension)
 *   dst:perm:exchange:2
 *   dst:adversarial                   greedy link-overlap-maximizing
 *                                     worst-case permutation
 *   dst:mcast:4:8                     multicast storm: 4 groups of 8
 *                                     destinations, sources cycle
 *                                     through their group's
 *                                     multicast-tree delivery order
 *   shape:bursty:16:64                on/off Markov bursts (expected
 *                                     burst / idle lengths)
 *   shape:ramp:0.1:0.9:2000           rate factor ramping linearly
 *                                     from 0.1x to 0.9x of the
 *                                     configured injection rate over
 *                                     2000 cycles, then holding
 *   shape:closed:4                    closed-loop load: at most 4
 *                                     outstanding packets per source
 *                                     (pins the simulator serial)
 *
 * At most one dst clause; any number of shapers, gated in clause
 * order (every shaper's gate runs every cycle — no short-circuit —
 * so the RNG draw order is pinned).  Additional shapers after the
 * first canonically print as `over:`; parse treats `shape:` and
 * `over:` identically.  Bare atoms ("uniform", "hotspot:0:0.2",
 * "bitrev", "transpose", "shift:K", "mcast:G:F", ...) and the short
 * shaper form "bursty:B:I" are accepted as sugar.  The first four
 * are also canonical: they are the names of the unshaped specs of
 * those destinations (ScenarioSpec::name).
 */

#ifndef IADM_SIM_SCENARIO_HPP
#define IADM_SIM_SCENARIO_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/traffic.hpp"

namespace iadm::sim {

/** The destination source (the `dst:` clause). */
struct DstSpec
{
    enum class Kind : std::uint8_t
    {
        Uniform,
        Hotspot,     //!< hotFraction of traffic to the hot set
        Perm,        //!< fixed permutation from the family below
        Adversarial, //!< greedy congestion-maximizing permutation
        Multicast,   //!< group storms over multicast-tree orders
    };

    enum class PermFamily : std::uint8_t
    {
        Shift,
        BitReversal,
        Transpose,
        Complement, //!< u -> u ^ mask
        Shuffle,    //!< perfect shuffle (label left-rotate)
        Exchange,   //!< u -> u ^ 2^k
    };

    Kind kind = Kind::Uniform;
    std::vector<Label> hotNodes;            //!< Hotspot
    double hotFraction = 0.2;               //!< Hotspot
    PermFamily perm = PermFamily::Shift;    //!< Perm
    Label permArg = 1; //!< shift distance / xor mask / dimension
    std::uint32_t groups = 4;               //!< Multicast
    std::uint32_t fanout = 8;               //!< Multicast

    bool operator==(const DstSpec &) const = default;
};

/** One load shaper (`shape:` / `over:` clause). */
struct ShaperSpec
{
    enum class Kind : std::uint8_t
    {
        Bursty, //!< per-source on/off Markov chain
        Ramp,   //!< time-varying multiplicative rate factor
        Closed, //!< per-source outstanding-packet window
    };

    Kind kind = Kind::Bursty;
    double burstLen = 16.0;          //!< Bursty: expected ON run
    double idleLen = 64.0;           //!< Bursty: expected OFF run
    double rampFrom = 0.1;           //!< Ramp: initial factor
    double rampTo = 1.0;             //!< Ramp: final factor
    std::uint64_t rampCycles = 1000; //!< Ramp: cycles to rampTo
    std::uint32_t window = 1;        //!< Closed: outstanding cap

    bool operator==(const ShaperSpec &) const = default;
};

/**
 * A parsed scenario: one destination source plus a shaper stack.
 * Equality is structural, so ScenarioSpec works as a sweep-axis
 * value exactly like the other axis spec types.
 */
struct ScenarioSpec
{
    DstSpec dst;
    std::vector<ShaperSpec> shapers;

    /**
     * Canonical spelling: shapers first (`shape:` then `over:`),
     * destination last, e.g.
     * "shape:ramp:0.1:0.9:2000/over:bursty:16:64/dst:hotspot:0:0.2".
     * One rule keeps the pre-grammar report names: a spec with no
     * shapers whose destination is uniform, a one-node hotspot,
     * bitrev or transpose prints as "uniform", "hotspot:N:F",
     * "bitrev" or "transpose" (the golden fixtures freeze these).
     * Re-parsing the canonical name yields an equal spec.
     */
    std::string name() const;

    /** Parse the grammar (incl. sugar); nullopt on bad input.
     *  N-independent range checks happen here. */
    static std::optional<ScenarioSpec> parse(const std::string &spec);

    /**
     * N-dependent validation (hot nodes < N, shift < N, transpose
     * needs an even bit count, ...).  nullopt when valid, else a
     * one-line diagnostic suitable for a CLI error message.
     */
    std::optional<std::string> validate(Label n_size) const;

    /**
     * Materialize the pattern.  Fails fatally on a spec that
     * validate(n_size) rejects — CLI front ends must validate first
     * and exit 2 with the diagnostic.
     */
    std::unique_ptr<TrafficPattern> make(Label n_size) const;

    bool operator==(const ScenarioSpec &) const = default;
};

/**
 * The greedy worst-case permutation `dst:adversarial` materializes:
 * sources are assigned (in ascending order) the unused destination
 * whose initial-tag path overlaps the already-loaded links most.
 * Deterministic; exposed for tests.
 */
perm::Permutation adversarialPerm(Label n_size);

} // namespace iadm::sim

#endif // IADM_SIM_SCENARIO_HPP
