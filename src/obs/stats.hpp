/**
 * @file
 * StatsRegistry: a named-counter/histogram registry in the gem5
 * spirit (matching common/logging.hpp's role for messages).
 *
 * Components export their counters under dotted hierarchical names
 * ("sim.delivered", "sim.fault_downs", "sim.stalls_by_stage"), and
 * every consumer — sweep JSON, iadm_tool sim, future dashboards —
 * renders the one registry instead of hand-plumbing each new field
 * through every report writer.  Naming scheme and conventions are
 * documented in docs/OBSERVABILITY.md.
 *
 * The registry is a snapshot container: providers dump values into
 * it after a run (Metrics::exportStats),
 * order of registration is preserved, and the JSON/text renderings
 * are deterministic — a registry built from deterministic metrics is
 * itself byte-stable, so sweep reports keep their reproducibility
 * guarantee with the stats section enabled.
 */

#ifndef IADM_OBS_STATS_HPP
#define IADM_OBS_STATS_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace iadm {
class JsonWriter;
}

namespace iadm::obs {

/** Ordered collection of named stats (see file header). */
class StatsRegistry
{
  public:
    enum class Type : std::uint8_t
    {
        Counter,   //!< one u64
        Scalar,    //!< one double
        Vector,    //!< u64 per index (e.g. per stage)
        Histogram, //!< u64 per bucket, rendered sparsely
    };

    struct Entry
    {
        std::string name;
        Type type = Type::Counter;
        std::uint64_t counter = 0;
        double scalar = 0.0;
        std::vector<std::uint64_t> values; //!< Vector / Histogram
    };

    /** Register one stat.  Names must be unique per registry. */
    void counter(std::string_view name, std::uint64_t v);
    void scalar(std::string_view name, double v);
    void vector(std::string_view name,
                std::vector<std::uint64_t> values);
    void histogram(std::string_view name,
                   std::vector<std::uint64_t> buckets);

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    const std::vector<Entry> &entries() const { return entries_; }

    /** Entry by exact name; nullptr when absent. */
    const Entry *find(std::string_view name) const;

    /**
     * Render as one JSON object, keys in registration order.
     * Histograms are emitted sparsely as [bucket, count] pairs (the
     * same convention as the sweep report's latency_hist).
     */
    void writeJson(JsonWriter &w) const;

    /** gem5-stats.txt-style "name value" lines, one per stat. */
    std::string str() const;

    void clear() { entries_.clear(); }

  private:
    std::vector<Entry> entries_;

    Entry &emplace(std::string_view name, Type type);
};

} // namespace iadm::obs

#endif // IADM_OBS_STATS_HPP
