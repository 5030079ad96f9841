/**
 * @file
 * Wire protocol of the route-serving daemon (docs/SERVING.md).
 *
 * Requests and responses are newline-delimited JSON objects — one
 * flat object per line, no nesting on the request side.  The format
 * is deliberately minimal: a hand-rolled scanner over flat objects
 * (string / integer / boolean values) keeps the daemon free of any
 * external JSON dependency and makes parse cost negligible next to
 * a route resolution.
 *
 * Requests:
 *   {"op":"route","src":5,"dst":12}          resolve a route
 *   {"op":"trace","src":5,"dst":12}          route + per-stage path
 *   {"op":"stats"}                           serving counters
 *   {"op":"health"}                          liveness/watchdog status
 *   {"op":"inject-fault","link":"1:0:s"}     block a link (new epoch)
 *   {"op":"clear-fault","link":"1:0:s"}      release one claim
 *   {"op":"shutdown"}                        stop the daemon
 *
 * An optional "id" (unsigned integer) is echoed back verbatim so a
 * pipelining client can match responses to requests; responses are
 * always delivered in request order per connection regardless.
 *
 * Responses are single lines with a fixed key order (deterministic
 * byte-for-byte — the serve smoke test compares response bytes
 * against answers rebuilt from direct universalRouteCompact calls).
 * Every response carries the fault epoch (FaultSet::version()) its
 * batch was pinned to; see snapshot.hpp.
 */

#ifndef IADM_SERVE_WIRE_HPP
#define IADM_SERVE_WIRE_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bits.hpp"
#include "topology/iadm.hpp"

namespace iadm::serve {

/** One parsed request line. */
struct Request
{
    enum class Op : std::uint8_t
    {
        Route,
        Trace,
        Stats,
        Health,
        InjectFault,
        ClearFault,
        Shutdown,
        Bad, //!< parse failure; error holds the reason
    };

    Op op = Op::Bad;
    std::uint64_t id = 0; //!< echoed back (0 when absent)
    Label src = 0;
    Label dst = 0;
    std::string link;  //!< inject/clear-fault "stage:from:kind" spec
    std::string error; //!< Op::Bad reason
};

/**
 * Parse one request line (without the trailing newline).  Never
 * throws: malformed input yields Op::Bad with a diagnostic, which
 * the server answers with an error response instead of dropping the
 * connection.
 */
Request parseRequest(std::string_view line);

/** The canonical spelling of a request op ("route", "stats", ...). */
const char *opName(Request::Op op);

/**
 * Deterministic response assembly: appends `,"key":value` (or the
 * bare first pair) to a line under construction.  Integer rendering
 * uses to_chars — no locale, no iostream state, byte-stable.
 */
class ResponseWriter
{
  public:
    /** Start a response line for request @p id in @p out. */
    explicit ResponseWriter(std::string &out, std::uint64_t id);

    void field(std::string_view key, std::uint64_t v);
    /** A finite double in to_chars' shortest round-trip form. */
    void field(std::string_view key, double v);
    void field(std::string_view key, bool v);
    void field(std::string_view key, std::string_view v);

    /** Begin `"key":[` for an integer array; end with endArray(). */
    void beginArray(std::string_view key);
    void element(std::uint64_t v);
    /** Append a `[a,b]` pair element (sparse-histogram convention,
     *  same as the sweep report's latency_hist). */
    void pairElement(std::uint64_t a, std::uint64_t b);
    void endArray();

    /** Terminate the line: `}` + newline. */
    void finish();

  private:
    std::string &out_;
    bool inArray_ = false;
    bool firstElem_ = false;
};

/**
 * Parse a "stage:from:kind" link spec (kind one of s/p/m) against
 * @p net into @p out.  Shared by the daemon's inject-fault handler
 * and iadm_tool's route/trace fault arguments.
 */
bool parseLinkSpec(const topo::IadmTopology &net,
                   const std::string &spec, topo::Link &out);

} // namespace iadm::serve

#endif // IADM_SERVE_WIRE_HPP
