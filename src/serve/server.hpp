/**
 * @file
 * Unix-domain-socket front end of the route-serving daemon.
 *
 * A single-threaded poll() loop owns every connection; a background
 * ChurnTicker thread drives the fault processes.  The loop is the
 * *acceptor-drains-a-batch* design from docs/SERVING.md:
 *
 *   1. poll() until something is readable,
 *   2. drain every readable connection's complete request lines
 *      into one batch (in connection, then arrival order),
 *   3. resolve the whole batch through ServerCore under one epoch
 *      guard,
 *   4. scatter the response extents back to per-connection output
 *      buffers and flush each with (usually) one write().
 *
 * With batching disabled (ServeConfig::batching = false) step 3
 * runs per request and step 4 flushes per response — the
 * one-request-at-a-time baseline bench_serve compares against.
 * The request work is identical either way; what batching amortizes
 * is the mutex/epoch pin and —
 * dominant on a real socket — the per-response write() syscall.
 */

#ifndef IADM_SERVE_SERVER_HPP
#define IADM_SERVE_SERVER_HPP

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "serve/server_core.hpp"

namespace iadm::serve {

/** The socket server. */
class RouteServer
{
  public:
    /**
     * @param core  serving engine (owned by the caller; must
     *              outlive the server)
     * @param path  filesystem path of the Unix socket to bind
     */
    RouteServer(ServerCore &core, std::string path);
    ~RouteServer();

    RouteServer(const RouteServer &) = delete;
    RouteServer &operator=(const RouteServer &) = delete;

    /**
     * Bind + listen (unlinking a stale socket file first).  Returns
     * false with a diagnostic in @p err on failure.
     */
    bool start(std::string *err = nullptr);

    /**
     * Serve until a shutdown request arrives or stop() is called.
     * Blocks; run it on a dedicated thread for in-process use.
     */
    void run();

    /** Thread-safe: wake the loop and make run() return. */
    void stop();

    const std::string &socketPath() const { return path_; }

    /** Total connections accepted (for diagnostics/tests). */
    std::uint64_t accepted() const
    {
        return accepted_.load(std::memory_order_relaxed);
    }

  private:
    struct Conn
    {
        int fd = -1;
        std::string in;   //!< unparsed request bytes
        std::string out;  //!< unsent response bytes
        std::size_t outOff = 0;
        bool closing = false; //!< peer EOF seen: flush, then close
    };

    ServerCore &core_;
    std::string path_;
    int listenFd_ = -1;
    int wakeFd_[2] = {-1, -1}; //!< self-pipe for stop()
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> accepted_{0};
    std::vector<Conn> conns_;

    /** Read everything available; false = close the connection. */
    bool drainInput(Conn &c);

    /** Flush pending output; false = close the connection. */
    bool flushOutput(Conn &c);

    void closeConn(Conn &c);
    void closeAll();
};

/**
 * Background churn driver: calls ServerCore::tickChurn() every
 * ServeConfig::tickUs microseconds from its own thread until
 * destroyed.  Constructing one on a churn-free core is a cheap
 * no-op (no thread is spawned).
 */
class ChurnTicker
{
  public:
    explicit ChurnTicker(ServerCore &core);
    ~ChurnTicker();

    ChurnTicker(const ChurnTicker &) = delete;
    ChurnTicker &operator=(const ChurnTicker &) = delete;

  private:
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/**
 * Background liveness watchdog: calls ServerCore::heartbeat() every
 * ServeConfig::tickUs microseconds from its own thread until
 * destroyed.  Each beat try-locks the serving mutex; a run of missed
 * beats flips the `health` wire query's status to "stalled", so a
 * wedged daemon is observable from outside instead of a client
 * timeout (docs/SERVING.md, "Health").
 */
class HealthWatchdog
{
  public:
    explicit HealthWatchdog(ServerCore &core);
    ~HealthWatchdog();

    HealthWatchdog(const HealthWatchdog &) = delete;
    HealthWatchdog &operator=(const HealthWatchdog &) = delete;

  private:
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace iadm::serve

#endif // IADM_SERVE_SERVER_HPP
