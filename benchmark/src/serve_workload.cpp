/**
 * @file
 * The serve-n1024 workload: an in-process ServerCore + RouteServer on
 * a real Unix socket, driven by a client of two threads (writer,
 * reader) over one connection per phase.  With the daemon's poll
 * loop that is three threads.
 *
 * Requests are uniform route queries plus one inject-fault /
 * clear-fault pair per 16384 requests, so the epoch-repin
 * write path runs beside the reads and the route cache only ever
 * hits within an epoch.  Streams are generated from the seed before
 * the daemon starts; a stream is a fixed log that phases walk
 * cyclically (the epochs move on every lap, so a lap never replays a
 * cached answer).
 *
 * Phases: warm-up on a stream of a different seed, open loop at a
 * fixed rate (each request timed from its due time), closed loop
 * with a window of kWindow requests.  Afterwards every response byte
 * is checked against a fresh in-process ServerCore fed the same
 * lines one at a time.
 */

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench.hpp"
#include "serve/server.hpp"
#include "serve/server_core.hpp"
#include "serve/wire.hpp"
#include "sim/route_cache.hpp"

namespace ibench {

using namespace iadm;

namespace {

constexpr std::size_t kWindow = 256;  //!< closed-loop requests in flight
constexpr std::size_t kBurst = 32;    //!< closed-loop send granularity
constexpr std::size_t kBlock = 4096;  //!< responses per checked block
constexpr std::size_t kSample = 64;   //!< 1 in kSample requests sampled
constexpr std::size_t kRing = 1024;   //!< closed-loop send-time ring

/** A request log: lines back to back, offsets of each line. */
struct Stream
{
    std::string blob;
    std::vector<std::size_t> off; //!< size() + 1 entries

    std::size_t size() const { return off.size() - 1; }

    std::string_view
    line(std::size_t i) const
    {
        // Without the trailing newline.
        return {blob.data() + off[i], off[i + 1] - off[i] - 1};
    }
};

Stream
makeStream(Label n_size, unsigned stages, std::size_t len,
           std::size_t fault_period, std::uint64_t seed)
{
    Rng rng(seed);
    Stream s;
    s.off.push_back(0);
    std::string link;
    for (std::size_t i = 0; i < len; ++i) {
        const std::size_t phase = i % fault_period;
        std::string l = "{\"id\":" + std::to_string(i + 1);
        if (phase == 0) {
            static const char kinds[] = {'s', 'p', 'm'};
            link = std::to_string(rng.uniform(stages)) + ":" +
                   std::to_string(rng.uniform(n_size)) + ":" +
                   kinds[rng.uniform(3)];
            l += ",\"op\":\"inject-fault\",\"link\":\"" + link + "\"}";
        } else if (phase == fault_period / 2) {
            l += ",\"op\":\"clear-fault\",\"link\":\"" + link + "\"}";
        } else {
            l += ",\"op\":\"route\",\"src\":" +
                 std::to_string(rng.uniform(n_size)) +
                 ",\"dst\":" + std::to_string(rng.uniform(n_size)) + "}";
        }
        s.blob += l;
        s.blob += '\n';
        s.off.push_back(s.blob.size());
    }
    return s;
}

/**
 * Order-sensitive running hash of response lines (each with its
 * newline), one per kBlock responses; client and reference both use
 * it.  Hashing line by line keeps the reader's cost per response
 * flat instead of stalling it once per block.
 */
constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ull;

std::uint64_t
mixLine(std::uint64_t h, std::string_view line)
{
    return (h ^ std::hash<std::string_view>{}(line)) * 0x100000001b3ull;
}

int
connectTo(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    // A daemon that stops answering turns into counted timeouts,
    // not a hung benchmark.
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    return fd;
}

bool
sendAll(int fd, const char *p, std::size_t len)
{
    while (len > 0) {
        const ssize_t w = ::send(fd, p, len, MSG_NOSIGNAL);
        if (w <= 0)
            return false;
        p += w;
        len -= static_cast<std::size_t>(w);
    }
    return true;
}

/** Send requests [from, to) of the cyclic stream @p s. */
bool
sendRange(int fd, const Stream &s, std::size_t from, std::size_t to)
{
    while (from < to) {
        const std::size_t p = from % s.size();
        const std::size_t end = std::min(s.size(), p + (to - from));
        if (!sendAll(fd, s.blob.data() + s.off[p], s.off[end] - s.off[p]))
            return false;
        from += end - p;
    }
    return true;
}

/** What one phase's client saw. */
struct Phase
{
    std::size_t start = 0;   //!< stream position of its first request
    std::size_t sent = 0;
    std::size_t received = 0;
    bool sendFailed = false;
    std::vector<std::uint64_t> hashes; //!< per kBlock responses
    std::vector<float> latUs;   //!< open loop: due -> response
    std::vector<float> lateUs;  //!< open loop: due -> sent
    std::vector<double> windowQps; //!< closed loop
    std::vector<float> satUs;   //!< closed loop: sent -> response,
                                //!< 1 in kSample
};

/**
 * Reader side shared by both loops: receives until every sent
 * request is answered, hashing response blocks and calling
 * @p on_response(index, time) per response line.
 */
template <typename OnResponse, typename OnIdle>
void
readResponses(int fd, Phase &ph, std::atomic<std::size_t> &sent,
              std::atomic<bool> &writer_done, OnResponse &&on_response,
              OnIdle &&on_idle)
{
    std::string line;
    std::uint64_t h = kHashSeed;
    std::vector<char> chunk(1 << 16);
    for (;;) {
        on_idle();
        const bool done = writer_done.load(std::memory_order_acquire);
        if (ph.received == sent.load(std::memory_order_acquire)) {
            if (done)
                break;
            std::this_thread::yield();
            continue;
        }
        const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
        if (n <= 0)
            break; // timeout or closed: the rest count as timeouts
        const auto now = Clock::now();
        const char *p = chunk.data();
        const char *end = p + n;
        while (p < end) {
            const char *nl = static_cast<const char *>(
                std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
            const char *stop = nl != nullptr ? nl + 1 : end;
            if (nl != nullptr && line.empty()) {
                h = mixLine(h, std::string_view(p, stop - p));
            } else {
                line.append(p, stop);
                if (nl != nullptr) {
                    h = mixLine(h, line);
                    line.clear();
                }
            }
            p = stop;
            if (nl == nullptr)
                break;
            on_response(ph.received, now);
            if (++ph.received % kBlock == 0) {
                ph.hashes.push_back(h);
                h = kHashSeed;
            }
        }
    }
    if (ph.received % kBlock != 0)
        ph.hashes.push_back(h);
}

/**
 * Open loop: request i is due at t0 + i / rate, whatever the
 * daemon does; latency runs from the due time.
 */
Phase
openLoop(const std::string &path, const Stream &s, double rate,
         double seconds, std::size_t start, Tracer *tracer,
         std::uint64_t parent)
{
    Phase ph;
    ph.start = start;
    const auto total = static_cast<std::size_t>(rate * seconds);
    ph.latUs.assign(total, 0);
    ph.lateUs.assign(total, 0);
    const int fd = connectTo(path);
    if (fd < 0) {
        ph.sendFailed = true;
        return ph;
    }
    const double period_ns = 1e9 / rate;
    std::atomic<std::size_t> sent{0};
    std::atomic<bool> writer_done{false};
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    const auto due = [&](std::size_t i) {
        return t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                        static_cast<double>(i) * period_ns));
    };
    std::thread writer([&] {
        std::size_t k = 0;
        while (k < total) {
            const auto now = Clock::now();
            const double since = ns(t0, now);
            if (since < 0)
                continue;
            const std::size_t due_now = std::min(
                total, static_cast<std::size_t>(since / period_ns) + 1);
            if (due_now == k)
                continue;
            if (!sendRange(fd, s, start + k, start + due_now)) {
                ph.sendFailed = true;
                break;
            }
            for (std::size_t i = k; i < due_now; ++i)
                ph.lateUs[i] = static_cast<float>(ns(due(i), now) / 1e3);
            k = due_now;
            sent.store(k, std::memory_order_release);
        }
        writer_done.store(true, std::memory_order_release);
    });
    readResponses(
        fd, ph, sent, writer_done,
        [&](std::size_t j, Clock::time_point now) {
            ph.latUs[j] = static_cast<float>(ns(due(j), now) / 1e3);
        },
        [] {});
    writer.join();
    ph.sent = sent.load();
    ::close(fd);
    if (tracer != nullptr) {
        // The three spans of a sampled request share its id.
        const auto at = [&](std::size_t j, float us) {
            return due(j) + std::chrono::nanoseconds(
                                static_cast<std::int64_t>(us * 1e3));
        };
        for (std::size_t j = 0; j < ph.received; j += kSample) {
            const auto sent_at = at(j, ph.lateUs[j]);
            const auto done = at(j, ph.latUs[j]);
            const std::uint64_t id = tracer->newId();
            tracer->span("serve.request", parent, due(j), done, id);
            tracer->span("serve.gen_wait", id, due(j), sent_at, id);
            tracer->span("serve.in_flight", id, sent_at, done, id);
        }
    }
    return ph;
}

/**
 * Closed loop: at most kWindow requests outstanding, sent in bursts
 * of kBurst; qps per window of @p seconds / @p windows.  With a
 * tracer, even windows record request spans and odd ones do not.
 */
Phase
closedLoop(const std::string &path, const Stream &s, double seconds,
           unsigned windows, std::size_t start, Tracer *tracer,
           std::uint64_t parent)
{
    Phase ph;
    ph.start = start;
    const int fd = connectTo(path);
    if (fd < 0) {
        ph.sendFailed = true;
        return ph;
    }
    std::atomic<std::size_t> sent{0};
    std::atomic<std::size_t> acked{0};
    std::atomic<bool> stop{false};
    std::atomic<bool> writer_done{false};
    // Send times by request index mod kRing (at most kWindow are
    // outstanding, so an entry is read before it is reused).
    const auto t0 = Clock::now();
    std::vector<std::atomic<std::int64_t>> sent_at(kRing);
    std::thread writer([&] {
        std::size_t k = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t inflight =
                k - acked.load(std::memory_order_acquire);
            if (inflight + kBurst > kWindow) {
                std::this_thread::yield();
                continue;
            }
            const auto now =
                static_cast<std::int64_t>(ns(t0, Clock::now()));
            for (std::size_t i = k; i < k + kBurst; ++i)
                sent_at[i % kRing].store(now, std::memory_order_relaxed);
            if (!sendRange(fd, s, start + k, start + k + kBurst)) {
                ph.sendFailed = true;
                break;
            }
            k += kBurst;
            sent.store(k, std::memory_order_release);
        }
        writer_done.store(true, std::memory_order_release);
    });
    const double window_s = seconds / windows;
    auto w0 = t0;
    std::size_t w_count = 0;
    const auto close_window = [&](Clock::time_point now) {
        ph.windowQps.push_back(static_cast<double>(ph.received - w_count) /
                               (ns(w0, now) * 1e-9));
        w0 = now;
        w_count = ph.received;
    };
    readResponses(
        fd, ph, sent, writer_done,
        [&](std::size_t j, Clock::time_point now) {
            const auto at =
                t0 + std::chrono::nanoseconds(
                         sent_at[j % kRing].load(std::memory_order_relaxed));
            if (j % kSample == 0)
                ph.satUs.push_back(static_cast<float>(ns(at, now) / 1e3));
            acked.store(j + 1, std::memory_order_release);
            const bool traced =
                tracer != nullptr && ph.windowQps.size() % 2 == 0;
            if (traced && j % kSample == 0) {
                const std::uint64_t id = tracer->newId();
                tracer->span("serve.request", parent, at, now, id);
            }
            if (ns(w0, now) * 1e-9 >= window_s &&
                ph.windowQps.size() < windows) {
                close_window(now);
                if (ph.windowQps.size() == windows)
                    stop.store(true, std::memory_order_relaxed);
            }
        },
        [&] {
            // The clock also runs out while nothing is in flight.
            const auto now = Clock::now();
            if (ph.windowQps.size() < windows &&
                ns(t0, now) * 1e-9 > seconds * 4)
                stop.store(true, std::memory_order_relaxed);
        });
    writer.join();
    ph.sent = sent.load();
    ::close(fd);
    return ph;
}

/** A daemon on its own poll-loop thread; stops and joins on scope exit. */
class Daemon
{
  public:
    Daemon(serve::ServerCore &core, const std::string &path)
        : server_(core, path)
    {
        std::string err;
        ok_ = server_.start(&err);
        if (ok_)
            loop_ = std::thread([this] { server_.run(); });
        else
            error = err;
    }

    ~Daemon()
    {
        if (ok_) {
            server_.stop();
            loop_.join();
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool ok() const { return ok_; }
    std::string error;

  private:
    serve::RouteServer server_;
    bool ok_ = false;
    std::thread loop_;
};

/** Median over windows [w * per, (w + 1) * per) of quantile q. */
double
windowedQuantile(const std::vector<float> &v, std::size_t windows,
                 double q)
{
    std::vector<double> out;
    const std::size_t per = v.size() / windows;
    for (std::size_t w = 0; w < windows && per > 0; ++w)
        out.push_back(quantile(std::vector<double>(
                                   v.begin() + static_cast<long>(w * per),
                                   v.begin() + static_cast<long>((w + 1) *
                                                                 per)),
                               q));
    return median(out);
}

} // namespace

Result
runServe(const Options &opt, Tracer &tracer, HostSpeed &host)
{
    const bool smoke = opt.smoke;
    const Label n_size = smoke ? 64 : 1024;
    const std::string fault_spec = smoke ? "links:6" : "links:96";
    const double rate = smoke ? 20000 : 250000; // open-loop req/s
    const std::size_t fault_period = smoke ? 4096 : 16384;
    const std::size_t log_len = smoke ? 16384 : std::size_t{1} << 18;
    const std::uint64_t fault_seed = subSeed(opt.seed, 2);
    const std::string path = "serve-" + std::to_string(::getpid()) + ".sock";
    const topo::IadmTopology topo(n_size);
    Tracer *tr = opt.trace ? &tracer : nullptr;

    serve::ServeConfig cfg;
    cfg.netSize = n_size;
    cfg.scheme = sim::RoutingScheme::TsdtSender;
    cfg.seed = subSeed(opt.seed, 1);
    const auto placeFaults = [&] {
        fault::FaultSet f;
        std::string err;
        serve::ServerCore::parseFaultArg(topo, fault_spec, fault_seed, f,
                                         err);
        return f;
    };

    Result r;
    // Set-up: engine, socket, poll loop, first answer.
    std::vector<double> setup;
    const std::string probe_line =
        "{\"id\":1,\"op\":\"route\",\"src\":1,\"dst\":2}\n";
    for (int i = 0; i < kSetups; ++i) {
        const auto a = Clock::now();
        serve::ServerCore core(cfg, placeFaults());
        Daemon d(core, path);
        const int fd = d.ok() ? connectTo(path) : -1;
        char buf[512];
        const bool ok = fd >= 0 &&
                        sendAll(fd, probe_line.data(), probe_line.size()) &&
                        ::recv(fd, buf, sizeof(buf), 0) > 0;
        setup.push_back(ns(a, Clock::now()) * 1e-9);
        if (fd >= 0)
            ::close(fd);
        r.gate(ok, "set-up could not get a first answer: " + d.error);
    }
    r.set("setup_s", median(setup), "s");

    const Stream warm = makeStream(n_size, topo.stages(), log_len,
                                   fault_period, subSeed(opt.seed, 7));
    const Stream meas = makeStream(n_size, topo.stages(), log_len,
                                   fault_period, subSeed(opt.seed, 8));

    const double budget = opt.seconds;
    // Windows of about half a second, at least 6 per phase; an even
    // closed-loop count pairs traced with untraced windows.
    const auto open_windows = std::max(6u, static_cast<unsigned>(budget));
    const auto closed_windows =
        std::max(6u, static_cast<unsigned>(0.6 * budget) & ~1u);
    serve::ServerCore core(cfg, placeFaults());
    Phase warm_ph, open_ph, closed_ph;
    serve::ServerCore::Stats stats;
    {
        Daemon d(core, path);
        r.gate(d.ok(), "daemon failed to start: " + d.error);
        if (!d.ok())
            return r;
        const std::uint64_t root = tracer.newId();
        const auto start = Clock::now();
        auto a = start;
        warm_ph = openLoop(path, warm, rate, 0.2 * budget, 0, nullptr, 0);
        tracer.span("serve.warmup", root, a, Clock::now());
        host.sample();
        a = Clock::now();
        const std::uint64_t open_id = tracer.newId();
        open_ph = openLoop(path, meas, rate, 0.5 * budget, 0, tr, open_id);
        tracer.span("serve.open_loop", root, a, Clock::now(), open_id);
        host.sample();
        a = Clock::now();
        const std::uint64_t closed_id = tracer.newId();
        closed_ph = closedLoop(path, meas, 0.3 * budget, closed_windows,
                               open_ph.sent, tr, closed_id);
        tracer.span("serve.closed_loop", root, a, Clock::now(), closed_id);
        stats = core.statsSnapshot();
        tracer.span(opt.workload.c_str(), 0, start, Clock::now(), root);
    }
    host.sample();

    // --- correctness: a fresh engine, one request at a time --------
    const auto ref_start = Clock::now();
    serve::ServerCore ref(cfg, placeFaults());
    sim::RouteCache replay(n_size);
    fault::FaultSet replay_faults = placeFaults();
    std::uint64_t replay_hits = 0, replay_misses = 0, fault_ops = 0;
    std::size_t mismatched = 0;
    std::string out;
    std::uint64_t epoch_lo = ~std::uint64_t{0}, epoch_hi = 0;
    for (const auto &[ph, s] :
         {std::pair<const Phase *, const Stream *>{&warm_ph, &warm},
          {&open_ph, &meas},
          {&closed_ph, &meas}}) {
        std::uint64_t h = kHashSeed;
        for (std::size_t i = 0; i < ph->sent; ++i) {
            const auto q =
                serve::parseRequest(s->line((ph->start + i) % s->size()));
            out.clear();
            ref.resolveBatch(&q, 1, out);
            h = mixLine(h, out);
            if (opt.trace) {
                // The route cache as the daemon drives it, for the
                // eviction count the engine does not export.
                topo::Link l{};
                if (q.op == serve::Request::Op::Route) {
                    const auto hit = replay.resolveUniversal(
                                         topo, replay_faults, q.src, q.dst)
                                         .second;
                    (hit ? replay_hits : replay_misses) += 1;
                } else if (serve::parseLinkSpec(topo, q.link, l)) {
                    ++fault_ops;
                    if (q.op == serve::Request::Op::InjectFault)
                        replay_faults.blockLink(l);
                    else
                        replay_faults.unblockLink(l);
                }
                epoch_lo = std::min(epoch_lo, replay_faults.version());
                epoch_hi = std::max(epoch_hi, replay_faults.version());
            }
            if ((i + 1) % kBlock == 0 || i + 1 == ph->sent) {
                const std::size_t b = i / kBlock;
                if (b >= ph->hashes.size() || ph->hashes[b] != h)
                    mismatched += i % kBlock + 1;
                h = kHashSeed;
            }
        }
    }
    tracer.span("serve.reference_check", 0, ref_start, Clock::now());

    std::size_t sent = 0, timeouts = 0;
    for (const Phase *ph : {&warm_ph, &open_ph, &closed_ph}) {
        sent += ph->sent;
        timeouts += ph->sent - ph->received;
        r.gate(!ph->sendFailed, "a client send failed");
    }
    r.attempted = sent;
    r.failed = stats.errors + timeouts + mismatched;
    r.gate(stats.epochTorn == 0, "epoch_torn is nonzero");
    r.gate(mismatched == 0, std::to_string(mismatched) +
                                " responses differ from the reference");
    r.gate(!open_ph.latUs.empty() &&
               closed_ph.windowQps.size() == closed_windows,
           "a serve phase did not complete");
    if (!r.gateFailures.empty())
        return r;

    const double p50 = windowedQuantile(open_ph.latUs, open_windows, 0.5);
    // The open loop is valid only if the generator kept to its
    // schedule: p99 lateness within 10% of the p50 latency, or within
    // 25 inter-arrival gaps.  At a p50 of ten-odd microseconds 10% is
    // less than one send() call, and on a loaded shared host the p99
    // lateness alone reaches a few microseconds; a generator that
    // cannot hold the rate falls behind by milliseconds.
    const double late_p99 =
        windowedQuantile(open_ph.lateUs, open_windows, 0.99);
    r.gate(late_p99 <= std::max(0.1 * p50, 25e6 / rate),
           "open-loop generator ran late: p99 " + std::to_string(late_p99) +
               " us");
    if (!opt.trace) {
        r.set("ops_per_s", median(closed_ph.windowQps), "1/s");
        r.set("latency_p50_us", p50, "us");
        return r;
    }

    // --- traced run: per-layer numbers ------------------------------
    const double batch_mean = static_cast<double>(stats.requests) /
                              static_cast<double>(stats.batches);
    {
        serve::ServerCore eng(cfg, placeFaults());
        const std::size_t m = std::min<std::size_t>(meas.size(), 1 << 16);
        std::vector<serve::Request> reqs;
        reqs.reserve(m);
        for (std::size_t i = 0; i < m; ++i)
            reqs.push_back(serve::parseRequest(meas.line(i)));
        const auto b = std::max<std::size_t>(
            1, static_cast<std::size_t>(batch_mean + 0.5));
        const auto a = Clock::now();
        for (std::size_t i = 0; i < m; i += b) {
            out.clear();
            eng.resolveBatch(reqs.data() + i, std::min(b, m - i), out);
        }
        r.set("server_core.resolve_ns_per_req",
              ns(a, Clock::now()) / static_cast<double>(m), "ns");
        std::vector<double> repin;
        serve::Request inj = serve::parseRequest(meas.line(0));
        serve::Request clr = serve::parseRequest(
            meas.line(fault_period / 2));
        for (int i = 0; i < 64; ++i) {
            const auto c0 = Clock::now();
            out.clear();
            eng.resolveBatch(i % 2 == 0 ? &inj : &clr, 1, out);
            repin.push_back(ns(c0, Clock::now()));
        }
        r.set("server_core.repin_ns", median(repin), "ns");
    }
    r.set("server_core.batches", static_cast<double>(stats.batches),
          "count");
    r.set("server_core.batch_mean", batch_mean, "count");
    r.set("server_core.max_batch", static_cast<double>(stats.maxBatch),
          "count");
    r.set("server_core.route_hits", static_cast<double>(stats.routeHits),
          "count");
    r.set("server_core.route_misses",
          static_cast<double>(stats.routeMisses), "count");
    r.set("server_core.unroutable", static_cast<double>(stats.unroutable),
          "count");
    r.set("server_core.errors", static_cast<double>(stats.errors), "count");
    r.set("server_core.epoch_torn", static_cast<double>(stats.epochTorn),
          "count");
    r.set("server_core.service_p50_us",
          static_cast<double>(stats.servicePercentileUs(0.5)), "us");
    r.gate(replay_hits == stats.routeHits &&
               replay_misses == stats.routeMisses,
           "route-cache replay disagrees with the daemon's hit/miss counts");

    r.set("fault.transitions", static_cast<double>(fault_ops), "count");
    r.set("fault.epochs_seen", static_cast<double>(epoch_hi - epoch_lo + 1),
          "count");

    r.set("server.gen_late_us_p99", late_p99, "us");
    r.set("server.gen_late_us_p50",
          windowedQuantile(open_ph.lateUs, open_windows, 0.5), "us");
    r.set("server.sat_p99_us",
          quantile(std::vector<double>(closed_ph.satUs.begin(),
                                       closed_ph.satUs.end()),
                   0.99),
          "us");
    r.set("server.io_us_p50",
          p50 - r.metrics["server_core.resolve_ns_per_req"].value / 1e3,
          "us");
    r.set("server.open_p50_us", p50, "us");
    r.set("server.open_p99_us",
          windowedQuantile(open_ph.latUs, open_windows, 0.99), "us");
    std::vector<double> over;
    for (std::size_t w = 0; w + 1 < closed_ph.windowQps.size(); w += 2)
        over.push_back(closed_ph.windowQps[w + 1] / closed_ph.windowQps[w] -
                       1.0);
    r.set("bench.trace_overhead_pct", 100.0 * median(over), "%");

    Network net;
    net.cfg.netSize = n_size;
    net.cfg.scheme = cfg.scheme;
    net.cfg.injectionRate = 0.35;
    net.cfg.maxPacketAge = 500;
    net.cfg.seed = cfg.seed;
    net.faults = placeFaults();
    ProbeOptions popt;
    popt.simSteps = true;
    runLayerProbes(opt, net, popt, r, tracer);
    // The probe simulation set fail_frac and the cache counts for the
    // simulator; the workload's own are the daemon's.
    const double hits = static_cast<double>(stats.routeHits);
    const double misses = static_cast<double>(stats.routeMisses);
    r.set("fail_frac",
          static_cast<double>(r.failed) / static_cast<double>(sent),
          "ratio");
    r.set("route_cache.hits", hits, "count");
    r.set("route_cache.misses", misses, "count");
    r.set("route_cache.evictions",
          static_cast<double>(replay.stats().evictions), "count");
    r.set("route_cache.hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
    return r;
}

} // namespace ibench
