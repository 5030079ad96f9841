/**
 * @file
 * Route-serving daemon suite (`ctest -L serve`; also in the tsan
 * preset — the concurrent-clients cases double as race detection
 * for the epoch-guard / churn-ticker handoff).
 *
 * Covers, bottom-up:
 *   - the wire protocol (parse, error surfacing, response bytes),
 *   - ServerCore byte-identity against direct
 *     universalRouteCompact() calls and across batch sizes,
 *   - the epoch discipline: one pinned epoch per batch, repin on
 *     in-batch fault mutation, torn-snapshot counter at zero under
 *     a concurrently ticking churn clock,
 *   - the socket front end end-to-end with K pipelining client
 *     threads against a churning daemon.
 *
 * Every socket read carries an SO_RCVTIMEO wedge-detection timeout:
 * a hung daemon fails the test with a readable diagnostic instead
 * of hanging ctest.
 */

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/reroute.hpp"
#include "core/tsdt.hpp"
#include "fault/fault_set.hpp"
#include "serve/server.hpp"
#include "serve/server_core.hpp"
#include "serve/wire.hpp"
#include "sim/route_cache.hpp"
#include "topology/iadm.hpp"

namespace iadm::serve {
namespace {

// ---------------------------------------------------------------- wire

TEST(Wire, ParsesEveryOp)
{
    auto r = parseRequest(R"({"id":7,"op":"route","src":3,"dst":12})");
    EXPECT_EQ(r.op, Request::Op::Route);
    EXPECT_EQ(r.id, 7u);
    EXPECT_EQ(r.src, 3u);
    EXPECT_EQ(r.dst, 12u);

    r = parseRequest(R"({"op":"trace","src":0,"dst":1})");
    EXPECT_EQ(r.op, Request::Op::Trace);
    EXPECT_EQ(r.id, 0u);

    r = parseRequest(R"({"op":"stats"})");
    EXPECT_EQ(r.op, Request::Op::Stats);

    r = parseRequest(R"({"op":"inject-fault","link":"1:0:s"})");
    EXPECT_EQ(r.op, Request::Op::InjectFault);
    EXPECT_EQ(r.link, "1:0:s");

    r = parseRequest(R"({"op":"clear-fault","link":"0:2:m"})");
    EXPECT_EQ(r.op, Request::Op::ClearFault);

    r = parseRequest(R"({"op":"shutdown"})");
    EXPECT_EQ(r.op, Request::Op::Shutdown);
}

TEST(Wire, KeyOrderAndWhitespaceAreFlexible)
{
    const auto r =
        parseRequest(R"( { "dst" : 9 , "op" : "route" , "src" : 4 } )");
    EXPECT_EQ(r.op, Request::Op::Route);
    EXPECT_EQ(r.src, 4u);
    EXPECT_EQ(r.dst, 9u);
}

TEST(Wire, UnknownKeysAreSkippedForForwardCompat)
{
    const auto r = parseRequest(
        R"({"op":"route","src":1,"dst":2,"deadline":99,"tagx":"z"})");
    EXPECT_EQ(r.op, Request::Op::Route);
    EXPECT_EQ(r.src, 1u);
    EXPECT_EQ(r.dst, 2u);
}

TEST(Wire, MalformedInputYieldsBadWithDiagnostic)
{
    // Parse failures surface as Op::Bad (answered with an error
    // response) — never as a dropped connection or a bogus route.
    const char *cases[] = {
        "",
        "not json",
        "{\"op\":\"route\",\"src\":1}",     // missing dst
        "{\"op\":\"route\",\"dst\":1}",     // missing src
        "{\"src\":1,\"dst\":2}",            // missing op
        "{\"op\":\"warp\",\"src\":1,\"dst\":2}", // unknown op
        "{\"op\":\"inject-fault\"}",        // missing link
        "{\"op\":\"route\",\"src\":99999,\"dst\":1}", // out of range
        "{\"op\":\"route\",\"src\":-1,\"dst\":1}",
        "{\"op\":\"route\",\"src\":1,\"dst\":2",     // unterminated
    };
    for (const char *c : cases) {
        const auto r = parseRequest(c);
        EXPECT_EQ(r.op, Request::Op::Bad) << "input: " << c;
        EXPECT_FALSE(r.error.empty()) << "input: " << c;
    }
}

TEST(Wire, ResponseWriterBytes)
{
    std::string out;
    ResponseWriter w(out, 42);
    w.field("op", std::string_view("route"));
    w.field("epoch", std::uint64_t{7});
    w.field("ok", true);
    w.field("p50_us", 0.512);
    w.beginArray("path");
    w.element(3);
    w.element(1);
    w.endArray();
    w.finish();
    EXPECT_EQ(out, "{\"id\":42,\"op\":\"route\",\"epoch\":7,"
                   "\"ok\":true,\"p50_us\":0.512,\"path\":[3,1]}\n");
}

TEST(Wire, ParseLinkSpec)
{
    const topo::IadmTopology net(16);
    topo::Link l{};
    ASSERT_TRUE(parseLinkSpec(net, "1:0:s", l));
    EXPECT_EQ(l, net.straightLink(1, 0));
    ASSERT_TRUE(parseLinkSpec(net, "2:5:p", l));
    EXPECT_EQ(l, net.plusLink(2, 5));
    ASSERT_TRUE(parseLinkSpec(net, "0:3:m", l));
    EXPECT_EQ(l, net.minusLink(0, 3));
    EXPECT_FALSE(parseLinkSpec(net, "", l));
    EXPECT_FALSE(parseLinkSpec(net, "1:0", l));
    EXPECT_FALSE(parseLinkSpec(net, "1:0:x", l));
    EXPECT_FALSE(parseLinkSpec(net, "9:0:s", l));  // stage >= n
    EXPECT_FALSE(parseLinkSpec(net, "1:99:s", l)); // from >= N
}

// ---------------------------------------------------------- ServerCore

/** Canned faulted core: N=32, a seed-derived link scenario. */
ServerCore
makeFaultedCore(sim::RoutingScheme scheme, Label n_size = 32)
{
    ServeConfig cfg;
    cfg.netSize = n_size;
    cfg.scheme = scheme;
    cfg.seed = 11;
    const topo::IadmTopology net(n_size);
    fault::FaultSet faults;
    std::string err;
    if (!ServerCore::parseFaultArg(net, "links:5", cfg.seed, faults,
                                   err))
        ADD_FAILURE() << err;
    return ServerCore(cfg, std::move(faults));
}

std::vector<Request>
allPairRoutes(Label n_size, bool trace)
{
    std::vector<Request> reqs;
    std::uint64_t id = 1;
    for (Label s = 0; s < n_size; ++s)
        for (Label d = 0; d < n_size; ++d) {
            Request r;
            r.op = trace ? Request::Op::Trace : Request::Op::Route;
            r.id = id++;
            r.src = s;
            r.dst = d;
            reqs.push_back(r);
        }
    return reqs;
}

TEST(ServerCore, ParseFaultArgRejectsScenarioLargerThanN)
{
    // --faults links:9999 at N=8 used to abort inside the injector;
    // it is now a diagnostic the front end turns into exit 2.
    const topo::IadmTopology net(8);
    fault::FaultSet faults;
    std::string err;
    EXPECT_FALSE(
        ServerCore::parseFaultArg(net, "links:9999", 1, faults, err));
    EXPECT_NE(err.find("N=8"), std::string::npos) << err;
    EXPECT_TRUE(faults.empty());
    err.clear();
    EXPECT_TRUE(
        ServerCore::parseFaultArg(net, "links:72", 1, faults, err))
        << err;
    EXPECT_EQ(faults.count(), 72u);
}

TEST(ServerCore, TsdtAnswersMatchDirectRerouteCalls)
{
    // The byte-identity oracle: every served tsdt answer must equal
    // a response rebuilt from a direct universalRouteCompact() call
    // — the daemon may add caching and batching, never answers.
    constexpr Label kN = 32;
    auto core = makeFaultedCore(sim::RoutingScheme::TsdtSender, kN);
    const topo::IadmTopology net(kN);
    fault::FaultSet faults;
    std::string err;
    ASSERT_TRUE(
        ServerCore::parseFaultArg(net, "links:5", 11, faults, err));

    const auto reqs = allPairRoutes(kN, /*trace=*/false);
    std::string got;
    core.resolveBatch(reqs.data(), reqs.size(), got);
    const std::uint64_t epoch = core.epoch();

    std::string want;
    for (const auto &r : reqs) {
        const auto c =
            core::universalRouteCompact(net, faults, r.src, r.dst);
        ResponseWriter w(want, r.id);
        w.field("op", std::string_view("route"));
        w.field("epoch", epoch);
        w.field("ok", c.ok);
        if (c.ok) {
            w.field("tag", c.tag.str());
            w.field("reroutes", static_cast<std::uint64_t>(
                                    c.reroutes));
        }
        w.finish();
    }
    EXPECT_EQ(got, want);

    // Replaying the same batch is all cache hits — and still the
    // same bytes.
    std::string again;
    core.resolveBatch(reqs.data(), reqs.size(), again);
    EXPECT_EQ(again, want);
    const auto st = core.statsSnapshot();
    EXPECT_GT(st.routeHits, 0u);
}

TEST(ServerCore, TracePathsMatchDecodeDelta)
{
    constexpr Label kN = 16;
    auto core = makeFaultedCore(sim::RoutingScheme::TsdtSender, kN);
    const topo::IadmTopology net(kN);
    const unsigned n = net.stages();

    const auto reqs = allPairRoutes(kN, /*trace=*/true);
    std::string got;
    std::vector<ServerCore::Extent> extents;
    core.resolveBatch(reqs.data(), reqs.size(), got, &extents);
    ASSERT_EQ(extents.size(), reqs.size());

    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const std::string line =
            got.substr(extents[i].off, extents[i].len);
        const auto tag_pos = line.find("\"tag\":\"");
        if (tag_pos == std::string::npos)
            continue; // unroutable pair: no tag, no path
        // The served path must be decodeDelta() of the served tag's
        // state bits — one encoding, one decoder, end to end.
        const std::string tag_str = line.substr(
            tag_pos + 7, line.find('"', tag_pos + 7) - tag_pos - 7);
        // TsdtTag::str() renders b_0..b_{2n-1} LSB first; the state
        // bits are b_n..b_{2n-1}, so state bit i is character n+i.
        ASSERT_EQ(tag_str.size(), 2 * n);
        Label state_bits = 0;
        for (unsigned k = 0; k < n; ++k)
            if (tag_str[n + k] == '1')
                state_bits |= Label{1} << k;
        std::uint16_t sw[sim::RouteCache::kMaxPathSw];
        const unsigned cnt = core::decodeDelta(
            reqs[i].src, reqs[i].dst, state_bits, n, sw);
        std::string path = "\"path\":[";
        for (unsigned k = 0; k < cnt; ++k)
            path += std::to_string(sw[k]) + (k + 1 < cnt ? "," : "");
        path += "]";
        EXPECT_NE(line.find(path), std::string::npos)
            << "line: " << line << "\nwant " << path;
        EXPECT_EQ(sw[0], reqs[i].src);
        EXPECT_EQ(sw[cnt - 1] , reqs[i].dst);
    }
}

TEST(ServerCore, BatchedBytesEqualOneAtATimeForEveryScheme)
{
    // The acceptance invariant behind `--no-batch`: batching is a
    // perf lever, not a semantics lever.  For every scheme the
    // concatenated one-request "batches" must produce byte-identical
    // responses to one big batch (fresh cores each side — ssdt
    // serving state is persistent by design).
    const sim::RoutingScheme schemes[] = {
        sim::RoutingScheme::TsdtSender,
        sim::RoutingScheme::TsdtDynamic,
        sim::RoutingScheme::SsdtStatic,
        sim::RoutingScheme::SsdtBalanced,
        sim::RoutingScheme::DistanceTag,
    };
    constexpr Label kN = 16;
    const auto reqs = allPairRoutes(kN, /*trace=*/true);
    for (const auto s : schemes) {
        auto batched = makeFaultedCore(s, kN);
        std::string big;
        batched.resolveBatch(reqs.data(), reqs.size(), big);

        auto single = makeFaultedCore(s, kN);
        std::string one_by_one;
        for (const auto &r : reqs)
            single.resolveBatch(&r, 1, one_by_one);

        EXPECT_EQ(big, one_by_one)
            << "scheme " << sim::routingSchemeName(s);
    }
}

TEST(ServerCore, InjectFaultRepinsEpochAndInvalidatesCache)
{
    ServeConfig cfg;
    cfg.netSize = 16;
    cfg.scheme = sim::RoutingScheme::TsdtSender;
    const topo::IadmTopology net(16);
    // A static fault off the 2 -> 9 route, so even the first answer
    // is a route-cache fill over the daemon's fault view.
    fault::FaultSet faults;
    faults.blockLink(net.minusLink(0, 5));
    ServerCore core(cfg, faults);
    const std::uint64_t e0 = core.epoch();

    // The route response ResponseWriter would write for REROUTE's
    // outcome @p c.
    const auto answer = [](std::uint64_t id, std::uint64_t epoch,
                           const core::CompactRoute &c) {
        std::string out;
        ResponseWriter w(out, id);
        w.field("op", std::string_view("route"));
        w.field("epoch", epoch);
        w.field("ok", c.ok);
        if (c.ok) {
            w.field("tag", c.tag.str());
            w.field("reroutes", static_cast<std::uint64_t>(c.reroutes));
        }
        w.finish();
        return out;
    };

    // Mid-batch mutation: the requests before the inject see the
    // pinned epoch, the inject and everything after see the new one
    // — exactly what an unbatched server would have produced.  The
    // injected straight link lies on the before request's route
    // (2 -(+1)-> 3 -(-2)-> 1 -(0)-> 1 -(+8)-> 9), so the answer
    // after it needs BACKTRACK over a refreshed view.
    const core::CompactRoute original =
        core::universalRouteCompact(net, faults, 2, 9);
    ASSERT_TRUE(original.ok);
    ASSERT_EQ(core::tsdtTrace(2, original.tag, 16).linkAt(2),
              net.straightLink(2, 1));
    Request before;
    before.op = Request::Op::Route;
    before.id = 1;
    before.src = 2;
    before.dst = 9;
    Request inject;
    inject.op = Request::Op::InjectFault;
    inject.id = 2;
    inject.link = "2:1:s";
    Request after = before;
    after.id = 3;
    const Request batch[] = {before, inject, after};

    std::string out;
    std::vector<ServerCore::Extent> ext;
    core.resolveBatch(batch, 3, out, &ext);
    ASSERT_EQ(ext.size(), 3u);
    const auto line = [&](std::size_t i) {
        return out.substr(ext[i].off, ext[i].len);
    };
    const std::string e0s = "\"epoch\":" + std::to_string(e0);
    EXPECT_NE(line(0).find(e0s), std::string::npos) << line(0);
    EXPECT_EQ(line(1).find(e0s), std::string::npos) << line(1);
    EXPECT_NE(line(2).find(line(1).substr(
                  line(1).find("\"epoch\":"), 10)),
              std::string::npos);
    EXPECT_GT(core.epoch(), e0);
    EXPECT_EQ(line(0), answer(1, e0, original));

    // The answer after the inject is REROUTE over the new fault set,
    // not a replay through the stale view.
    fault::FaultSet injected = faults;
    injected.blockLink(net.straightLink(2, 1));
    const core::CompactRoute rerouted =
        core::universalRouteCompact(net, injected, 2, 9);
    ASSERT_TRUE(rerouted.ok);
    EXPECT_NE(rerouted.tag, original.tag);
    EXPECT_EQ(line(2), answer(3, core.epoch(), rerouted));

    // A repeat of the same batch must not be torn either.
    const auto st = core.statsSnapshot();
    EXPECT_EQ(st.epochTorn, 0u);

    // And clear-fault releases the claim: epoch moves again, the
    // fault count returns to the static fault alone, and the route
    // is the original one again.
    Request clear = inject;
    clear.op = Request::Op::ClearFault;
    clear.id = 4;
    std::string out2;
    core.resolveBatch(&clear, 1, out2);
    EXPECT_NE(out2.find("\"faults\":1"), std::string::npos) << out2;
    Request again = before;
    again.id = 5;
    std::string out3;
    core.resolveBatch(&again, 1, out3);
    EXPECT_EQ(out3, answer(5, core.epoch(), original));
}

TEST(ServerCore, BadRequestsGetErrorResponsesAndCount)
{
    ServeConfig cfg;
    cfg.netSize = 16;
    ServerCore core(cfg);
    Request bad = parseRequest("{\"op\":\"nope\"}");
    Request oob;
    oob.op = Request::Op::Route;
    oob.id = 5;
    oob.src = 500; // parseable but out of range for N=16
    oob.dst = 1;
    const Request batch[] = {bad, oob};
    std::string out;
    core.resolveBatch(batch, 2, out);
    EXPECT_NE(out.find("\"error\":"), std::string::npos);
    EXPECT_EQ(core.statsSnapshot().errors, 2u);
}

// ------------------------------------------------------------- socket

/** Blocking test client with a wedge-detection receive timeout. */
class Client
{
  public:
    explicit Client(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        connected_ =
            fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0;
        timeval tv{};
        tv.tv_sec = 10; // a wedged daemon fails loudly, not silently
        if (connected_)
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv,
                         sizeof(tv));
    }
    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return connected_; }

    bool send(const std::string &s)
    {
        std::size_t off = 0;
        while (off < s.size()) {
            const ssize_t n = ::send(fd_, s.data() + off,
                                     s.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** One response line (without '\n'); "" on timeout/EOF. */
    std::string recvLine()
    {
        for (;;) {
            const auto nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return {}; // timeout (wedge) or EOF
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    bool connected_ = false;
    std::string buf_;
};

std::string
testSocketPath(const char *tag)
{
    return "/tmp/iadm_serve_test_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".sock";
}

/** Extract the integer after `"key":` or fail. */
std::uint64_t
jsonInt(const std::string &line, const std::string &key)
{
    const auto pos = line.find("\"" + key + "\":");
    EXPECT_NE(pos, std::string::npos) << key << " in " << line;
    if (pos == std::string::npos)
        return 0;
    return std::strtoull(line.c_str() + pos + key.size() + 3,
                         nullptr, 10);
}

TEST(RouteServer, RoundTripAndShutdown)
{
    ServeConfig cfg;
    cfg.netSize = 16;
    cfg.scheme = sim::RoutingScheme::TsdtSender;
    ServerCore core(cfg);
    RouteServer server(core, testSocketPath("rt"));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    std::thread loop([&] { server.run(); });

    Client c(server.socketPath());
    ASSERT_TRUE(c.connected());
    ASSERT_TRUE(c.send("{\"id\":1,\"op\":\"route\",\"src\":3,"
                       "\"dst\":12}\n"
                       "{\"id\":2,\"op\":\"stats\"}\n"
                       "not json\n"
                       "{\"id\":4,\"op\":\"shutdown\"}\n"));
    const std::string r1 = c.recvLine();
    EXPECT_NE(r1.find("\"id\":1"), std::string::npos) << r1;
    EXPECT_NE(r1.find("\"ok\":true"), std::string::npos) << r1;
    const std::string r2 = c.recvLine();
    EXPECT_NE(r2.find("\"requests\":"), std::string::npos) << r2;
    const std::string r3 = c.recvLine();
    EXPECT_NE(r3.find("\"error\":"), std::string::npos) << r3;
    const std::string r4 = c.recvLine();
    EXPECT_NE(r4.find("\"op\":\"shutdown\""), std::string::npos)
        << r4;

    loop.join(); // shutdown request must terminate run()
    EXPECT_EQ(server.accepted(), 1u);
}

TEST(RouteServer, EpochConsistencyUnderChurnManyClients)
{
    // The tentpole acceptance: K pipelining client threads against a
    // daemon whose fault set is churning underneath on the ticker
    // thread.  Every response's epoch stamp must be internally
    // consistent (monotone per connection — batches pin, churn only
    // advances), and the torn-snapshot counter must end at zero.
    ServeConfig cfg;
    cfg.netSize = 64;
    cfg.scheme = sim::RoutingScheme::TsdtSender;
    cfg.seed = 3;
    cfg.tickUs = 100; // aggressive churn clock
    const auto churn = sim::ChurnSpec::parse("bernoulli:0.02:0.1");
    ASSERT_TRUE(churn.has_value());
    cfg.churn = *churn;

    const topo::IadmTopology net(cfg.netSize);
    fault::FaultSet faults;
    std::string err;
    ASSERT_TRUE(ServerCore::parseFaultArg(net, "links:8", cfg.seed,
                                          faults, err))
        << err;
    ServerCore core(cfg, std::move(faults));
    RouteServer server(core, testSocketPath("churn"));
    ASSERT_TRUE(server.start(&err)) << err;
    std::thread loop([&] { server.run(); });
    ChurnTicker ticker(core);

    constexpr int kClients = 4;
    constexpr int kRequests = 300;
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            Client c(server.socketPath());
            if (!c.connected()) {
                ++failures;
                return;
            }
            std::uint64_t last_epoch = 0;
            for (int i = 0; i < kRequests; ++i) {
                const Label src =
                    static_cast<Label>((t * 17 + i) % 64);
                const Label dst =
                    static_cast<Label>((t * 31 + i * 7) % 64);
                std::string req = "{\"id\":" +
                                  std::to_string(i + 1) +
                                  ",\"op\":\"route\",\"src\":" +
                                  std::to_string(src) +
                                  ",\"dst\":" +
                                  std::to_string(dst) + "}\n";
                if (!c.send(req)) {
                    ++failures;
                    return;
                }
                const std::string line = c.recvLine();
                if (line.empty()) { // wedge timeout
                    ++failures;
                    return;
                }
                const auto id = jsonInt(line, "id");
                const auto epoch = jsonInt(line, "epoch");
                if (id != static_cast<std::uint64_t>(i + 1))
                    ++failures;
                if (epoch < last_epoch) // churn only advances
                    ++failures;
                last_epoch = epoch;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    server.stop();
    loop.join();

    EXPECT_EQ(failures.load(), 0);
    const auto st = core.statsSnapshot();
    EXPECT_EQ(st.epochTorn, 0u);
    EXPECT_GE(st.requests,
              static_cast<std::uint64_t>(kClients * kRequests));
    EXPECT_GT(st.churnTicks, 0u);
    EXPECT_GT(st.faultDowns, 0u);
}

} // namespace
} // namespace iadm::serve
