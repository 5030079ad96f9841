#include "serve/wire.hpp"

#include <charconv>
#include <cstdint>
#include <sstream>

namespace iadm::serve {

namespace {

/** Cursor over one request line. */
struct Scanner
{
    std::string_view s;
    std::size_t i = 0;

    void
    skipWs()
    {
        while (i < s.size() &&
               (s[i] == ' ' || s[i] == '\t' || s[i] == '\r'))
            ++i;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (i >= s.size() || s[i] != c)
            return false;
        ++i;
        return true;
    }

    bool
    peek(char c)
    {
        skipWs();
        return i < s.size() && s[i] == c;
    }

    /**
     * Parse a JSON string literal into @p out.  Only the escapes a
     * client has any reason to send (\" \\ \/) are unescaped; the
     * protocol never carries control characters.
     */
    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return false;
        out.clear();
        while (i < s.size()) {
            const char c = s[i++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (i >= s.size())
                    return false;
                const char e = s[i++];
                if (e == '"' || e == '\\' || e == '/')
                    out.push_back(e);
                else
                    return false;
                continue;
            }
            out.push_back(c);
        }
        return false;
    }

    bool
    number(std::uint64_t &out)
    {
        skipWs();
        const char *first = s.data() + i;
        const char *last = s.data() + s.size();
        const auto [p, ec] = std::from_chars(first, last, out);
        if (ec != std::errc{} || p == first)
            return false;
        i += static_cast<std::size_t>(p - first);
        return true;
    }

    bool
    literal(std::string_view word)
    {
        skipWs();
        if (s.substr(i, word.size()) != word)
            return false;
        i += word.size();
        return true;
    }
};

Request
bad(const std::string &why)
{
    Request r;
    r.op = Request::Op::Bad;
    r.error = why;
    return r;
}

} // namespace

Request
parseRequest(std::string_view line)
{
    Scanner sc{line};
    if (!sc.eat('{'))
        return bad("expected '{'");

    Request r;
    std::string op_name;
    bool have_op = false, have_src = false, have_dst = false,
         have_link = false;

    if (!sc.peek('}')) {
        do {
            std::string key;
            if (!sc.string(key))
                return bad("expected key string");
            if (!sc.eat(':'))
                return bad("expected ':' after key");
            if (key == "op") {
                if (!sc.string(op_name))
                    return bad("op must be a string");
                have_op = true;
            } else if (key == "id") {
                if (!sc.number(r.id))
                    return bad("id must be an unsigned integer");
            } else if (key == "src" || key == "dst") {
                std::uint64_t v = 0;
                if (!sc.number(v) || v > 0xffffu)
                    return bad(key + " must be an integer in "
                                     "[0, 65535]");
                if (key == "src") {
                    r.src = static_cast<Label>(v);
                    have_src = true;
                } else {
                    r.dst = static_cast<Label>(v);
                    have_dst = true;
                }
            } else if (key == "link") {
                if (!sc.string(r.link))
                    return bad("link must be a string");
                have_link = true;
            } else {
                // Unknown keys are skipped (string / integer /
                // boolean) so the protocol can grow additively.
                std::string junk;
                std::uint64_t num;
                if (!sc.string(junk) && !sc.number(num) &&
                    !sc.literal("true") && !sc.literal("false"))
                    return bad("unsupported value for key '" + key +
                               "'");
            }
        } while (sc.eat(','));
    }
    if (!sc.eat('}'))
        return bad("expected '}'");
    sc.skipWs();
    if (sc.i != line.size())
        return bad("trailing bytes after object");

    if (!have_op)
        return bad("missing \"op\"");
    if (op_name == "route" || op_name == "trace") {
        if (!have_src || !have_dst)
            return bad(op_name + " needs \"src\" and \"dst\"");
        r.op = op_name == "route" ? Request::Op::Route
                                  : Request::Op::Trace;
    } else if (op_name == "stats") {
        r.op = Request::Op::Stats;
    } else if (op_name == "health") {
        r.op = Request::Op::Health;
    } else if (op_name == "inject-fault" ||
               op_name == "clear-fault") {
        if (!have_link)
            return bad(op_name + " needs \"link\"");
        r.op = op_name == "inject-fault" ? Request::Op::InjectFault
                                         : Request::Op::ClearFault;
    } else if (op_name == "shutdown") {
        r.op = Request::Op::Shutdown;
    } else {
        return bad("unknown op '" + op_name + "'");
    }
    return r;
}

const char *
opName(Request::Op op)
{
    switch (op) {
      case Request::Op::Route: return "route";
      case Request::Op::Trace: return "trace";
      case Request::Op::Stats: return "stats";
      case Request::Op::Health: return "health";
      case Request::Op::InjectFault: return "inject-fault";
      case Request::Op::ClearFault: return "clear-fault";
      case Request::Op::Shutdown: return "shutdown";
      case Request::Op::Bad: break;
    }
    return "bad";
}

ResponseWriter::ResponseWriter(std::string &out, std::uint64_t id)
    : out_(out)
{
    out_.append("{\"id\":");
    char buf[24];
    const auto [p, ec] =
        std::to_chars(buf, buf + sizeof(buf), id);
    (void)ec;
    out_.append(buf, p);
}

void
ResponseWriter::field(std::string_view key, std::uint64_t v)
{
    out_.push_back(',');
    out_.push_back('"');
    out_.append(key);
    out_.append("\":");
    char buf[24];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;
    out_.append(buf, p);
}

void
ResponseWriter::field(std::string_view key, double v)
{
    out_.push_back(',');
    out_.push_back('"');
    out_.append(key);
    out_.append("\":");
    char buf[32];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;
    out_.append(buf, p);
}

void
ResponseWriter::field(std::string_view key, bool v)
{
    out_.push_back(',');
    out_.push_back('"');
    out_.append(key);
    out_.append(v ? "\":true" : "\":false");
}

void
ResponseWriter::field(std::string_view key, std::string_view v)
{
    out_.push_back(',');
    out_.push_back('"');
    out_.append(key);
    out_.append("\":\"");
    for (const char c : v) {
        if (c == '"' || c == '\\')
            out_.push_back('\\');
        out_.push_back(c);
    }
    out_.push_back('"');
}

void
ResponseWriter::beginArray(std::string_view key)
{
    out_.push_back(',');
    out_.push_back('"');
    out_.append(key);
    out_.append("\":[");
    inArray_ = true;
    firstElem_ = true;
}

void
ResponseWriter::element(std::uint64_t v)
{
    if (!firstElem_)
        out_.push_back(',');
    firstElem_ = false;
    char buf[24];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;
    out_.append(buf, p);
}

void
ResponseWriter::pairElement(std::uint64_t a, std::uint64_t b)
{
    if (!firstElem_)
        out_.push_back(',');
    firstElem_ = false;
    out_.push_back('[');
    char buf[24];
    auto [p1, ec1] = std::to_chars(buf, buf + sizeof(buf), a);
    (void)ec1;
    out_.append(buf, p1);
    out_.push_back(',');
    auto [p2, ec2] = std::to_chars(buf, buf + sizeof(buf), b);
    (void)ec2;
    out_.append(buf, p2);
    out_.push_back(']');
}

void
ResponseWriter::endArray()
{
    out_.push_back(']');
    inArray_ = false;
}

void
ResponseWriter::finish()
{
    out_.append("}\n");
}

bool
parseLinkSpec(const topo::IadmTopology &net, const std::string &spec,
              topo::Link &out)
{
    unsigned stage;
    Label from;
    char kind, c1, c2;
    std::istringstream is(spec);
    if (!(is >> stage >> c1 >> from >> c2 >> kind) || c1 != ':' ||
        c2 != ':')
        return false;
    if (stage >= net.stages() || from >= net.size())
        return false;
    switch (kind) {
      case 's': out = net.straightLink(stage, from); return true;
      case 'p': out = net.plusLink(stage, from); return true;
      case 'm': out = net.minusLink(stage, from); return true;
      default: return false;
    }
}

} // namespace iadm::serve
