#include "obs/trace.hh"

#include <cstdio>
#include <ostream>
#include <unordered_set>

#include "util/logging.hh"

namespace xisa::obs {

bool gTraceEnabled = false;

void
setTraceEnabled(bool on)
{
    gTraceEnabled = on;
}

const char *
intern(const std::string &s)
{
    static std::unordered_set<std::string> pool;
    return pool.insert(s).first->c_str();
}

TraceCursor &
traceCursor()
{
    static TraceCursor cursor;
    return cursor;
}

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::setCapacityPerTrack(size_t n)
{
    XISA_CHECK(n > 0, "tracer ring capacity must be positive");
    capacity_ = n;
}

void
Tracer::record(int track, const TraceEvent &e)
{
    Ring &r = rings_[track];
    // Grow until full, then wrap: a track that records a handful of
    // events costs a handful of slots, not the whole capacity.
    if (r.head == 0 && r.ev.size() < capacity_) {
        r.ev.push_back(e);
        return;
    }
    r.ev[r.head] = e;
    r.head = (r.head + 1) % r.ev.size();
    ++dropped_;
}

void
Tracer::begin(int track, const char *cat, const char *name,
              double tsSeconds)
{
    record(track, {tsSeconds, cat, name, 'B', 0});
}

void
Tracer::end(int track, double tsSeconds)
{
    record(track, {tsSeconds, nullptr, nullptr, 'E', 0});
}

void
Tracer::instant(int track, const char *cat, const char *name,
                double tsSeconds)
{
    record(track, {tsSeconds, cat, name, 'I', 0});
}

void
Tracer::counter(int track, const char *name, double value,
                double tsSeconds)
{
    record(track, {tsSeconds, nullptr, name, 'C', value});
}

void
Tracer::nameTrack(int track, const std::string &name)
{
    trackNames_[track] = name;
}

size_t
Tracer::size() const
{
    size_t n = 0;
    for (const auto &[track, r] : rings_)
        n += r.ev.size();
    return n;
}

void
Tracer::clear()
{
    rings_.clear();
    trackNames_.clear();
    dropped_ = 0;
}

std::vector<TraceEvent>
Tracer::repaired(const Ring &r) const
{
    std::vector<TraceEvent> out;
    out.reserve(r.ev.size());
    // Oldest-first order: the oldest event sits at `head` (0 until the
    // ring first wraps).
    double lastTs = 0;
    std::vector<size_t> open; ///< indices into `out` of unmatched B's
    for (size_t i = 0; i < r.ev.size(); ++i) {
        const TraceEvent &e = r.ev[(r.head + i) % r.ev.size()];
        lastTs = e.tsSeconds;
        if (e.ph == 'E') {
            if (open.empty())
                continue; // its B was overwritten by the ring
            // Give the E its B's labels so pairs are self-describing.
            TraceEvent fixed = e;
            fixed.cat = out[open.back()].cat;
            fixed.name = out[open.back()].name;
            open.pop_back();
            out.push_back(fixed);
            continue;
        }
        if (e.ph == 'B')
            open.push_back(out.size());
        out.push_back(e);
    }
    // Close spans still open at export (innermost first).
    while (!open.empty()) {
        TraceEvent e = out[open.back()];
        e.ph = 'E';
        e.tsSeconds = lastTs;
        open.pop_back();
        out.push_back(e);
    }
    return out;
}

namespace {

void
jsonEscape(std::ostream &os, const char *s)
{
    for (; s && *s; ++s) {
        if (*s == '"' || *s == '\\')
            os << '\\';
        os << *s;
    }
}

} // namespace

void
Tracer::exportChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    auto comma = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };
    for (const auto &[track, name] : trackNames_) {
        comma();
        os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << track
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
        jsonEscape(os, name.c_str());
        os << "\"}}";
    }
    char ts[32];
    for (const auto &[track, ring] : rings_) {
        for (const TraceEvent &e : repaired(ring)) {
            comma();
            // Chrome expects microseconds.
            std::snprintf(ts, sizeof(ts), "%.3f", e.tsSeconds * 1e6);
            os << "{\"ph\":\"" << e.ph << "\",\"pid\":0,\"tid\":" << track
               << ",\"ts\":" << ts;
            if (e.cat) {
                os << ",\"cat\":\"";
                jsonEscape(os, e.cat);
                os << "\"";
            }
            if (e.name) {
                os << ",\"name\":\"";
                jsonEscape(os, e.name);
                os << "\"";
            }
            if (e.ph == 'C')
                os << ",\"args\":{\"value\":" << e.value << "}";
            os << "}";
        }
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace xisa::obs
