/**
 * @file
 * Low-overhead event tracer with Chrome trace-event export.
 *
 * Instrumented layers (interpreter, hDSM, OS migration service, stack
 * transformation, cluster scheduler) record scoped spans (B/E pairs)
 * and instant events onto per-track ring buffers. A track is one
 * timeline row in the viewer -- one simulated thread, machine, or job.
 * Timestamps are VIRTUAL: simulated seconds derived from core cycle
 * counts, so a full migration (migpoint hit -> stack transform ->
 * thread-migration message -> DSM page faults -> resume) renders as one
 * coherent timeline in chrome://tracing or https://ui.perfetto.dev.
 *
 * Cost model:
 *  - compiled out entirely when built with -DXISA_TRACE=OFF (the
 *    instrumentation macros expand to nothing);
 *  - compiled in but disabled (the default at startup): one predictable
 *    branch on `gTraceEnabled` per potential event;
 *  - enabled: one ring-buffer store per event. A ring grows with its
 *    track's events up to a fixed capacity, then overwrites its oldest
 *    events, so a quiet track costs a few slots and tracing never
 *    allocates unboundedly under heavy traffic.
 *
 * Because instrumented layers sit below the code that knows "whose time
 * is it" (e.g. a DSM fault doesn't know which thread faulted), the OS
 * maintains an ambient TraceCursor -- current track + virtual time --
 * that lower layers read and advance. The simulator is single-threaded;
 * the cursor and rings are process-global and unsynchronized.
 */

#ifndef XISA_OBS_TRACE_HH
#define XISA_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

/** Compile-time gate for the instrumentation macros (CMake -DXISA_TRACE).
 *  The Tracer itself is always compiled so tools and tests can drive it
 *  directly in either configuration. */
#ifndef XISA_TRACE
#define XISA_TRACE 1
#endif

namespace xisa::obs {

/** One recorded event. `cat`/`name` must outlive the tracer (string
 *  literals, or strings interned via obs::intern()). */
struct TraceEvent {
    double tsSeconds = 0;
    const char *cat = nullptr;
    const char *name = nullptr;
    char ph = 'I'; ///< 'B' begin, 'E' end, 'I' instant, 'C' counter
    double value = 0; ///< counter events only
};

/** The runtime gate the macros branch on; flip via setTraceEnabled(). */
extern bool gTraceEnabled;

inline bool
traceEnabled()
{
    return gTraceEnabled;
}

void setTraceEnabled(bool on);

/** Intern a dynamic string so TraceEvent can hold a stable pointer. */
const char *intern(const std::string &s);

/** Ambient track + virtual-time position (see file comment). */
struct TraceCursor {
    int track = 0;
    double tsSeconds = 0;
};

TraceCursor &traceCursor();

inline void
setTraceCursor(int track, double tsSeconds)
{
    TraceCursor &c = traceCursor();
    c.track = track;
    c.tsSeconds = tsSeconds;
}

/** Event recorder: per-track ring buffers + Chrome JSON export. */
class Tracer
{
  public:
    static Tracer &global();

    /** Events retained per track (ring size). */
    void setCapacityPerTrack(size_t n);

    void begin(int track, const char *cat, const char *name,
               double tsSeconds);
    void end(int track, double tsSeconds);
    void instant(int track, const char *cat, const char *name,
                 double tsSeconds);
    void counter(int track, const char *name, double value,
                 double tsSeconds);

    /** Label a track ("tid0", "machine1/x86") in the viewer. */
    void nameTrack(int track, const std::string &name);

    /** Total events overwritten by ring wrap-around so far. */
    uint64_t dropped() const { return dropped_; }
    /** Total events currently retained across all tracks. */
    size_t size() const;

    /** Drop all recorded events and track names. */
    void clear();

    /**
     * Write Chrome trace-event JSON. Unmatched events are repaired per
     * track: an 'E' whose 'B' was overwritten is dropped, a 'B' still
     * open at export gets a synthetic 'E' at the track's last
     * timestamp -- the output always has matched B/E pairs.
     */
    void exportChromeTrace(std::ostream &os) const;

  private:
    /** Events oldest-first from `head`. `ev` grows up to the capacity;
     *  once full, `head` is the next slot to overwrite. */
    struct Ring {
        std::vector<TraceEvent> ev;
        size_t head = 0;
    };

    void record(int track, const TraceEvent &e);
    /** Oldest-first copy of a ring with B/E pairing repaired. */
    std::vector<TraceEvent> repaired(const Ring &r) const;

    std::map<int, Ring> rings_;
    std::map<int, std::string> trackNames_;
    size_t capacity_ = 1 << 16;
    uint64_t dropped_ = 0;
};

/**
 * RAII span on an explicit track; samples `now()` (virtual seconds) at
 * entry and exit. Armed only if tracing was enabled at construction.
 */
template <typename NowFn> class ScopedSpan
{
  public:
    ScopedSpan(int track, const char *cat, const char *name, NowFn now)
        : track_(track), now_(now), armed_(traceEnabled())
    {
        if (armed_)
            Tracer::global().begin(track_, cat, name, now_());
    }
    ~ScopedSpan()
    {
        if (armed_)
            Tracer::global().end(track_, now_());
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int track_;
    NowFn now_;
    bool armed_;
};

} // namespace xisa::obs

// --- Instrumentation macros (compiled out under XISA_TRACE=OFF) ---------

#if XISA_TRACE

#define OBS_CONCAT2(a, b) a##b
#define OBS_CONCAT(a, b) OBS_CONCAT2(a, b)

/** Scoped span: `OBS_SPAN("cat", "name", track, [&]{ return tSec; });` */
#define OBS_SPAN(cat, name, track, nowFn)                                   \
    ::xisa::obs::ScopedSpan OBS_CONCAT(obs_span_, __LINE__)(track, cat,     \
                                                            name, nowFn)

#define OBS_TRACE_BEGIN(track, cat, name, tsSec)                            \
    do {                                                                    \
        if (::xisa::obs::traceEnabled())                                    \
            ::xisa::obs::Tracer::global().begin(track, cat, name, tsSec);   \
    } while (0)

#define OBS_TRACE_END(track, tsSec)                                         \
    do {                                                                    \
        if (::xisa::obs::traceEnabled())                                    \
            ::xisa::obs::Tracer::global().end(track, tsSec);                \
    } while (0)

#define OBS_TRACE_INSTANT(track, cat, name, tsSec)                          \
    do {                                                                    \
        if (::xisa::obs::traceEnabled())                                    \
            ::xisa::obs::Tracer::global().instant(track, cat, name,         \
                                                  tsSec);                   \
    } while (0)

#define OBS_TRACE_COUNTER(track, name, value, tsSec)                        \
    do {                                                                    \
        if (::xisa::obs::traceEnabled())                                    \
            ::xisa::obs::Tracer::global().counter(track, name, value,       \
                                                  tsSec);                   \
    } while (0)

#else // !XISA_TRACE

#define OBS_SPAN(cat, name, track, nowFn)                                   \
    do {                                                                    \
    } while (0)
#define OBS_TRACE_BEGIN(track, cat, name, tsSec)                            \
    do {                                                                    \
    } while (0)
#define OBS_TRACE_END(track, tsSec)                                         \
    do {                                                                    \
    } while (0)
#define OBS_TRACE_INSTANT(track, cat, name, tsSec)                          \
    do {                                                                    \
    } while (0)
#define OBS_TRACE_COUNTER(track, name, value, tsSec)                        \
    do {                                                                    \
    } while (0)

#endif // XISA_TRACE

#endif // XISA_OBS_TRACE_HH
