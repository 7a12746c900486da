#include "exp/spec.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <type_traits>
#include <utility>

#include "machine/node.hh"

namespace xisa::exp {

namespace {

/** Shortest decimal form that parses back to exactly `v`. */
std::string
fmtDouble(double v)
{
    char buf[64];
    for (int prec : {6, 12, 17}) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
joinList(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &s : items)
        out += (out.empty() ? "" : ", ") + s;
    return out;
}

[[noreturn]] void
specFail(const Config &conf, const std::string &msg)
{
    throw ConfigError(conf.name() + ": " + msg);
}

/**
 * One number of a list or plan entry of `section.key`, read as a whole
 * token: "1@" or "40s" fail at the key's line instead of reading as
 * 1@0 or 40. T is int (decimal, in range) or double (finite).
 */
template <typename T>
T
entryNumber(const Config &conf, const std::string &section,
            const std::string &key, const std::string &tok,
            const std::string &entry)
{
    static_assert(std::is_same_v<T, int> || std::is_same_v<T, double>);
    char *end = nullptr;
    bool ok = !tok.empty() &&
              !std::isspace(static_cast<unsigned char>(tok.front()));
    T v{};
    if constexpr (std::is_same_v<T, int>) {
        errno = 0;
        long l = std::strtol(tok.c_str(), &end, 10);
        ok = ok && errno == 0 && l >= INT_MIN && l <= INT_MAX;
        v = static_cast<int>(l);
    } else {
        v = std::strtod(tok.c_str(), &end);
        ok = ok && std::isfinite(v);
    }
    if (!ok || *end != '\0')
        conf.failAt(section, key,
                    "[" + section + "] " + key + ": bad number '" + tok +
                        "' in entry '" + entry + "'");
    return v;
}

/** "x86*8" -> ("x86", 8); bare names count 1. */
void
splitMachineRef(const std::string &ref, std::string *name, int *count,
                const std::string &context)
{
    size_t star = ref.find('*');
    if (star == std::string::npos) {
        *name = ref;
        *count = 1;
        return;
    }
    *name = ref.substr(0, star);
    while (!name->empty() && name->back() == ' ')
        name->pop_back();
    std::string n = ref.substr(star + 1);
    while (!n.empty() && n.front() == ' ')
        n.erase(n.begin());
    char *end = nullptr;
    long v = std::strtol(n.c_str(), &end, 10);
    if (!end || *end != '\0' || n.empty() || v < 1)
        throw ConfigError(context + ": bad machine count in '" + ref +
                          "' (want NAME or NAME*COUNT)");
    *count = static_cast<int>(v);
}

std::vector<ProblemClass>
parseClassList(const Config &conf, const std::string &key,
               const std::vector<ProblemClass> &def)
{
    if (!conf.has("", key))
        return def;
    std::vector<ProblemClass> out;
    for (const std::string &s : conf.getList("", key)) {
        ProblemClass cls;
        if (!parseProblemClass(s, &cls))
            specFail(conf, "key '" + key + "': bad problem class '" +
                               s + "' (want A, B, or C)");
        out.push_back(cls);
    }
    if (out.empty())
        specFail(conf, "key '" + key + "' must not be empty");
    return out;
}

std::vector<int>
parseThreadList(const Config &conf, const std::string &key,
                const std::vector<int> &def)
{
    if (!conf.has("", key))
        return def;
    std::vector<int> out;
    for (const std::string &s : conf.getList("", key)) {
        char *end = nullptr;
        long v = std::strtol(s.c_str(), &end, 10);
        if (!end || *end != '\0' || v < 1 || v > 16)
            specFail(conf, "key '" + key + "': bad thread count '" + s +
                               "' (want 1..16)");
        out.push_back(static_cast<int>(v));
    }
    if (out.empty())
        specFail(conf, "key '" + key + "' must not be empty");
    return out;
}

std::string
sectionSuffix(const std::string &section)
{
    size_t dot = section.find('.');
    return dot == std::string::npos ? section
                                    : section.substr(dot + 1);
}

/** Split a comma-separated reference list, trimming spaces. */
std::vector<std::string>
splitRefList(const std::string &raw)
{
    std::vector<std::string> refs;
    std::string cur;
    for (char ch : raw + ",") {
        if (ch == ',') {
            while (!cur.empty() && cur.front() == ' ')
                cur.erase(cur.begin());
            while (!cur.empty() && cur.back() == ' ')
                cur.pop_back();
            if (!cur.empty())
                refs.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(ch);
        }
    }
    return refs;
}

} // namespace

namespace {

using K = KindInfo;

constexpr unsigned kFleetSections = K::kNodes | K::kMachines | K::kPools |
                                    K::kNet | K::kSim | K::kFaults |
                                    K::kCrashes | K::kTopology | K::kFooter;

/** The kind table, one row per ExperimentKind, in its order. */
constexpr K kKinds[] = {
    // name, sections, --json, --sweep-json
    {"overhead", K::kNodes | K::kParamSets, true, true},
    {"sustained", kFleetSections, false, false},
    {"rack", kFleetSections, true, false},
    {"single", K::kNodes | K::kParamSets | K::kNet | K::kFaults | K::kOs,
     false, false},
    {"serving", K::kNodes | K::kTraffic | K::kCrashes | K::kTopology |
                    K::kFailures | K::kFooter,
     true, false},
};
static_assert(std::size(kKinds) == size_t(ExperimentKind::Serving) + 1);

} // namespace

const KindInfo &
kindInfo(ExperimentKind k)
{
    return kKinds[static_cast<size_t>(k)];
}

const char *
kindName(ExperimentKind k)
{
    return kindInfo(k).name;
}

Policy
parsePolicy(const std::string &s)
{
    if (s == "static-balanced")
        return Policy::StaticBalanced;
    if (s == "static-unbalanced")
        return Policy::StaticUnbalanced;
    if (s == "dynamic-balanced")
        return Policy::DynamicBalanced;
    if (s == "dynamic-unbalanced")
        return Policy::DynamicUnbalanced;
    throw ConfigError(
        "unknown policy '" + s +
        "' (want static-balanced, static-unbalanced, "
        "dynamic-balanced, or dynamic-unbalanced)");
}

// --- ClusterSpec ----------------------------------------------------

const MachineSpec *
ClusterSpec::findMachine(const std::string &name) const
{
    for (const MachineSpec &m : machines)
        if (m.name == name)
            return &m;
    return nullptr;
}

const NodeOverride *
ClusterSpec::findNode(const std::string &name) const
{
    for (const NodeOverride &n : nodes)
        if (n.name == name)
            return &n;
    return nullptr;
}

NodeSpec
ClusterSpec::makeNode(const std::string &ref) const
{
    if (ref == "xeno")
        return makeXenoServer();
    if (ref == "aether")
        return makeAetherServer();
    const NodeOverride *n = findNode(ref);
    if (!n)
        throw ConfigError("unknown node '" + ref +
                          "' (want xeno, aether, or a [node.*] name)");
    NodeSpec spec =
        n->base == "aether" ? makeAetherServer() : makeXenoServer();
    spec.name = n->name;
    if (n->cores > 0)
        spec.cores = n->cores;
    if (n->freqGHz > 0)
        spec.freqGHz = n->freqGHz;
    if (n->idleWatts > 0)
        spec.idleWatts = n->idleWatts;
    if (n->maxWatts > 0)
        spec.maxWatts = n->maxWatts;
    if (n->memPenaltyCycles > 0)
        spec.memPenaltyCycles =
            static_cast<uint32_t>(n->memPenaltyCycles);
    return spec;
}

std::vector<Machine>
ClusterSpec::makePool(const PoolSpec &pool) const
{
    std::vector<Machine> out;
    for (const std::string &ref : pool.machineRefs) {
        std::string name;
        int count = 0;
        splitMachineRef(ref, &name, &count, "pool '" + pool.name + "'");
        const MachineSpec *ms = findMachine(name);
        if (!ms)
            throw ConfigError("pool '" + pool.name +
                              "' references unknown machine '" + name +
                              "'");
        NodeSpec node = makeNode(ms->node);
        for (int i = 0; i < count; ++i)
            out.push_back({node, ms->powerScale, ms->loadWeight});
    }
    return out;
}

ClusterSim::Config
ClusterSpec::simConfig() const
{
    ClusterSim::Config c;
    c.rebalancePeriod = rebalancePeriod;
    c.migrationFixedSeconds = migrationFixedSeconds;
    c.workingSetBytesPerScale = workingSetMib * 1024.0 * 1024.0;
    c.sleepFraction = sleepFraction;
    c.checkpointPeriod = checkpointPeriod;
    c.net.latencyUs = latencyUs;
    c.net.gbitPerSec = gbitPerSec;
    if (hasFaults)
        c.net.faults = faults;
    for (const CrashSpec &cs : crashPlan) {
        CrashEvent ev;
        ev.machine = cs.machine;
        ev.time = cs.time;
        ev.downSeconds = crashDownSeconds;
        c.crashes.push_back(ev);
    }
    c.topo = topo;
    return c;
}

// --- The conf schema ------------------------------------------------

namespace {

/** Whether a key must be present; the writer writes every key. */
enum class Need { Optional, Required };

/**
 * Reads each key a key list visits into its field, whose value on
 * entry is the default. Integers go through getInt, so a field of any
 * integer width reads the same way. List- and plan-valued keys are
 * read by hand in parseExperiment, beside their checks.
 */
struct KeyReader {
    const Config &conf;
    std::string sec;
    unsigned sections = 0; ///< the section bits of the kind's row

    /** Visit a section of the kind's row that the conf has. */
    bool
    section(unsigned bit, const char *name, bool /*written*/)
    {
        sec = name;
        return (sections & bit) && conf.hasSection(name);
    }

    template <typename T>
    void
    operator()(const char *key, T &v, Need need = Need::Optional) const
    {
        if (need == Need::Required)
            conf.requireString(sec, key);
        if constexpr (std::is_same_v<T, std::string>)
            v = conf.getString(sec, key, v);
        else if constexpr (std::is_same_v<T, bool>)
            v = conf.getBool(sec, key, v);
        else if constexpr (std::is_floating_point_v<T>)
            v = conf.getDouble(sec, key, v);
        else
            v = static_cast<T>(
                conf.getInt(sec, key, static_cast<int64_t>(v)));
    }

    template <typename T>
    void
    list(const char *, const std::vector<T> &) const
    {}
};

std::string entryText(const std::string &s) { return s; }
std::string entryText(int v) { return std::to_string(v); }
std::string entryText(ProblemClass c) { return className(c); }

std::string
entryText(const CrashSpec &cs)
{
    return std::to_string(cs.machine) + "@" + fmtDouble(cs.time);
}

std::string
entryText(const ShardMigrationSpec &m)
{
    return std::to_string(m.shard) + "@" + fmtDouble(m.time) + "->" +
           std::to_string(m.node);
}

std::string
entryText(const FailureSpec &f)
{
    return f.kind + ":" + std::to_string(f.domain) + "@" +
           fmtDouble(f.at) + ".." + fmtDouble(f.heal);
}

/** Writes each key a key list visits as one canonical line. */
struct KeyWriter {
    std::string out;
    unsigned sections = 0; ///< the section bits of the kind's row

    /** Open a section of the kind's row when `written` holds. */
    bool
    section(unsigned bit, const char *name, bool written)
    {
        if (!(sections & bit) || !written)
            return false;
        out += std::string("\n[") + name + "]\n";
        return true;
    }

    template <typename T>
    void
    operator()(const char *key, const T &v, Need = Need::Optional)
    {
        std::string text;
        if constexpr (std::is_same_v<T, bool>)
            text = v ? "true" : "false";
        else if constexpr (std::is_floating_point_v<T>)
            text = fmtDouble(v);
        else if constexpr (std::is_integral_v<T>)
            text = std::to_string(v);
        else
            text = v;
        out += std::string(key) + " = " + confQuote(text) + "\n";
    }

    template <typename T>
    void
    list(const char *key, const std::vector<T> &items)
    {
        std::vector<std::string> texts;
        for (const T &item : items)
            texts.push_back(entryText(item));
        (*this)(key, joinList(texts));
    }
};

// The key lists: every key bound to its field, in canonical order.
// parseExperiment visits them with a KeyReader and serializeSpec with
// a KeyWriter. A list- or plan-valued key (`v.list`) is written from
// here and read by hand beside its checks. `kind`, [paramset.*],
// [pool.*] and the computed default of `duration_quick` are read and
// written by hand.

/** The top-level keys after `kind`. */
template <typename V, typename S>
void
topKeys(V &&v, S &s)
{
    v("figure", s.figure, Need::Required);
    v("title", s.title, Need::Required);
    if (kindInfo(s.kind).writesJson)
        v("bench_name", s.benchName);
    switch (s.kind) {
      case ExperimentKind::Overhead:
        v.list("workloads", s.workloads);
        v.list("isas", s.isas);
        v.list("classes", s.classes);
        v.list("classes_quick", s.classesQuick);
        v.list("threads", s.threads);
        v.list("threads_quick", s.threadsQuick);
        break;
      case ExperimentKind::Sustained:
      case ExperimentKind::Rack:
        // `sets_quick = 0` (the default) runs `sets` under XISA_QUICK too.
        v("sets", s.sets, Need::Required);
        v("sets_quick", s.setsQuick);
        v("seed_base", s.seedBase, Need::Required);
        if (s.kind == ExperimentKind::Sustained) {
            v("jobs_per_set", s.jobsPerSet);
        } else {
            v("waves", s.waves);
            v("jobs_per_wave_per_machine", s.jobsPerWavePerMachine);
            v("pool_machines", s.poolMachines);
        }
        break;
      case ExperimentKind::Single:
        v("workload", s.workloadRef, Need::Required);
        v("machines", s.singleMachines, Need::Required);
        v("start_node", s.startNode);
        break;
      case ExperimentKind::Serving:
        v("machines", s.singleMachines, Need::Required);
        break;
    }
}

template <typename V, typename N>
void
nodeKeys(V &&v, N &n)
{
    v("base", n.base, Need::Required);
    v("cores", n.cores);
    v("freq_ghz", n.freqGHz);
    v("idle_watts", n.idleWatts);
    v("max_watts", n.maxWatts);
    v("mem_penalty", n.memPenaltyCycles);
}

template <typename V, typename M>
void
machineKeys(V &&v, M &m)
{
    v("node", m.node, Need::Required);
    v("power_scale", m.powerScale);
    v("load_weight", m.loadWeight);
}

/** The fixed sections after the named ones. The writer leaves out a
 *  section whose `written` test fails. */
template <typename V, typename S>
void
sectionKeys(V &&v, S &s)
{
    auto &c = s.cluster;
    auto &t = s.traffic;
    if (v.section(K::kTraffic, "traffic", true)) {
        v("seed", t.seed);
        v("clients", t.clients);
        v("request_hz", t.requestHz);
        v("duration", t.duration);
        v("duration_quick", t.durationQuick);
        v("zipf_skew", t.zipfSkew);
        v("key_space", t.keySpace);
        v("get_fraction", t.getFraction);
        v("slo_us", t.sloUs);
        v("shards", t.shards);
        v.list("placement", t.placement);
        if (!t.migratePlan.empty())
            v.list("migrate_plan", t.migratePlan);
    }
    if (v.section(K::kNet, "net", true)) {
        v("latency_us", c.latencyUs);
        v("gbit_per_sec", c.gbitPerSec);
    }
    if (v.section(K::kSim, "sim", true)) {
        v("rebalance_period", c.rebalancePeriod);
        v("migration_fixed_seconds", c.migrationFixedSeconds);
        v("working_set_mib", c.workingSetMib);
        v("sleep_fraction", c.sleepFraction);
        v("checkpoint_period", c.checkpointPeriod);
    }
    if (v.section(K::kFaults, "faults", c.hasFaults)) {
        auto &f = c.faults;
        v("seed", f.seed);
        v("drop_prob", f.dropProb);
        v("dup_prob", f.dupProb);
        v("spike_prob", f.spikeProb);
        v("spike_max_us", f.spikeMaxUs);
        v("degrade_factor", f.degradeFactor);
        v("degrade_period", f.degradePeriodMsgs);
        v("degrade_len", f.degradeLenMsgs);
        v("partition_period", f.partitionPeriodMsgs);
        v("partition_len", f.partitionLenMsgs);
    }
    if (v.section(K::kTopology, "topology", c.topo.machinesPerRack > 0)) {
        v("machines_per_rack", c.topo.machinesPerRack);
        v("racks_per_pod", c.topo.racksPerPod);
        v("tor_oversub", c.topo.torOversub);
        v("agg_oversub", c.topo.aggOversub);
        v("rack_hop_us", c.topo.rackHopUs);
        v("agg_hop_us", c.topo.aggHopUs);
        v("locality_bias", c.topo.localityBias);
    }
    if (v.section(K::kCrashes, "crashes", !c.crashPlan.empty())) {
        v("down_seconds", c.crashDownSeconds);
        v.list("plan", c.crashPlan);
    }
    if (v.section(K::kFailures, "failures", !s.failures.empty())) {
        v("seed", s.failureSeed);
        v("shed_deciles", s.shedDeciles);
        v.list("plan", s.failures);
    }
    if (v.section(K::kOs, "os", true)) {
        v("quantum", s.quantum);
        v("dsm_mode", s.dsmMode);
    }
    if (v.section(K::kFooter, "footer", !s.footer.empty()))
        v("text", s.footer);
}

// --- Parsing --------------------------------------------------------

ExperimentKind
parseKind(const Config &conf)
{
    const std::string name = conf.requireString("", "kind");
    std::string want;
    for (size_t i = 0; i < std::size(kKinds); ++i) {
        if (name == kKinds[i].name)
            return static_cast<ExperimentKind>(i);
        want += std::string(i ? ", " : "") +
                (i + 1 == std::size(kKinds) ? "or " : "") + kKinds[i].name;
    }
    specFail(conf, "unknown kind '" + name + "' (want " + want + ")");
}

void
readParamSets(Config &conf, std::vector<ParamSetSpec> &out)
{
    for (const std::string &sec :
         conf.sectionsWithPrefix("paramset.")) {
        ParamSetSpec ps;
        ps.name = sectionSuffix(sec);
        for (const std::string &key : conf.keysOf(sec))
            ps.params.set(key, conf.getString(sec, key, ""));
        out.push_back(ps);
    }
}

void
readNodes(Config &conf, ClusterSpec &c)
{
    for (const std::string &sec : conf.sectionsWithPrefix("node.")) {
        NodeOverride n;
        n.name = sectionSuffix(sec);
        nodeKeys(KeyReader{conf, sec}, n);
        if (n.base != "xeno" && n.base != "aether")
            specFail(conf, "[" + sec + "] base must be xeno or aether, "
                           "got '" + n.base + "'");
        c.nodes.push_back(n);
    }
}

void
readMachines(Config &conf, ClusterSpec &c)
{
    for (const std::string &sec : conf.sectionsWithPrefix("machine.")) {
        MachineSpec m;
        m.name = sectionSuffix(sec);
        machineKeys(KeyReader{conf, sec}, m);
        if (m.node != "xeno" && m.node != "aether" &&
            !c.findNode(m.node))
            specFail(conf, "[" + sec + "] references unknown node '" +
                               m.node + "'");
        c.machines.push_back(m);
    }
}

/** [pool.*] is read and written by hand: `machines` is a list,
 *  `policy` an enum, and each label defaults to another. */
void
readPools(Config &conf, ClusterSpec &c)
{
    for (const std::string &sec : conf.sectionsWithPrefix("pool.")) {
        PoolSpec p;
        p.name = sectionSuffix(sec);
        p.machineRefs = conf.getList(sec, "machines");
        if (p.machineRefs.empty())
            specFail(conf, "[" + sec + "] needs a machines list");
        try {
            p.policy = parsePolicy(conf.requireString(sec, "policy"));
        } catch (const ConfigError &e) {
            specFail(conf, "[" + sec + "] " + e.what());
        }
        p.baseline = conf.getBool(sec, "baseline", false);
        p.label = conf.getString(sec, "label", p.name);
        p.column = conf.getString(sec, "column", p.label);
        p.mkspLabel = conf.getString(sec, "mksp_label", p.name);
        p.shortLabel = conf.getString(sec, "short_label", p.name);
        c.pools.push_back(p);
    }
    // Validate the pool machine refs now so errors carry the file name.
    for (const PoolSpec &p : c.pools) {
        try {
            c.makePool(p);
        } catch (const ConfigError &e) {
            specFail(conf, e.what());
        }
    }
}

void
readCrashPlan(Config &conf, ClusterSpec &c)
{
    for (const std::string &ev : conf.getList("crashes", "plan")) {
        size_t at = ev.find('@');
        if (at == std::string::npos)
            specFail(conf, "[crashes] plan entries want "
                           "MACHINE@SECONDS, got '" + ev + "'");
        CrashSpec cs;
        cs.machine = entryNumber<int>(conf, "crashes", "plan",
                                      ev.substr(0, at), ev);
        cs.time = entryNumber<double>(conf, "crashes", "plan",
                                      ev.substr(at + 1), ev);
        if (cs.machine < 0 || cs.time < 0)
            specFail(conf, "[crashes] plan: malformed '" + ev + "'");
        c.crashPlan.push_back(cs);
    }
}

void
validatePools(const Config &conf, const ExperimentSpec &s,
              bool needTwoMachines)
{
    if (s.cluster.pools.empty())
        specFail(conf, std::string(kindName(s.kind)) +
                           " experiments need at least one [pool.*]");
    int baselines = 0;
    for (const PoolSpec &p : s.cluster.pools)
        baselines += p.baseline ? 1 : 0;
    if (baselines != 1)
        specFail(conf, "exactly one pool must set baseline = true (" +
                           std::to_string(baselines) + " found)");
    if (!s.cluster.pools.front().baseline)
        specFail(conf, "the baseline pool must be declared first "
                       "(deltas are computed against it)");
    for (const PoolSpec &p : s.cluster.pools) {
        const size_t size = s.cluster.makePool(p).size();
        if (needTwoMachines && size != 2)
            specFail(conf, "pool '" + p.name +
                               "': sustained experiments report "
                               "per-machine energy for exactly 2 "
                               "machines per pool");
        // Every pool's ClusterSim runs the whole crash plan.
        for (const CrashSpec &cs : s.cluster.crashPlan)
            if (cs.machine >= static_cast<int>(size))
                specFail(conf, "[crashes] plan names machine " +
                                   std::to_string(cs.machine) +
                                   " but pool '" + p.name + "' has " +
                                   std::to_string(size) + " machines");
    }
    if (!s.cluster.crashPlan.empty() && !(s.cluster.crashDownSeconds > 0))
        specFail(conf, "[crashes] down_seconds must be > 0");
}

} // namespace

ExperimentSpec
parseExperiment(Config &conf)
{
    ExperimentSpec s;
    s.source = conf.name();
    s.kind = parseKind(conf);
    const unsigned sections = kindInfo(s.kind).sections;
    ClusterSpec &c = s.cluster;
    topKeys(KeyReader{conf, ""}, s);
    if (sections & K::kParamSets)
        readParamSets(conf, s.paramSets);
    if (sections & K::kNodes)
        readNodes(conf, c);
    if (sections & K::kMachines)
        readMachines(conf, c);
    if (sections & K::kPools)
        readPools(conf, c);
    sectionKeys(KeyReader{conf, "", sections}, s);
    c.hasFaults = (sections & K::kFaults) && conf.hasSection("faults");
    if (const char *err = topologyConfigError(c.topo))
        specFail(conf, std::string("[topology] ") + err);
    if (sections & K::kCrashes)
        readCrashPlan(conf, c);
    if ((sections & K::kTraffic) && !conf.has("traffic", "duration_quick"))
        s.traffic.durationQuick = s.traffic.duration / 8.0;

    switch (s.kind) {
      case ExperimentKind::Overhead: {
        s.workloads = conf.getList("", "workloads");
        if (s.workloads.empty())
            specFail(conf, "overhead experiments need a workloads "
                           "list");
        s.isas = conf.has("", "isas")
                     ? conf.getList("", "isas")
                     : std::vector<std::string>{"aether", "xeno"};
        for (const std::string &isa : s.isas) {
            try {
                s.cluster.makeNode(isa);
            } catch (const ConfigError &e) {
                specFail(conf, e.what());
            }
        }
        s.classes = parseClassList(conf, "classes",
                                   {ProblemClass::A, ProblemClass::B,
                                    ProblemClass::C});
        s.classesQuick =
            parseClassList(conf, "classes_quick", {ProblemClass::A});
        s.threads = parseThreadList(conf, "threads", {1, 2, 4, 8});
        s.threadsQuick = parseThreadList(conf, "threads_quick", {1, 4});
        break;
      }
      case ExperimentKind::Sustained:
      case ExperimentKind::Rack: {
        const bool sustained = s.kind == ExperimentKind::Sustained;
        if (s.setsQuick < 0)
            conf.failAt("", "sets_quick",
                        "key 'sets_quick' must be >= 0 (0 runs 'sets'), "
                        "got " + std::to_string(s.setsQuick));
        if (sustained && (s.sets < 1 || s.jobsPerSet < 1))
            specFail(conf, "sets and jobs_per_set must be >= 1");
        if (!sustained && (s.sets < 1 || s.waves < 1 ||
                           s.jobsPerWavePerMachine < 1 ||
                           s.poolMachines < 1))
            specFail(conf, "sets, waves, jobs_per_wave_per_machine "
                           "and pool_machines must be >= 1");
        validatePools(conf, s, /*needTwoMachines=*/sustained);
        break;
      }
      case ExperimentKind::Single: {
        if (s.dsmMode != "migrate" && s.dsmMode != "remote")
            specFail(conf, "[os] dsm_mode must be migrate or remote, "
                           "got '" + s.dsmMode + "'");
        std::vector<std::string> refs = splitRefList(s.singleMachines);
        if (refs.empty())
            specFail(conf, "single experiments need a machines list");
        for (const std::string &ref : refs) {
            try {
                s.cluster.makeNode(ref);
            } catch (const ConfigError &e) {
                specFail(conf, e.what());
            }
        }
        if (s.startNode < 0 ||
            s.startNode >= static_cast<int>(refs.size()))
            specFail(conf, "start_node out of range");
        s.singleMachineRefs = refs;
        break;
      }
      case ExperimentKind::Serving: {
        // Serving fleets can be large, so the machines list accepts
        // the pool-style NAME*COUNT shorthand ("xeno*500").
        std::vector<std::string> refs;
        for (const std::string &raw : splitRefList(s.singleMachines)) {
            std::string name;
            int count = 0;
            try {
                splitMachineRef(raw, &name, &count, "machines list");
            } catch (const ConfigError &e) {
                specFail(conf, e.what());
            }
            for (int i = 0; i < count; ++i)
                refs.push_back(name);
        }
        if (refs.empty())
            specFail(conf, "serving experiments need a machines list");
        if (refs.size() > 4096)
            specFail(conf, "serving machines list expands to more "
                           "than 4096 nodes");
        for (const std::string &ref : refs) {
            try {
                s.cluster.makeNode(ref);
            } catch (const ConfigError &e) {
                specFail(conf, e.what());
            }
        }
        s.singleMachineRefs = refs;
        const int nodeCount = static_cast<int>(refs.size());

        TrafficSpec &t = s.traffic;
        if (t.clients < 1)
            specFail(conf, "[traffic] clients must be >= 1");
        if (t.requestHz <= 0 || t.duration <= 0 || t.durationQuick <= 0)
            specFail(conf, "[traffic] request_hz, duration and "
                           "duration_quick must be > 0");
        if (t.zipfSkew < 0 || t.zipfSkew >= 1)
            specFail(conf, "[traffic] zipf_skew must be in [0, 1)");
        if (t.keySpace < 1 || t.keySpace > (int64_t{1} << 24))
            specFail(conf, "[traffic] key_space must be in [1, 2^24]");
        if (t.getFraction < 0 || t.getFraction > 1)
            specFail(conf, "[traffic] get_fraction must be in [0, 1]");
        if (t.sloUs <= 0)
            specFail(conf, "[traffic] slo_us must be > 0");
        if (t.shards < 1 || t.shards > 256)
            specFail(conf, "[traffic] shards must be in [1, 256]");
        // The generator sizes its stream up front, so cap the volume
        // of the quick run as well as the full one.
        const std::pair<const char *, double> runs[] = {
            {"duration", t.duration}, {"duration_quick", t.durationQuick}};
        for (const auto &[key, secs] : runs)
            if (static_cast<double>(t.clients) * t.requestHz * secs > 2e7)
                conf.failAt("traffic", key,
                            "[traffic] clients * request_hz * " +
                                std::string(key) + " exceeds 20M requests");
        if (conf.has("traffic", "placement")) {
            for (const std::string &p :
                 conf.getList("traffic", "placement"))
                t.placement.push_back(entryNumber<int>(
                    conf, "traffic", "placement", p, p));
            if (static_cast<int>(t.placement.size()) != t.shards)
                specFail(conf, "[traffic] placement must list one "
                               "machine per shard");
        } else {
            for (int i = 0; i < t.shards; ++i)
                t.placement.push_back(i % nodeCount);
        }
        for (int p : t.placement)
            if (p < 0 || p >= nodeCount)
                specFail(conf, "[traffic] placement machine index "
                               "out of range");
        if (conf.has("traffic", "migrate_plan")) {
            for (const std::string &ev :
                 conf.getList("traffic", "migrate_plan")) {
                size_t at = ev.find('@');
                size_t arrow = ev.find("->");
                if (at == std::string::npos ||
                    arrow == std::string::npos || arrow < at)
                    specFail(conf,
                             "[traffic] migrate_plan entries are "
                             "SHARD@FRAC->NODE, got '" + ev + "'");
                ShardMigrationSpec m;
                m.shard = entryNumber<int>(conf, "traffic",
                                           "migrate_plan",
                                           ev.substr(0, at), ev);
                m.time = entryNumber<double>(
                    conf, "traffic", "migrate_plan",
                    ev.substr(at + 1, arrow - at - 1), ev);
                m.node = entryNumber<int>(conf, "traffic",
                                          "migrate_plan",
                                          ev.substr(arrow + 2), ev);
                if (m.shard < 0 || m.shard >= t.shards)
                    specFail(conf, "[traffic] migrate_plan shard out "
                                   "of range");
                if (m.time < 0 || m.time >= 1)
                    specFail(conf, "[traffic] migrate_plan times are "
                                   "fractions of the run, in [0, 1)");
                if (m.node < 0 || m.node >= nodeCount)
                    specFail(conf, "[traffic] migrate_plan machine "
                                   "index out of range");
                t.migratePlan.push_back(m);
            }
        }
        // Serving reinterprets [crashes] plan times as fractions of
        // the active duration so quick mode keeps the same schedule.
        for (const CrashSpec &cs : s.cluster.crashPlan) {
            if (cs.machine < 0 || cs.machine >= nodeCount)
                specFail(conf, "[crashes] machine index out of range "
                               "for the serving machines list");
            if (cs.time < 0 || cs.time >= 1)
                specFail(conf, "[crashes] serving crash times are "
                               "fractions of the run, in [0, 1)");
        }
        // [failures]: correlated domain outages. Windows are
        // fractions of the active duration, like every serving
        // schedule (the conversion to seconds happens once, in
        // applyFailures).
        if (conf.hasSection("failures")) {
            if (s.cluster.topo.machinesPerRack <= 0)
                specFail(conf,
                         "[failures] needs [topology] "
                         "machines_per_rack to define the failure "
                         "domains");
            if (s.shedDeciles < 1 || s.shedDeciles > 10)
                specFail(conf,
                         "[failures] shed_deciles must be in [1, 10]");
            const int perRack = s.cluster.topo.machinesPerRack;
            const int racks = (nodeCount + perRack - 1) / perRack;
            const int pods =
                s.cluster.topo.racksPerPod > 0
                    ? (racks + s.cluster.topo.racksPerPod - 1) /
                          s.cluster.topo.racksPerPod
                    : 1;
            for (const std::string &ev :
                 conf.getList("failures", "plan")) {
                size_t colon = ev.find(':');
                size_t at = ev.find('@');
                size_t dots = ev.find("..");
                if (colon == std::string::npos ||
                    at == std::string::npos ||
                    dots == std::string::npos || at < colon ||
                    dots < at)
                    specFail(conf, "[failures] plan entries are "
                                   "KIND:DOMAIN@AT..HEAL, got '" +
                                       ev + "'");
                FailureSpec f;
                f.kind = ev.substr(0, colon);
                f.domain = entryNumber<int>(
                    conf, "failures", "plan",
                    ev.substr(colon + 1, at - colon - 1), ev);
                f.at = entryNumber<double>(
                    conf, "failures", "plan",
                    ev.substr(at + 1, dots - at - 1), ev);
                f.heal = entryNumber<double>(conf, "failures", "plan",
                                             ev.substr(dots + 2), ev);
                if (f.kind != "tor" && f.kind != "agg" &&
                    f.kind != "pdu" && f.kind != "partition")
                    specFail(conf,
                             "[failures] kind must be tor, agg, pdu, "
                             "or partition, got '" + f.kind + "'");
                const int domains = f.kind == "agg" ? pods : racks;
                if (f.domain < 0 || f.domain >= domains)
                    specFail(conf,
                             "[failures] " + f.kind + " domain " +
                                 std::to_string(f.domain) +
                                 " out of range (topology has " +
                                 std::to_string(domains) + ")");
                if (!(f.at >= 0 && f.at < f.heal && f.heal <= 1))
                    specFail(conf,
                             "[failures] windows are fractions of "
                             "the run with 0 <= at < heal <= 1, got "
                             "'" + ev + "'");
                s.failures.push_back(f);
            }
            if (s.failures.empty())
                specFail(conf, "[failures] needs a plan list");
        }
        break;
      }
    }

    // Workload references (overhead + single) must resolve against the
    // registry carrying this spec's parameter sets, and an overhead
    // thread sweep may only name thread-capable workloads.
    if (s.kind == ExperimentKind::Overhead ||
        s.kind == ExperimentKind::Single) {
        WorkloadRegistry reg = makeRegistry(s);
        std::vector<std::string> refs =
            s.kind == ExperimentKind::Overhead
                ? s.workloads
                : std::vector<std::string>{s.workloadRef};
        for (const std::string &ref : refs) {
            const WorkloadProvider *provider = nullptr;
            try {
                provider = reg.resolve(ref).provider;
            } catch (const ConfigError &e) {
                specFail(conf, e.what());
            }
            if (s.kind != ExperimentKind::Overhead ||
                provider->threadCapable())
                continue;
            for (bool quick : {false, true})
                for (int t : s.activeThreads(quick))
                    if (t > 1)
                        specFail(conf, "workload '" + provider->name() +
                                           "' is serial-only but " +
                                           (quick ? "threads_quick"
                                                  : "threads") +
                                           " includes " +
                                           std::to_string(t));
        }
    }

    conf.requireAllUsed(std::string("kind = ") + kindName(s.kind));
    return s;
}

ExperimentSpec
parseExperimentFile(const std::string &path)
{
    Config conf = Config::parseFile(path);
    return parseExperiment(conf);
}

WorkloadRegistry
makeRegistry(const ExperimentSpec &spec)
{
    WorkloadRegistry reg;
    for (const WorkloadDesc &d : workloadTable())
        reg.add(makeTableProvider(d));
    for (const ParamSetSpec &ps : spec.paramSets)
        reg.defineParamSet(ps.name, ps.params);
    return reg;
}

// --- Serialization --------------------------------------------------

std::string
serializeSpec(const ExperimentSpec &s)
{
    // Exactly the sections parseExperiment reads for this kind, so the
    // canonical text of a hand-built spec parses back too. The named
    // sections are empty unless the kind reads them.
    KeyWriter w;
    w.sections = kindInfo(s.kind).sections;
    w.out += "# canonical spec (xisa_exp --print-spec)\n";
    w("kind", std::string(kindName(s.kind)));
    topKeys(w, s);
    for (const ParamSetSpec &ps : s.paramSets) {
        w.out += "\n[paramset." + ps.name + "]\n";
        for (const std::string &key : ps.params.keys())
            w(key.c_str(), ps.params.getString(key, ""));
    }
    for (const NodeOverride &n : s.cluster.nodes) {
        w.out += "\n[node." + n.name + "]\n";
        nodeKeys(w, n);
    }
    for (const MachineSpec &m : s.cluster.machines) {
        w.out += "\n[machine." + m.name + "]\n";
        machineKeys(w, m);
    }
    for (const PoolSpec &p : s.cluster.pools) {
        w.out += "\n[pool." + p.name + "]\n";
        w.list("machines", p.machineRefs);
        w("policy", std::string(policyName(p.policy)));
        w("baseline", p.baseline);
        w("label", p.label);
        w("column", p.column);
        w("mksp_label", p.mkspLabel);
        w("short_label", p.shortLabel);
    }
    sectionKeys(w, s);
    return w.out;
}

} // namespace xisa::exp
