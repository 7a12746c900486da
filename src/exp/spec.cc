#include "exp/spec.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
fmtU64(uint64_t v)
{
    return std::to_string(static_cast<unsigned long long>(v));
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

const char *
kindName(ExperimentKind k)
{
    switch (k) {
      case ExperimentKind::Overhead: return "overhead";
      case ExperimentKind::Sustained: return "sustained";
      case ExperimentKind::Rack: return "rack";
      case ExperimentKind::Single: return "single";
      case ExperimentKind::Serving: return "serving";
    }
    return "?";
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

// --- Parsing --------------------------------------------------------

namespace {

/**
 * The shared sections, one bit each. A kind reads exactly the sections
 * its runner uses (kindSections), and serializeSpec writes exactly
 * those, so requireAllUsed rejects a section the kind never reads. The
 * kind-private sections ([os] for single, [traffic] and [failures] for
 * serving) are read in their kind's case of parseExperiment.
 */
enum SectionBit : unsigned {
    kNodes = 1u << 0,     ///< [node.*]
    kParamSets = 1u << 1, ///< [paramset.*]
    kMachines = 1u << 2,  ///< [machine.*]
    kPools = 1u << 3,     ///< [pool.*]
    kNet = 1u << 4,
    kSim = 1u << 5,
    kFaults = 1u << 6,
    kCrashes = 1u << 7,
    kTopology = 1u << 8,
    kFooter = 1u << 9,
};

/** Read numeric `key` of `sec` into `v`, whose value is the default. */
template <typename T>
void
read(const Config &conf, const std::string &sec, const char *key, T &v)
{
    if constexpr (std::is_floating_point_v<T>)
        v = conf.getDouble(sec, key, v);
    else
        v = static_cast<T>(conf.getInt(sec, key, static_cast<int64_t>(v)));
}

/** The set sweep of sustained/rack: `sets`, `sets_quick`, `seed_base`.
 *  `sets_quick = 0` (the default) runs `sets` under XISA_QUICK too. */
void
readSets(const Config &conf, ExperimentSpec &s)
{
    s.sets = static_cast<int>(conf.requireInt("", "sets"));
    read(conf, "", "sets_quick", s.setsQuick);
    if (s.setsQuick < 0)
        conf.failAt("", "sets_quick",
                    "key 'sets_quick' must be >= 0 (0 runs 'sets'), "
                    "got " + std::to_string(s.setsQuick));
    s.seedBase = static_cast<uint64_t>(conf.requireInt("", "seed_base"));
}

unsigned
kindSections(ExperimentKind k)
{
    switch (k) {
      case ExperimentKind::Overhead: return kNodes | kParamSets;
      case ExperimentKind::Single:
        return kNodes | kParamSets | kNet | kFaults;
      case ExperimentKind::Sustained:
      case ExperimentKind::Rack:
        return kNodes | kMachines | kPools | kNet | kSim | kFaults |
               kCrashes | kTopology | kFooter;
      case ExperimentKind::Serving:
        return kNodes | kCrashes | kTopology | kFooter;
    }
    return 0;
}

/** The kinds whose runner writes --json, the one output `bench_name`
 *  labels; every other kind rejects the key. */
bool
writesPerfJson(ExperimentKind k)
{
    return k == ExperimentKind::Overhead || k == ExperimentKind::Rack ||
           k == ExperimentKind::Serving;
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
        n.base = conf.requireString(sec, "base");
        if (n.base != "xeno" && n.base != "aether")
            specFail(conf, "[" + sec + "] base must be xeno or aether, "
                           "got '" + n.base + "'");
        read(conf, sec, "cores", n.cores);
        read(conf, sec, "freq_ghz", n.freqGHz);
        read(conf, sec, "idle_watts", n.idleWatts);
        read(conf, sec, "max_watts", n.maxWatts);
        read(conf, sec, "mem_penalty", n.memPenaltyCycles);
        c.nodes.push_back(n);
    }
}

void
readMachines(Config &conf, ClusterSpec &c)
{
    for (const std::string &sec : conf.sectionsWithPrefix("machine.")) {
        MachineSpec m;
        m.name = sectionSuffix(sec);
        m.node = conf.requireString(sec, "node");
        read(conf, sec, "power_scale", m.powerScale);
        read(conf, sec, "load_weight", m.loadWeight);
        if (m.node != "xeno" && m.node != "aether" &&
            !c.findNode(m.node))
            specFail(conf, "[" + sec + "] references unknown node '" +
                               m.node + "'");
        c.machines.push_back(m);
    }
}

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
readNet(Config &conf, ClusterSpec &c)
{
    read(conf, "net", "latency_us", c.latencyUs);
    read(conf, "net", "gbit_per_sec", c.gbitPerSec);
}

void
readSim(Config &conf, ClusterSpec &c)
{
    read(conf, "sim", "rebalance_period", c.rebalancePeriod);
    read(conf, "sim", "migration_fixed_seconds", c.migrationFixedSeconds);
    read(conf, "sim", "working_set_mib", c.workingSetMib);
    read(conf, "sim", "sleep_fraction", c.sleepFraction);
    read(conf, "sim", "checkpoint_period", c.checkpointPeriod);
}

void
readFaults(Config &conf, ClusterSpec &c)
{
    if (!conf.hasSection("faults"))
        return;
    c.hasFaults = true;
    FaultConfig &f = c.faults;
    read(conf, "faults", "seed", f.seed);
    read(conf, "faults", "drop_prob", f.dropProb);
    read(conf, "faults", "dup_prob", f.dupProb);
    read(conf, "faults", "spike_prob", f.spikeProb);
    read(conf, "faults", "spike_max_us", f.spikeMaxUs);
    read(conf, "faults", "degrade_factor", f.degradeFactor);
    read(conf, "faults", "degrade_period", f.degradePeriodMsgs);
    read(conf, "faults", "degrade_len", f.degradeLenMsgs);
    read(conf, "faults", "partition_period", f.partitionPeriodMsgs);
    read(conf, "faults", "partition_len", f.partitionLenMsgs);
}

void
readTopology(Config &conf, ClusterSpec &c)
{
    if (!conf.hasSection("topology"))
        return;
    TopologyConfig &t = c.topo;
    read(conf, "topology", "machines_per_rack", t.machinesPerRack);
    read(conf, "topology", "racks_per_pod", t.racksPerPod);
    read(conf, "topology", "tor_oversub", t.torOversub);
    read(conf, "topology", "agg_oversub", t.aggOversub);
    read(conf, "topology", "rack_hop_us", t.rackHopUs);
    read(conf, "topology", "agg_hop_us", t.aggHopUs);
    read(conf, "topology", "locality_bias", t.localityBias);
    if (const char *err = topologyConfigError(t))
        specFail(conf, std::string("[topology] ") + err);
}

void
readCrashes(Config &conf, ClusterSpec &c)
{
    if (!conf.hasSection("crashes"))
        return;
    read(conf, "crashes", "down_seconds", c.crashDownSeconds);
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

    std::string kindStr = conf.requireString("", "kind");
    if (kindStr == "overhead")
        s.kind = ExperimentKind::Overhead;
    else if (kindStr == "sustained")
        s.kind = ExperimentKind::Sustained;
    else if (kindStr == "rack")
        s.kind = ExperimentKind::Rack;
    else if (kindStr == "single")
        s.kind = ExperimentKind::Single;
    else if (kindStr == "serving")
        s.kind = ExperimentKind::Serving;
    else
        specFail(conf, "unknown kind '" + kindStr +
                           "' (want overhead, sustained, rack, "
                           "single, or serving)");
    s.figure = conf.requireString("", "figure");
    s.title = conf.requireString("", "title");
    if (writesPerfJson(s.kind))
        s.benchName = conf.getString("", "bench_name", s.benchName);

    const unsigned sections = kindSections(s.kind);
    if (sections & kParamSets)
        readParamSets(conf, s.paramSets);
    if (sections & kNodes)
        readNodes(conf, s.cluster);
    if (sections & kMachines)
        readMachines(conf, s.cluster);
    if (sections & kPools)
        readPools(conf, s.cluster);
    if (sections & kNet)
        readNet(conf, s.cluster);
    if (sections & kSim)
        readSim(conf, s.cluster);
    if (sections & kFaults)
        readFaults(conf, s.cluster);
    if (sections & kTopology)
        readTopology(conf, s.cluster);
    if (sections & kCrashes)
        readCrashes(conf, s.cluster);
    if (sections & kFooter)
        s.footer = conf.getString("footer", "text", "");

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
      case ExperimentKind::Sustained: {
        readSets(conf, s);
        read(conf, "", "jobs_per_set", s.jobsPerSet);
        if (s.sets < 1 || s.jobsPerSet < 1)
            specFail(conf, "sets and jobs_per_set must be >= 1");
        validatePools(conf, s, /*needTwoMachines=*/true);
        break;
      }
      case ExperimentKind::Rack: {
        readSets(conf, s);
        read(conf, "", "waves", s.waves);
        read(conf, "", "jobs_per_wave_per_machine",
             s.jobsPerWavePerMachine);
        read(conf, "", "pool_machines", s.poolMachines);
        if (s.sets < 1 || s.waves < 1 ||
            s.jobsPerWavePerMachine < 1 || s.poolMachines < 1)
            specFail(conf, "sets, waves, jobs_per_wave_per_machine "
                           "and pool_machines must be >= 1");
        validatePools(conf, s, /*needTwoMachines=*/false);
        break;
      }
      case ExperimentKind::Single: {
        s.workloadRef = conf.requireString("", "workload");
        s.singleMachines = conf.requireString("", "machines");
        read(conf, "", "start_node", s.startNode);
        read(conf, "os", "quantum", s.quantum);
        s.dsmMode = conf.getString("os", "dsm_mode", s.dsmMode);
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
        s.singleMachines = conf.requireString("", "machines");
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
        read(conf, "traffic", "seed", t.seed);
        read(conf, "traffic", "clients", t.clients);
        read(conf, "traffic", "request_hz", t.requestHz);
        read(conf, "traffic", "duration", t.duration);
        t.durationQuick = t.duration / 8.0;
        read(conf, "traffic", "duration_quick", t.durationQuick);
        read(conf, "traffic", "zipf_skew", t.zipfSkew);
        read(conf, "traffic", "key_space", t.keySpace);
        read(conf, "traffic", "get_fraction", t.getFraction);
        read(conf, "traffic", "slo_us", t.sloUs);
        read(conf, "traffic", "shards", t.shards);
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
            read(conf, "failures", "seed", s.failureSeed);
            read(conf, "failures", "shed_deciles", s.shedDeciles);
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

namespace {

struct Writer {
    std::string out;

    void
    kv(const std::string &key, const std::string &value)
    {
        out += key + " = " + confQuote(value) + "\n";
    }
    void kv(const std::string &key, double v) { kv(key, fmtDouble(v)); }
    void kv(const std::string &key, int v) { kv(key, std::to_string(v)); }
    void kv(const std::string &key, uint64_t v) { kv(key, fmtU64(v)); }
    void kv(const std::string &key, bool v)
    {
        kv(key, std::string(v ? "true" : "false"));
    }
    void
    section(const std::string &name)
    {
        out += "\n[" + name + "]\n";
    }
};

std::string
classListString(const std::vector<ProblemClass> &classes)
{
    std::vector<std::string> names;
    for (ProblemClass c : classes)
        names.push_back(className(c));
    return joinList(names);
}

std::string
intListString(const std::vector<int> &values)
{
    std::vector<std::string> names;
    for (int v : values)
        names.push_back(std::to_string(v));
    return joinList(names);
}

} // namespace

std::string
serializeSpec(const ExperimentSpec &s)
{
    Writer w;
    w.out += "# canonical spec (xisa_exp --print-spec)\n";
    w.kv("kind", std::string(kindName(s.kind)));
    w.kv("figure", s.figure);
    w.kv("title", s.title);
    if (writesPerfJson(s.kind))
        w.kv("bench_name", s.benchName);

    switch (s.kind) {
      case ExperimentKind::Overhead:
        w.kv("workloads", joinList(s.workloads));
        w.kv("isas", joinList(s.isas));
        w.kv("classes", classListString(s.classes));
        w.kv("classes_quick", classListString(s.classesQuick));
        w.kv("threads", intListString(s.threads));
        w.kv("threads_quick", intListString(s.threadsQuick));
        break;
      case ExperimentKind::Sustained:
        w.kv("sets", s.sets);
        w.kv("sets_quick", s.setsQuick);
        w.kv("seed_base", s.seedBase);
        w.kv("jobs_per_set", s.jobsPerSet);
        break;
      case ExperimentKind::Rack:
        w.kv("sets", s.sets);
        w.kv("sets_quick", s.setsQuick);
        w.kv("seed_base", s.seedBase);
        w.kv("waves", s.waves);
        w.kv("jobs_per_wave_per_machine", s.jobsPerWavePerMachine);
        w.kv("pool_machines", s.poolMachines);
        break;
      case ExperimentKind::Single:
        w.kv("workload", s.workloadRef);
        w.kv("machines", s.singleMachines);
        w.kv("start_node", s.startNode);
        break;
      case ExperimentKind::Serving:
        w.kv("machines", s.singleMachines);
        break;
    }

    // Exactly the sections parseExperiment reads for this kind, so the
    // canonical text of a hand-built spec parses back too.
    const unsigned sections = kindSections(s.kind);
    for (const ParamSetSpec &ps : s.paramSets) {
        w.section("paramset." + ps.name);
        for (const std::string &key : ps.params.keys())
            w.kv(key, ps.params.getString(key, ""));
    }
    for (const NodeOverride &n : s.cluster.nodes) {
        w.section("node." + n.name);
        w.kv("base", n.base);
        w.kv("cores", n.cores);
        w.kv("freq_ghz", n.freqGHz);
        w.kv("idle_watts", n.idleWatts);
        w.kv("max_watts", n.maxWatts);
        w.kv("mem_penalty", n.memPenaltyCycles);
    }
    for (const MachineSpec &m : s.cluster.machines) {
        w.section("machine." + m.name);
        w.kv("node", m.node);
        w.kv("power_scale", m.powerScale);
        w.kv("load_weight", m.loadWeight);
    }
    for (const PoolSpec &p : s.cluster.pools) {
        w.section("pool." + p.name);
        w.kv("machines", joinList(p.machineRefs));
        w.kv("policy", std::string(policyName(p.policy)));
        w.kv("baseline", p.baseline);
        w.kv("label", p.label);
        w.kv("column", p.column);
        w.kv("mksp_label", p.mkspLabel);
        w.kv("short_label", p.shortLabel);
    }

    if (s.kind == ExperimentKind::Serving) {
        const TrafficSpec &t = s.traffic;
        w.section("traffic");
        w.kv("seed", t.seed);
        w.kv("clients", static_cast<uint64_t>(t.clients));
        w.kv("request_hz", t.requestHz);
        w.kv("duration", t.duration);
        w.kv("duration_quick", t.durationQuick);
        w.kv("zipf_skew", t.zipfSkew);
        w.kv("key_space", static_cast<uint64_t>(t.keySpace));
        w.kv("get_fraction", t.getFraction);
        w.kv("slo_us", t.sloUs);
        w.kv("shards", t.shards);
        w.kv("placement", intListString(t.placement));
        if (!t.migratePlan.empty()) {
            std::vector<std::string> plan;
            for (const ShardMigrationSpec &m : t.migratePlan)
                plan.push_back(std::to_string(m.shard) + "@" +
                               fmtDouble(m.time) + "->" +
                               std::to_string(m.node));
            w.kv("migrate_plan", joinList(plan));
        }
    }

    if (sections & kNet) {
        w.section("net");
        w.kv("latency_us", s.cluster.latencyUs);
        w.kv("gbit_per_sec", s.cluster.gbitPerSec);
    }

    if (sections & kSim) {
        w.section("sim");
        w.kv("rebalance_period", s.cluster.rebalancePeriod);
        w.kv("migration_fixed_seconds",
             s.cluster.migrationFixedSeconds);
        w.kv("working_set_mib", s.cluster.workingSetMib);
        w.kv("sleep_fraction", s.cluster.sleepFraction);
        w.kv("checkpoint_period", s.cluster.checkpointPeriod);
    }

    if ((sections & kFaults) && s.cluster.hasFaults) {
        const FaultConfig &f = s.cluster.faults;
        w.section("faults");
        w.kv("seed", static_cast<uint64_t>(f.seed));
        w.kv("drop_prob", f.dropProb);
        w.kv("dup_prob", f.dupProb);
        w.kv("spike_prob", f.spikeProb);
        w.kv("spike_max_us", f.spikeMaxUs);
        w.kv("degrade_factor", f.degradeFactor);
        w.kv("degrade_period", f.degradePeriodMsgs);
        w.kv("degrade_len", f.degradeLenMsgs);
        w.kv("partition_period", f.partitionPeriodMsgs);
        w.kv("partition_len", f.partitionLenMsgs);
    }

    if ((sections & kTopology) && s.cluster.topo.machinesPerRack > 0) {
        const TopologyConfig &t = s.cluster.topo;
        w.section("topology");
        w.kv("machines_per_rack", t.machinesPerRack);
        w.kv("racks_per_pod", t.racksPerPod);
        w.kv("tor_oversub", t.torOversub);
        w.kv("agg_oversub", t.aggOversub);
        w.kv("rack_hop_us", t.rackHopUs);
        w.kv("agg_hop_us", t.aggHopUs);
        w.kv("locality_bias", t.localityBias);
    }

    if ((sections & kCrashes) && !s.cluster.crashPlan.empty()) {
        w.section("crashes");
        w.kv("down_seconds", s.cluster.crashDownSeconds);
        std::vector<std::string> plan;
        for (const CrashSpec &cs : s.cluster.crashPlan)
            plan.push_back(std::to_string(cs.machine) + "@" +
                           fmtDouble(cs.time));
        w.kv("plan", joinList(plan));
    }

    if (s.kind == ExperimentKind::Serving && !s.failures.empty()) {
        w.section("failures");
        w.kv("seed", s.failureSeed);
        w.kv("shed_deciles", s.shedDeciles);
        std::vector<std::string> plan;
        for (const FailureSpec &f : s.failures)
            plan.push_back(f.kind + ":" + std::to_string(f.domain) +
                           "@" + fmtDouble(f.at) + ".." +
                           fmtDouble(f.heal));
        w.kv("plan", joinList(plan));
    }

    if (s.kind == ExperimentKind::Single) {
        w.section("os");
        w.kv("quantum", s.quantum);
        w.kv("dsm_mode", s.dsmMode);
    }

    if ((sections & kFooter) && !s.footer.empty()) {
        w.section("footer");
        w.kv("text", s.footer);
    }
    return w.out;
}

} // namespace xisa::exp
