/**
 * @file
 * Typed experiment specifications parsed from `.conf` files.
 *
 * A spec has two halves. The ClusterSpec is the hardware: node presets
 * or overrides ([node.*]), machines binding a node to power/load scale
 * ([machine.*]), pools of machines with a scheduling policy ([pool.*]),
 * and the link/sim/fault/crash plan ([net], [sim], [faults],
 * [crashes]). The ExperimentSpec is the study: which kind of run
 * (overhead sweep, sustained or rack scheduling study, single
 * container, open-loop serving with its [traffic] stream), which
 * workloads at which parameters, how many seeded sets, and how the
 * rows are labelled.
 *
 * parseExperiment() reads only the sections the kind's runner uses,
 * applies defaults, validates cross-references (every pool machine
 * must name a [machine.*], every policy must be a scheduler policy,
 * ...), and finishes with requireAllUsed() so any key the kind does not
 * read fails with its file:line and the kind's name.
 * serializeSpec() emits the canonical conf text -- the same sections,
 * every effective value, defaults materialized -- and
 * parse(serialize(s)) == s, which the round-trip tests pin.
 */

#ifndef XISA_EXP_SPEC_HH
#define XISA_EXP_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dsm/faults.hh"
#include "exp/config.hh"
#include "exp/registry.hh"
#include "sched/cluster.hh"
#include "workload/workloads.hh"

namespace xisa::exp {

/** The kinds of experiment the runner can drive. */
enum class ExperimentKind { Overhead, Sustained, Rack, Single, Serving };

const char *kindName(ExperimentKind k);

/** [node.NAME]: a NodeSpec derived from a builtin preset. Zero-valued
 *  fields inherit the preset's value. */
struct NodeOverride {
    std::string name;
    std::string base; ///< "xeno" or "aether"
    int cores = 0;
    double freqGHz = 0;
    double idleWatts = 0;
    double maxWatts = 0;
    int memPenaltyCycles = 0;
};

/** [machine.NAME]: one server of a pool. */
struct MachineSpec {
    std::string name;
    std::string node; ///< "xeno", "aether", or a [node.*] name
    double powerScale = 1.0;
    double loadWeight = 1.0;
};

/** [pool.NAME]: machines + policy + display labels. */
struct PoolSpec {
    std::string name;
    /** Machine references, `NAME` or `NAME*COUNT`, in order. */
    std::vector<std::string> machineRefs;
    Policy policy = Policy::StaticBalanced;
    bool baseline = false;
    std::string label;      ///< rack-row label (defaults to name)
    std::string column;     ///< sustained column header (21/25 wide)
    std::string mkspLabel;  ///< sustained makespan-ratio header
    std::string shortLabel; ///< sustained summary-line label
};

/** One scripted machine failure (time/downtime in seconds). */
struct CrashSpec {
    int machine = 0;
    double time = 0;
};

/** The hardware half of a spec. */
struct ClusterSpec {
    std::vector<NodeOverride> nodes;
    std::vector<MachineSpec> machines;
    std::vector<PoolSpec> pools;
    // [sim]
    double rebalancePeriod = 1.0;
    double migrationFixedSeconds = 0.05;
    double workingSetMib = 2.0;
    double sleepFraction = 1.0;
    double checkpointPeriod = 5.0;
    // [net]
    double latencyUs = 1.2;
    double gbitPerSec = 40.0;
    // [faults] -- hasFaults false means the perfect link (and the
    // FaultConfig below is ignored).
    bool hasFaults = false;
    FaultConfig faults;
    // [crashes]
    std::vector<CrashSpec> crashPlan;
    double crashDownSeconds = 30.0;
    // [topology] -- machinesPerRack 0 means flat (section omitted
    // from the canonical serialization).
    TopologyConfig topo;

    /** Resolve a node reference ("xeno", "aether", or override name);
     *  throws ConfigError on an unknown name. */
    NodeSpec makeNode(const std::string &ref) const;
    /** Expand a pool's machine refs into scheduler Machines. */
    std::vector<Machine> makePool(const PoolSpec &pool) const;
    /** The ClusterSim configuration this spec describes. */
    ClusterSim::Config simConfig() const;
    const MachineSpec *findMachine(const std::string &name) const;
    const NodeOverride *findNode(const std::string &name) const;
};

/**
 * One correlated failure in a serving experiment ([failures] plan):
 * a whole failure domain goes out at once. `kind` picks the domain
 * type -- `tor` (a rack loses its top-of-rack switch), `pdu` (a rack
 * loses power), `agg` (a pod loses its aggregation switch), or
 * `partition` (a rack is cut off from the rest of the fleet but keeps
 * running; at the serving level its nodes are unreachable for the
 * window, and at the DSM level the same scenario is a
 * Topology::rackCut cut-set with epoch-fenced rejoin). `domain` is
 * the rack index (tor/pdu/partition) or pod index (agg) under the
 * spec's [topology]. `at`/`heal` are FRACTIONS of the active traffic
 * duration, converted to seconds once by exp::applyFailures -- the
 * unit rule FaultConfig documents.
 */
struct FailureSpec {
    std::string kind; ///< "tor" | "agg" | "pdu" | "partition"
    int domain = 0;   ///< rack or pod index under [topology]
    double at = 0;    ///< outage start, in [0, 1) of the run
    double heal = 0;  ///< outage end, in (at, 1]
};

/** One scripted shard move in a serving experiment. `time` is a
 *  FRACTION of the active traffic duration (quick mode shrinks the
 *  run; fractions keep the schedule structurally identical). */
struct ShardMigrationSpec {
    int shard = 0;
    double time = 0; ///< in [0, 1) of the run
    int node = 0;
};

/** The [traffic] section of a serving experiment (kind = serving):
 *  the open-loop REDIS request stream and its SLO. */
struct TrafficSpec {
    uint64_t seed = 42;
    int64_t clients = 200000;   ///< simulated client population
    double requestHz = 0.5;     ///< per-client arrival rate
    double duration = 2.0;      ///< sim seconds of traffic
    double durationQuick = 0;   ///< quick-mode duration (0: duration/8)
    double zipfSkew = 0.99;     ///< YCSB theta, 0 = uniform
    int64_t keySpace = 65536;
    double getFraction = 0.9;
    double sloUs = 800.0;
    int shards = 8;
    std::vector<int> placement; ///< shard -> machine index
    std::vector<ShardMigrationSpec> migratePlan;

    double activeDuration(bool quick) const
    {
        if (!quick)
            return duration;
        return durationQuick > 0 ? durationQuick : duration / 8.0;
    }
};

/** A named [paramset.NAME] forwarded to the workload registry. */
struct ParamSetSpec {
    std::string name;
    ParameterSet params;
};

/** The full experiment description. */
struct ExperimentSpec {
    std::string source; ///< file/diagnostic name (not serialized)
    ExperimentKind kind = ExperimentKind::Overhead;
    std::string figure;
    std::string title;
    std::string footer;
    /** The --json "bench" field; only the kinds that write --json
     *  (overhead, rack, serving) read `bench_name`. */
    std::string benchName = "xisa_exp";

    // kind = overhead
    std::vector<std::string> workloads; ///< registry refs
    std::vector<std::string> isas;      ///< "aether" / "xeno"
    std::vector<ProblemClass> classes, classesQuick;
    std::vector<int> threads, threadsQuick;

    // kind = sustained / rack
    int sets = 0, setsQuick = 0;
    uint64_t seedBase = 0;
    int jobsPerSet = 40;               ///< sustained
    int waves = 5;                     ///< rack
    int jobsPerWavePerMachine = 7;     ///< rack
    int poolMachines = 8;              ///< rack job-set scale basis

    // kind = single / serving
    std::string workloadRef;
    std::string singleMachines; ///< raw node-ref list (serialized form)
    std::vector<std::string> singleMachineRefs; ///< parsed from above
    int startNode = 0;
    uint64_t quantum = 4000;
    std::string dsmMode = "migrate"; ///< "migrate" | "remote"

    // kind = serving
    TrafficSpec traffic;
    /** [failures]: correlated domain outages (serving only). */
    std::vector<FailureSpec> failures;
    /** [failures] seed, reserved for randomized chaos schedules. */
    uint64_t failureSeed = 0xd04a11;
    /** Coldest popularity deciles shed while any failure window is
     *  open (BrownoutWindow::shedDeciles for every window). */
    int shedDeciles = 3;

    std::vector<ParamSetSpec> paramSets;
    ClusterSpec cluster;

    /** The class/thread/set sweeps for the current mode. */
    const std::vector<ProblemClass> &activeClasses(bool quick) const
    {
        return quick && !classesQuick.empty() ? classesQuick : classes;
    }
    const std::vector<int> &activeThreads(bool quick) const
    {
        return quick && !threadsQuick.empty() ? threadsQuick : threads;
    }
    int activeSets(bool quick) const
    {
        return quick && setsQuick > 0 ? setsQuick : sets;
    }
};

/** Parse + validate a spec; consumes the whole Config (leftover keys
 *  throw). */
ExperimentSpec parseExperiment(Config &conf);
/** Convenience: parseFile + parseExperiment. */
ExperimentSpec parseExperimentFile(const std::string &path);

/** Canonical conf text: every effective value, defaults materialized.
 *  parse(serialize(s)) reproduces s (the round-trip invariant). */
std::string serializeSpec(const ExperimentSpec &spec);

/** Build a registry seeded with the builtin workload table plus the
 *  spec's parameter sets. */
WorkloadRegistry makeRegistry(const ExperimentSpec &spec);

/** Parse "static-balanced" etc.; throws ConfigError otherwise. */
Policy parsePolicy(const std::string &s);

} // namespace xisa::exp

#endif // XISA_EXP_SPEC_HH
