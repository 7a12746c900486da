/**
 * @file
 * The config-driven experiment platform: the conf parser (grammar,
 * macros, diagnostics, unknown-key tracking), the workload registry
 * (providers, named parameter sets, reference resolution), the
 * experiment specs (defaults, validation, serialize round-trip), and
 * the sweep driver's claim order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>

#include "exp/config.hh"
#include "exp/registry.hh"
#include "exp/spec.hh"
#include "exp/sweep.hh"
#include "util/logging.hh"
#include "util/rng.hh"

using namespace xisa;
using namespace xisa::exp;

namespace {

// --- Config: grammar ------------------------------------------------

TEST(Config, ParsesSectionsKeysAndComments)
{
    Config c = Config::parseString("top = 1  # trailing\n"
                                   "# full-line comment\n"
                                   "[alpha]\n"
                                   "name = hello\n"
                                   "list = a, b , c\n"
                                   "[beta.sub]\n"
                                   "x = 2\n",
                                   "t");
    EXPECT_EQ(c.getInt("", "top", 0), 1);
    EXPECT_EQ(c.getString("alpha", "name", ""), "hello");
    EXPECT_EQ(c.getList("alpha", "list"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(c.hasSection("beta.sub"));
    EXPECT_EQ(c.sectionsWithPrefix("beta."),
              std::vector<std::string>{"beta.sub"});
    EXPECT_EQ(c.getInt("beta.sub", "x", 0), 2);
    EXPECT_NO_THROW(c.requireAllUsed()); // every key was consumed
}

TEST(Config, QuotingAndEscapes)
{
    Config c = Config::parseString(
        "plain = 'kept # verbatim'\n"
        "esc = \"line1\\nline2\\t\\\"q\\\" \\\\\"\n",
        "t");
    EXPECT_EQ(c.getString("", "plain", ""), "kept # verbatim");
    EXPECT_EQ(c.getString("", "esc", ""), "line1\nline2\t\"q\" \\");
}

TEST(Config, MacroExpansion)
{
    Config c = Config::parseString("root = /data\n"
                                   "sub = $(root)/runs\n"
                                   "[s]\n"
                                   "deep = $(sub)/x\n",
                                   "t");
    EXPECT_EQ(c.getString("s", "deep", ""), "/data/runs/x");
}

TEST(Config, MacroCycleFails)
{
    EXPECT_THROW(Config::parseString("a = $(b)\nb = $(a)\nc = $(a)\n",
                                     "t")
                     .getString("", "c", ""),
                 ConfigError);
}

// --- Config: malformed input ----------------------------------------

TEST(Config, MalformedInputsThrowWithLineNumbers)
{
    auto fails = [](const std::string &text, const char *what) {
        try {
            Config::parseString(text, "bad.conf");
            FAIL() << "expected ConfigError for: " << what;
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("bad.conf"),
                      std::string::npos)
                << what;
        }
    };
    fails("just a line\n", "no equals sign");
    fails("[unclosed\n", "missing bracket");
    fails("[]\nx = 1\n", "empty section name");
    fails("k e y = 1\n", "space in key");
    fails("q = 'abc\n", "unterminated quote");
    fails("e = \"a\\qb\"\n", "bad escape");
    fails("x = $(nope)\n", "undefined macro");
    fails("x = $(broken\n", "unterminated macro");
    fails("x = 1\nx = 2\n", "duplicate key");
    fails("[s]\na = 1\n[s]\nb = 2\n", "duplicate section");
}

TEST(Config, DuplicateKeyNamesFirstLine)
{
    try {
        Config::parseString("x = 1\ny = 2\nx = 3\n", "d.conf");
        FAIL();
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("d.conf:3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("first at line 1"), std::string::npos)
            << msg;
    }
}

TEST(Config, MissingFileThrows)
{
    EXPECT_THROW(Config::parseFile("/nonexistent/xisa.conf"),
                 ConfigError);
}

// --- Config: typed getters ------------------------------------------

TEST(Config, TypedGettersAndDefaults)
{
    Config c = Config::parseString("i = 0x10\nd = 2.5\nb1 = yes\n"
                                   "b2 = off\n",
                                   "t");
    EXPECT_EQ(c.getInt("", "i", 0), 16); // base-0 integers
    EXPECT_DOUBLE_EQ(c.getDouble("", "d", 0), 2.5);
    EXPECT_TRUE(c.getBool("", "b1", false));
    EXPECT_FALSE(c.getBool("", "b2", true));
    EXPECT_EQ(c.getInt("", "absent", 42), 42);
    EXPECT_EQ(c.getString("nosec", "absent", "d"), "d");
}

TEST(Config, TypedGetterRejectsMalformedValues)
{
    Config c = Config::parseString("i = 3x\nd = nan-ish\nb = maybe\n",
                                   "t");
    EXPECT_THROW(c.getInt("", "i", 0), ConfigError);
    EXPECT_THROW(c.getDouble("", "d", 0), ConfigError);
    EXPECT_THROW(c.getBool("", "b", false), ConfigError);
}

TEST(Config, RequireThrowsOnMissing)
{
    Config c = Config::parseString("x = 1\n", "t");
    EXPECT_THROW(c.requireString("", "missing"), ConfigError);
    EXPECT_THROW(c.requireInt("sec", "missing"), ConfigError);
}

// --- Config: unknown-key diagnostics --------------------------------

TEST(Config, UnknownKeysListedWithLocation)
{
    Config c = Config::parseString("known = 1\n"
                                   "[s]\n"
                                   "typo_key = 2\n",
                                   "u.conf");
    c.getInt("", "known", 0);
    try {
        c.requireAllUsed();
        FAIL() << "expected unknown-key diagnostics";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("s.typo_key"), std::string::npos) << msg;
        EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    }
}

// --- Registry -------------------------------------------------------

TEST(Registry, GlobalSeededFromWorkloadTable)
{
    WorkloadRegistry &reg = WorkloadRegistry::global();
    EXPECT_EQ(reg.names().size(), workloadTable().size());
    EXPECT_NE(reg.find("cg"), nullptr);
    EXPECT_EQ(reg.find("nope"), nullptr);
    EXPECT_TRUE(reg.require("cg").threadCapable());
    EXPECT_FALSE(reg.require("bzip").threadCapable());
}

TEST(Registry, RequireListsKnownNames)
{
    try {
        WorkloadRegistry::global().require("spx");
        FAIL();
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("cg"), std::string::npos);
    }
}

TEST(Registry, ResolveLayersDefaultsSetsAndOverrides)
{
    WorkloadRegistry reg;
    reg.add(makeTableProvider(workloadDesc(WorkloadId::CG)));
    ParameterSet big;
    big.set("class", "C");
    big.set("nthreads", "8");
    reg.defineParamSet("big", big);

    auto r0 = reg.resolve("cg");
    EXPECT_EQ(r0.params.getString("class", ""), "A");
    EXPECT_EQ(r0.params.getInt("nthreads", 0), 1);

    auto r1 = reg.resolve("cg@big");
    EXPECT_EQ(r1.params.getString("class", ""), "C");
    EXPECT_EQ(r1.params.getInt("nthreads", 0), 8);

    ParameterSet over;
    over.set("nthreads", "2");
    auto r2 = reg.resolve("cg @ big", over);
    EXPECT_EQ(r2.params.getString("class", ""), "C");
    EXPECT_EQ(r2.params.getInt("nthreads", 0), 2);
}

TEST(Registry, ResolveRejectsUnknownSetAndParams)
{
    WorkloadRegistry reg;
    reg.add(makeTableProvider(workloadDesc(WorkloadId::CG)));
    EXPECT_THROW(reg.resolve("cg@nosuch"), ConfigError);
    ParameterSet bad;
    bad.set("klass", "A"); // typo'd parameter name
    EXPECT_THROW(reg.resolve("cg", bad), ConfigError);
}

TEST(Registry, BuildValidatesParameterValues)
{
    WorkloadRegistry reg;
    reg.add(makeTableProvider(workloadDesc(WorkloadId::CG)));
    reg.add(makeTableProvider(workloadDesc(WorkloadId::BZIP)));
    ParameterSet badClass;
    badClass.set("class", "D");
    EXPECT_THROW(reg.build("cg", badClass), ConfigError);
    ParameterSet serialThreads;
    serialThreads.set("nthreads", "4"); // bzip is serial-only
    EXPECT_THROW(reg.build("bzip", serialThreads), ConfigError);
    EXPECT_NO_THROW(reg.build("cg"));
}

TEST(Registry, DuplicateProviderRejected)
{
    WorkloadRegistry reg;
    reg.add(makeTableProvider(workloadDesc(WorkloadId::CG)));
    EXPECT_THROW(
        reg.add(makeTableProvider(workloadDesc(WorkloadId::CG))),
        ConfigError);
}

// --- Spec: defaults and validation ----------------------------------

const char *kMinimalOverhead = "kind = overhead\n"
                               "figure = F\n"
                               "title = T\n"
                               "workloads = cg\n";

TEST(Spec, OverheadDefaults)
{
    Config c = Config::parseString(kMinimalOverhead, "o.conf");
    ExperimentSpec s = parseExperiment(c);
    EXPECT_EQ(s.kind, ExperimentKind::Overhead);
    EXPECT_EQ(s.isas, (std::vector<std::string>{"aether", "xeno"}));
    EXPECT_EQ(s.classes.size(), 3u);
    EXPECT_EQ(s.classesQuick.size(), 1u);
    EXPECT_EQ(s.threads, (std::vector<int>{1, 2, 4, 8}));
    EXPECT_EQ(s.threadsQuick, (std::vector<int>{1, 4}));
    EXPECT_EQ(s.activeThreads(true), (std::vector<int>{1, 4}));
    EXPECT_EQ(s.activeThreads(false), (std::vector<int>{1, 2, 4, 8}));
    // Cluster defaults match ClusterSim::Config's.
    ClusterSim::Config cc = s.cluster.simConfig();
    EXPECT_DOUBLE_EQ(cc.rebalancePeriod, 1.0);
    EXPECT_DOUBLE_EQ(cc.workingSetBytesPerScale, 2.0 * 1024 * 1024);
    EXPECT_DOUBLE_EQ(cc.net.latencyUs, 1.2);
    EXPECT_TRUE(cc.crashes.empty());
}

TEST(Spec, UnknownKeyAnywhereFails)
{
    Config c = Config::parseString(std::string(kMinimalOverhead) +
                                       "[sim]\nrebalance_perood = 2\n",
                                   "o.conf");
    EXPECT_THROW(parseExperiment(c), ConfigError);
}

TEST(Spec, MissingRequiredKeysFail)
{
    Config noTitle =
        Config::parseString("kind = overhead\nfigure = F\n"
                            "workloads = cg\n",
                            "t");
    EXPECT_THROW(parseExperiment(noTitle), ConfigError);
    Config noSeed = Config::parseString(
        "kind = rack\nfigure = F\ntitle = T\nsets = 2\n", "t");
    EXPECT_THROW(parseExperiment(noSeed), ConfigError);
    Config badKind = Config::parseString(
        "kind = sideways\nfigure = F\ntitle = T\n", "t");
    EXPECT_THROW(parseExperiment(badKind), ConfigError);
}

TEST(Spec, CrossReferencesValidated)
{
    auto parse = [](const std::string &extra) {
        Config c = Config::parseString(
            "kind = rack\nfigure = F\ntitle = T\n"
            "sets = 1\nseed_base = 1\n" +
                extra,
            "x.conf");
        return parseExperiment(c);
    };
    // Pool referencing an unknown machine.
    EXPECT_THROW(parse("[pool.a]\nmachines = ghost\n"
                       "policy = static-balanced\nbaseline = true\n"),
                 ConfigError);
    // Machine referencing an unknown node.
    EXPECT_THROW(parse("[machine.m]\nnode = ghost\n"
                       "[pool.a]\nmachines = m\n"
                       "policy = static-balanced\nbaseline = true\n"),
                 ConfigError);
    // Unknown policy name.
    EXPECT_THROW(parse("[machine.m]\nnode = xeno\n"
                       "[pool.a]\nmachines = m\n"
                       "policy = round-robin\nbaseline = true\n"),
                 ConfigError);
    // No baseline pool.
    EXPECT_THROW(parse("[machine.m]\nnode = xeno\n"
                       "[pool.a]\nmachines = m\n"
                       "policy = static-balanced\n"),
                 ConfigError);
    // All valid: machine count expansion works.
    ExperimentSpec s =
        parse("[machine.m]\nnode = xeno\n"
              "[pool.a]\nmachines = m*3\n"
              "policy = static-balanced\nbaseline = true\n");
    EXPECT_EQ(s.cluster.makePool(s.cluster.pools[0]).size(), 3u);
}

TEST(Spec, NodeOverrideInheritsPreset)
{
    Config c = Config::parseString(std::string(kMinimalOverhead) +
                                       "isas = fast_arm\n"
                                       "[node.fast_arm]\n"
                                       "base = aether\n"
                                       "freq_ghz = 3.0\n",
                                   "n.conf");
    ExperimentSpec s = parseExperiment(c);
    NodeSpec n = s.cluster.makeNode("fast_arm");
    NodeSpec preset = makeAetherServer();
    EXPECT_EQ(n.name, "fast_arm");
    EXPECT_DOUBLE_EQ(n.freqGHz, 3.0);            // overridden
    EXPECT_EQ(n.cores, preset.cores);            // inherited
    EXPECT_DOUBLE_EQ(n.idleWatts, preset.idleWatts);
}

TEST(Spec, WorkloadRefsValidatedAgainstRegistry)
{
    Config badRef = Config::parseString("kind = overhead\nfigure = F\n"
                                        "title = T\nworkloads = spx\n",
                                        "t");
    EXPECT_THROW(parseExperiment(badRef), ConfigError);
    Config badSet = Config::parseString(
        "kind = overhead\nfigure = F\n"
        "title = T\nworkloads = cg@nosuch\n",
        "t");
    EXPECT_THROW(parseExperiment(badSet), ConfigError);
    Config good = Config::parseString(
        "kind = overhead\nfigure = F\ntitle = T\n"
        "workloads = cg@big\n"
        "[paramset.big]\nclass = B\n",
        "t");
    ExperimentSpec s = parseExperiment(good);
    auto r = makeRegistry(s).resolve("cg@big");
    EXPECT_EQ(r.params.getString("class", ""), "B");
}

TEST(Spec, CrashPlanParsed)
{
    Config c = Config::parseString(
        "kind = sustained\nfigure = F\ntitle = T\n"
        "sets = 1\nseed_base = 7\n"
        "[machine.m]\nnode = xeno\n"
        "[pool.a]\nmachines = m*2\n"
        "policy = static-balanced\nbaseline = true\n"
        "[crashes]\ndown_seconds = 12\nplan = 0@30, 1@55.5\n",
        "c.conf");
    ExperimentSpec s = parseExperiment(c);
    ClusterSim::Config cc = s.cluster.simConfig();
    ASSERT_EQ(cc.crashes.size(), 2u);
    EXPECT_EQ(cc.crashes[0].machine, 0);
    EXPECT_DOUBLE_EQ(cc.crashes[0].time, 30);
    EXPECT_DOUBLE_EQ(cc.crashes[1].time, 55.5);
    EXPECT_DOUBLE_EQ(cc.crashes[1].downSeconds, 12);
}

TEST(Spec, SerialOnlyWorkloadRejectedInThreadSweep)
{
    auto parse = [](const std::string &sweep) {
        Config c = Config::parseString("kind = overhead\nfigure = F\n"
                                       "title = T\nworkloads = bzip\n" +
                                           sweep,
                                       "serial.conf");
        return parseExperiment(c);
    };
    EXPECT_THROW(parse("threads = 1, 2\nthreads_quick = 1\n"),
                 ConfigError);
    EXPECT_THROW(parse("threads = 1\nthreads_quick = 1, 2\n"),
                 ConfigError);
    EXPECT_THROW(parse("threads = 1\n"), ConfigError); // quick: 1, 4
    EXPECT_EQ(parse("threads = 1\nthreads_quick = 1\n").threads,
              (std::vector<int>{1}));
}

TEST(Spec, CrashMachinesMustExistInEveryPool)
{
    auto parse = [](const std::string &kindKeys,
                    const std::string &crashes) {
        Config c = Config::parseString(
            kindKeys +
                "figure = F\ntitle = T\nsets = 1\nseed_base = 7\n"
                "[machine.m]\nnode = xeno\n"
                "[pool.a]\nmachines = m*2\n"
                "policy = static-balanced\nbaseline = true\n"
                "[pool.b]\nmachines = m*2\n"
                "policy = dynamic-balanced\n"
                "[crashes]\n" + crashes,
            "crash.conf");
        return parseExperiment(c);
    };
    for (const char *kind : {"kind = sustained\n", "kind = rack\n"}) {
        EXPECT_EQ(parse(kind, "plan = 1@10\n").cluster.crashPlan.size(),
                  1u);
        EXPECT_THROW(parse(kind, "plan = 0@10, 2@20\n"), ConfigError)
            << kind;
        try {
            parse(kind, "plan = 1@40s\n");
            ADD_FAILURE() << kind << "1@40s accepted as 1@40";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "crash.conf:16: [crashes] plan: bad number "
                          "'40s' in entry '1@40s'"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_THROW(parse(kind, "down_seconds = 0\nplan = 0@10\n"),
                     ConfigError)
            << kind;
    }
}

TEST(Spec, NegativeSetsQuickRejectedWithFileLine)
{
    auto parse = [](const std::string &kindKeys,
                    const std::string &setsQuick) {
        Config c = Config::parseString(
            kindKeys +
                "figure = F\ntitle = T\nsets = 3\nseed_base = 7\n" +
                setsQuick +
                "[machine.m]\nnode = xeno\n"
                "[pool.a]\nmachines = m*2\n"
                "policy = static-balanced\nbaseline = true\n",
            "sets.conf");
        return parseExperiment(c);
    };
    for (const char *kind : {"kind = sustained\n", "kind = rack\n"}) {
        try {
            parse(kind, "sets_quick = -1\n");
            ADD_FAILURE() << kind << "negative sets_quick accepted";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("sets.conf:6:"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("sets_quick"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(parse(kind, "sets_quick = 0\n").activeSets(true), 3)
            << kind;
        EXPECT_EQ(parse(kind, "sets_quick = 2\n").activeSets(true), 2)
            << kind;
    }
}

// --- Spec: each kind reads only its own sections --------------------

struct ForeignSectionCase {
    const char *name;    ///< gtest parameter name
    const char *kind;
    /** Text whose last line holds the rejected key: a section header
     *  plus keys, or a bare top-level key. */
    const char *section;
    const char *key;     ///< "section.key" as requireAllUsed names it
};

void
PrintTo(const ForeignSectionCase &fc, std::ostream *os)
{
    *os << fc.name;
}

/** Minimal valid confs; a foreign section appended to one must fail. */
std::string
minimalConf(const std::string &kind)
{
    std::string head =
        "kind = " + kind + "\nfigure = F\ntitle = T\n";
    if (kind == "overhead")
        return head + "workloads = cg\n";
    if (kind == "single")
        return head + "workload = cg\nmachines = xeno, aether\n";
    if (kind == "serving")
        return head + "machines = xeno*4\n";
    return head + "sets = 1\nseed_base = 7\n"
                  "[machine.m]\nnode = xeno\n"
                  "[pool.a]\nmachines = m*2\n"
                  "policy = static-balanced\nbaseline = true\n";
}

class ForeignSection : public ::testing::TestWithParam<ForeignSectionCase>
{};

TEST_P(ForeignSection, RejectedWithFileKeyLineAndKind)
{
    const ForeignSectionCase &fc = GetParam();
    const std::string base = minimalConf(fc.kind);
    const std::string extra = fc.section;
    // A top-level key (no section in its name) goes first, where no
    // section header can claim it; a section is appended.
    const bool topLevel = std::strchr(fc.key, '.') == nullptr;
    const std::string text = topLevel ? extra + base : base + extra;
    const int keyLine = static_cast<int>(
        std::count(extra.begin(), extra.end(), '\n') +
        (topLevel ? 0 : std::count(base.begin(), base.end(), '\n')));
    Config c = Config::parseString(text, "foreign.conf");
    try {
        parseExperiment(c);
        FAIL() << fc.kind << " accepted " << fc.section;
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        for (const std::string &want :
             {std::string("foreign.conf"), std::string(fc.key),
              "line " + std::to_string(keyLine),
              "kind = " + std::string(fc.kind)})
            EXPECT_NE(msg.find(want), std::string::npos)
                << "missing '" << want << "' in: " << msg;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Spec, ForeignSection,
    ::testing::Values(
        ForeignSectionCase{"overhead_net", "overhead",
                           "[net]\nlatency_us = 5\n", "net.latency_us"},
        ForeignSectionCase{"overhead_sim", "overhead",
                           "[sim]\nsleep_fraction = 0.5\n",
                           "sim.sleep_fraction"},
        ForeignSectionCase{"overhead_faults", "overhead",
                           "[faults]\ndrop_prob = 0.1\n",
                           "faults.drop_prob"},
        ForeignSectionCase{"overhead_crashes", "overhead",
                           "[crashes]\nplan = 0@1\n", "crashes.plan"},
        ForeignSectionCase{"overhead_topology", "overhead",
                           "[topology]\nmachines_per_rack = 2\n",
                           "topology.machines_per_rack"},
        ForeignSectionCase{"overhead_footer", "overhead",
                           "[footer]\ntext = x\n", "footer.text"},
        ForeignSectionCase{"overhead_machine", "overhead",
                           "[machine.m]\nnode = xeno\n",
                           "machine.m.node"},
        ForeignSectionCase{"overhead_pool", "overhead",
                           "[pool.p]\npolicy = static-balanced\n",
                           "pool.p.policy"},
        ForeignSectionCase{"single_sim", "single",
                           "[sim]\nsleep_fraction = 0.5\n",
                           "sim.sleep_fraction"},
        ForeignSectionCase{"single_crashes", "single",
                           "[crashes]\nplan = 0@1\n", "crashes.plan"},
        ForeignSectionCase{"single_topology", "single",
                           "[topology]\nmachines_per_rack = 2\n",
                           "topology.machines_per_rack"},
        ForeignSectionCase{"single_footer", "single",
                           "[footer]\ntext = x\n", "footer.text"},
        ForeignSectionCase{"single_machine", "single",
                           "[machine.m]\nnode = xeno\n",
                           "machine.m.node"},
        ForeignSectionCase{"single_pool", "single",
                           "[pool.p]\npolicy = static-balanced\n",
                           "pool.p.policy"},
        ForeignSectionCase{"serving_net", "serving",
                           "[net]\nlatency_us = 5\n", "net.latency_us"},
        ForeignSectionCase{"serving_sim", "serving",
                           "[sim]\nsleep_fraction = 0.5\n",
                           "sim.sleep_fraction"},
        ForeignSectionCase{"serving_faults", "serving",
                           "[faults]\ndrop_prob = 0.1\n",
                           "faults.drop_prob"},
        ForeignSectionCase{"serving_machine", "serving",
                           "[machine.m]\nnode = xeno\n",
                           "machine.m.node"},
        ForeignSectionCase{"serving_pool", "serving",
                           "[pool.p]\npolicy = static-balanced\n",
                           "pool.p.policy"},
        ForeignSectionCase{"sustained_paramset", "sustained",
                           "[paramset.big]\nclass = B\n",
                           "paramset.big.class"},
        ForeignSectionCase{"rack_paramset", "rack",
                           "[paramset.big]\nclass = B\n",
                           "paramset.big.class"},
        ForeignSectionCase{"serving_paramset", "serving",
                           "[paramset.big]\nclass = B\n",
                           "paramset.big.class"},
        ForeignSectionCase{"overhead_os", "overhead",
                           "[os]\nquantum = 2000\n", "os.quantum"},
        ForeignSectionCase{"sustained_os", "sustained",
                           "[os]\nquantum = 2000\n", "os.quantum"},
        ForeignSectionCase{"rack_os", "rack", "[os]\nquantum = 2000\n",
                           "os.quantum"},
        ForeignSectionCase{"serving_os", "serving",
                           "[os]\nquantum = 2000\n", "os.quantum"},
        ForeignSectionCase{"overhead_traffic", "overhead",
                           "[traffic]\nshards = 4\n", "traffic.shards"},
        ForeignSectionCase{"single_traffic", "single",
                           "[traffic]\nshards = 4\n", "traffic.shards"},
        ForeignSectionCase{"sustained_traffic", "sustained",
                           "[traffic]\nshards = 4\n", "traffic.shards"},
        ForeignSectionCase{"rack_traffic", "rack",
                           "[traffic]\nshards = 4\n", "traffic.shards"},
        ForeignSectionCase{"overhead_failures", "overhead",
                           "[failures]\nplan = tor:0@0.2..0.4\n",
                           "failures.plan"},
        ForeignSectionCase{"single_failures", "single",
                           "[failures]\nplan = tor:0@0.2..0.4\n",
                           "failures.plan"},
        ForeignSectionCase{"sustained_failures", "sustained",
                           "[failures]\nplan = tor:0@0.2..0.4\n",
                           "failures.plan"},
        ForeignSectionCase{"rack_failures", "rack",
                           "[failures]\nplan = tor:0@0.2..0.4\n",
                           "failures.plan"},
        // A top-level key of one kind on another.
        ForeignSectionCase{"rack_jobs_per_set", "rack",
                           "jobs_per_set = 10\n", "jobs_per_set"},
        ForeignSectionCase{"sustained_waves", "sustained", "waves = 3\n",
                           "waves"},
        ForeignSectionCase{"serving_start_node", "serving",
                           "start_node = 1\n", "start_node"},
        ForeignSectionCase{"overhead_sets", "overhead", "sets = 2\n",
                           "sets"},
        ForeignSectionCase{"single_workloads", "single",
                           "workloads = cg\n", "workloads"},
        // Keys inside a section the kind does read, but which change
        // nothing: bench_name labels only --json, which sustained and
        // single never write, and a pool column is always 21/25 wide.
        ForeignSectionCase{"sustained_bench_name", "sustained",
                           "bench_name = b\n", "bench_name"},
        ForeignSectionCase{"single_bench_name", "single",
                           "bench_name = b\n", "bench_name"},
        ForeignSectionCase{"sustained_column_width", "sustained",
                           "[pool.p]\nmachines = m*2\n"
                           "policy = dynamic-balanced\n"
                           "column_width = 25\n",
                           "pool.p.column_width"}),
    [](const ::testing::TestParamInfo<ForeignSectionCase> &info) {
        return std::string(info.param.name);
    });

TEST(Spec, CanonicalTextWritesOnlyTheKindsSections)
{
    auto canon = [](const std::string &kind) {
        Config c = Config::parseString(minimalConf(kind), kind);
        return serializeSpec(parseExperiment(c));
    };
    EXPECT_EQ(canon("overhead").find("\n["), std::string::npos);
    const std::string single = canon("single");
    EXPECT_NE(single.find("\n[net]\n"), std::string::npos);
    EXPECT_NE(single.find("\n[os]\n"), std::string::npos);
    EXPECT_EQ(single.find("\n[sim]\n"), std::string::npos);
    const std::string serving = canon("serving");
    EXPECT_NE(serving.find("\n[traffic]\n"), std::string::npos);
    EXPECT_EQ(serving.find("\n[net]\n"), std::string::npos);
    EXPECT_EQ(serving.find("\n[sim]\n"), std::string::npos);
    for (const char *kind : {"sustained", "rack"}) {
        const std::string text = canon(kind);
        EXPECT_NE(text.find("\n[net]\n"), std::string::npos) << kind;
        EXPECT_NE(text.find("\n[sim]\n"), std::string::npos) << kind;
    }
}

/**
 * One conf per kind that sets every key the kind reads away from its
 * default, in its canonical text as recorded before the conf schema
 * became one key list per section. Reading it back must write it
 * byte for byte: a key the reader skips is left unused, and a key the
 * writer drops, renames or formats differently changes the text.
 */
struct PinnedSpec {
    const char *kind;
    const char *text;
};

const PinnedSpec kPinnedSpecs[] = {
    {"overhead", R"spec(# canonical spec (xisa_exp --print-spec)
kind = overhead
figure = "Fig. X"
title = "every key, overhead"
bench_name = pin_overhead
workloads = "cg@big, is"
isas = "fast_arm, xeno"
classes = "B, A"
classes_quick = B
threads = "2, 1"
threads_quick = 2

[paramset.big]
class = B

[node.fast_arm]
base = aether
cores = 12
freq_ghz = 2.5
idle_watts = 40
max_watts = 90
mem_penalty = 120
)spec"},
    {"single", R"spec(# canonical spec (xisa_exp --print-spec)
kind = single
figure = "Fig. S"
title = "every key, single"
workload = cg@small
machines = "fast, aether"
start_node = 1

[paramset.small]
class = A
nthreads = 2

[node.fast]
base = xeno
cores = 6
freq_ghz = 3.1
idle_watts = 55
max_watts = 140
mem_penalty = 90

[net]
latency_us = 3.5
gbit_per_sec = 25

[faults]
seed = 77
drop_prob = 0.01
dup_prob = 0.02
spike_prob = 0.03
spike_max_us = 75
degrade_factor = 2.5
degrade_period = 40
degrade_len = 4
partition_period = 60
partition_len = 3

[os]
quantum = 2500
dsm_mode = remote
)spec"},
    {"sustained", R"spec(# canonical spec (xisa_exp --print-spec)
kind = sustained
figure = "Fig. 12x"
title = "every key, sustained"
sets = 3
sets_quick = 2
seed_base = 1234
jobs_per_set = 12

[node.armn]
base = aether
cores = 16
freq_ghz = 2.2
idle_watts = 30
max_watts = 70
mem_penalty = 150

[machine.x86]
node = xeno
power_scale = 0.9
load_weight = 1.5

[machine.arm]
node = armn
power_scale = 0.2
load_weight = 0.75

[pool.base]
machines = x86*2
policy = static-balanced
baseline = true
label = 2x86
column = "x86 pair"
mksp_label = base
short_label = static

[pool.mix]
machines = "x86, arm"
policy = dynamic-unbalanced
baseline = false
label = mixed
column = "x86 + arm"
mksp_label = mix
short_label = dynamic

[net]
latency_us = 2.5
gbit_per_sec = 10

[sim]
rebalance_period = 2
migration_fixed_seconds = 0.1
working_set_mib = 8
sleep_fraction = 0.5
checkpoint_period = 7.5

[faults]
seed = 5
drop_prob = 0.04
dup_prob = 0.01
spike_prob = 0.02
spike_max_us = 60
degrade_factor = 3
degrade_period = 20
degrade_len = 2
partition_period = 50
partition_len = 5

[topology]
machines_per_rack = 1
racks_per_pod = 2
tor_oversub = 2
agg_oversub = 4
rack_hop_us = 3
agg_hop_us = 9
locality_bias = 0.25

[crashes]
down_seconds = 12
plan = "1@30, 0@45.5"

[footer]
text = "every key set"
)spec"},
    {"rack", R"spec(# canonical spec (xisa_exp --print-spec)
kind = rack
figure = "Rack x"
title = "every key, rack"
bench_name = pin_rack
sets = 4
sets_quick = 1
seed_base = 99
waves = 3
jobs_per_wave_per_machine = 2
pool_machines = 6

[node.armn]
base = aether
cores = 24
freq_ghz = 2.8
idle_watts = 35
max_watts = 85
mem_penalty = 110

[machine.x86]
node = xeno
power_scale = 0.95
load_weight = 1.25

[machine.arm]
node = armn
power_scale = 0.1
load_weight = 0.5

[pool.base]
machines = x86*4
policy = static-balanced
baseline = true
label = "4x86 (baseline)"
column = c1
mksp_label = m1
short_label = s1

[pool.mix]
machines = "x86*2, arm*2"
policy = dynamic-balanced
baseline = false
label = "2+2"
column = c2
mksp_label = m2
short_label = s2

[net]
latency_us = 4
gbit_per_sec = 100

[sim]
rebalance_period = 0.5
migration_fixed_seconds = 0.2
working_set_mib = 16
sleep_fraction = 0.75
checkpoint_period = 3

[faults]
seed = 8
drop_prob = 0.05
dup_prob = 0.03
spike_prob = 0.04
spike_max_us = 20
degrade_factor = 1.5
degrade_period = 30
degrade_len = 6
partition_period = 70
partition_len = 2

[topology]
machines_per_rack = 2
racks_per_pod = 1
tor_oversub = 3
agg_oversub = 2
rack_hop_us = 4
agg_hop_us = 12
locality_bias = 0.5

[crashes]
down_seconds = 40
plan = 3@100

[footer]
text = "rack footer"
)spec"},
    {"serving", R"spec(# canonical spec (xisa_exp --print-spec)
kind = serving
figure = "Serving x"
title = "every key, serving"
bench_name = pin_serving
machines = "fast*4, aether*4"

[node.fast]
base = xeno
cores = 10
freq_ghz = 2.9
idle_watts = 60
max_watts = 150
mem_penalty = 100

[traffic]
seed = 7
clients = 3000
request_hz = 1.5
duration = 1.25
duration_quick = 0.3
zipf_skew = 0.8
key_space = 4096
get_fraction = 0.7
slo_us = 500
shards = 4
placement = "0, 2, 4, 6"
migrate_plan = "1@0.4->5"

[topology]
machines_per_rack = 2
racks_per_pod = 2
tor_oversub = 2
agg_oversub = 3
rack_hop_us = 6
agg_hop_us = 18
locality_bias = 0.75

[crashes]
down_seconds = 5
plan = 3@0.2

[failures]
seed = 21
shed_deciles = 5
plan = "tor:1@0.1..0.3, agg:1@0.5..0.6"

[footer]
text = "serving footer"
)spec"},
};

TEST(Spec, CanonicalTextPinnedWithEveryKeySet)
{
    for (const PinnedSpec &p : kPinnedSpecs) {
        Config c = Config::parseString(p.text, p.kind);
        EXPECT_EQ(serializeSpec(parseExperiment(c)), p.text) << p.kind;
    }
}

// --- Spec: serialize round-trip -------------------------------------

void
expectRoundTrip(const std::string &text, const char *name)
{
    Config c1 = Config::parseString(text, name);
    ExperimentSpec s1 = parseExperiment(c1);
    std::string canon = serializeSpec(s1);
    Config c2 = Config::parseString(canon, "canon");
    ExperimentSpec s2 = parseExperiment(c2);
    EXPECT_EQ(serializeSpec(s2), canon)
        << name << ": canonical form is not a fixed point";
}

TEST(Spec, SerializeRoundTripOverhead)
{
    expectRoundTrip(kMinimalOverhead, "overhead");
}

TEST(Spec, SerializeRoundTripFullCluster)
{
    expectRoundTrip(
        "kind = rack\nfigure = \"Rack (x)\"\ntitle = \"deep, dive\"\n"
        "sets = 3\nsets_quick = 1\nseed_base = 4200\nwaves = 4\n"
        "[node.armn]\nbase = aether\ncores = 16\nfreq_ghz = 3.0\n"
        "[machine.x86]\nnode = xeno\n"
        "[machine.arm]\nnode = armn\npower_scale = 0.1\n"
        "[pool.base]\nmachines = x86*8\npolicy = static-balanced\n"
        "baseline = true\nlabel = \"8x86 (baseline)\"\n"
        "[pool.mix]\nmachines = x86*4, arm*4\n"
        "policy = dynamic-unbalanced\nlabel = 4x4\n"
        "[net]\nlatency_us = 5.0\ngbit_per_sec = 10\n"
        "[sim]\nsleep_fraction = 0.25\n"
        "[faults]\nseed = 9\ndrop_prob = 0.02\n"
        "[crashes]\ndown_seconds = 20\nplan = 1@40, 3@90\n"
        "[footer]\ntext = \"multi\\nline\"\n",
        "full");
}

TEST(Spec, SerializeRoundTripSingleWithParamSets)
{
    expectRoundTrip("kind = single\nfigure = F\ntitle = T\n"
                    "workload = cg@big\nmachines = xeno, aether\n"
                    "[paramset.big]\nclass = B\nnthreads = 4\n"
                    "[os]\nquantum = 2000\ndsm_mode = remote\n",
                    "single");
}

TEST(Spec, SerializeRoundTripServing)
{
    expectRoundTrip(
        "kind = serving\nfigure = \"Serving under SLOs\"\n"
        "title = \"open-loop REDIS\"\nmachines = xeno, aether\n"
        "[traffic]\nseed = 9\nclients = 5000\nrequest_hz = 2.5\n"
        "duration = 1.5\nduration_quick = 0.2\nzipf_skew = 0.9\n"
        "key_space = 8192\nget_fraction = 0.85\nslo_us = 650\n"
        "shards = 4\nplacement = 0, 1, 1, 1\n"
        "migrate_plan = 1@0.4->0, 3@0.6->0\n"
        "[crashes]\ndown_seconds = 25\nplan = 0@0.7\n",
        "serving");
}

TEST(Spec, ServingDefaultsMaterialize)
{
    // Omitting [traffic] keys must materialize the defaults: placement
    // round-robins over the machines and quick duration is an eighth.
    Config c = Config::parseString("kind = serving\nfigure = F\n"
                                   "title = T\nmachines = xeno, "
                                   "aether\n[traffic]\nshards = 5\n",
                                   "serving-defaults");
    ExperimentSpec s = parseExperiment(c);
    ASSERT_EQ(s.traffic.placement.size(), 5u);
    EXPECT_EQ(s.traffic.placement,
              (std::vector<int>{0, 1, 0, 1, 0}));
    EXPECT_EQ(s.traffic.durationQuick, s.traffic.duration / 8.0);
    EXPECT_EQ(s.traffic.seed, 42u);
    EXPECT_TRUE(s.traffic.migratePlan.empty());
}

TEST(Spec, ServingRejectsBadTraffic)
{
    auto expectFail = [](const std::string &body) {
        Config c = Config::parseString(
            "kind = serving\nfigure = F\ntitle = T\n"
            "machines = xeno, aether\n" + body, "serving-bad");
        EXPECT_THROW(parseExperiment(c), ConfigError) << body;
    };
    expectFail("[traffic]\nzipf_skew = 1.0\n");
    expectFail("[traffic]\nget_fraction = 1.5\n");
    expectFail("[traffic]\nshards = 0\n");
    expectFail("[traffic]\nplacement = 0, 1\n"); // size != shards
    expectFail("[traffic]\nplacement = 0, 0, 0, 0, 0, 0, 0, 9\n");
    expectFail("[traffic]\nplacement = 0x, 0, 0, 0, 0, 0, 0, 0\n");
    expectFail("[traffic]\nmigrate_plan = 1@1.5->0\n"); // frac >= 1
    expectFail("[traffic]\nmigrate_plan = 99@0.5->0\n");
    expectFail("[traffic]\nmigrate_plan = nonsense\n");
    expectFail("[traffic]\nmigrate_plan = 6@0.3sec->0\n");
    expectFail("[traffic]\nmigrate_plan = 6@nan->0\n");
    expectFail("[crashes]\nplan = 0@40\n"); // serving wants fractions
    expectFail("[crashes]\nplan = 7@0.5\n");
    expectFail("[crashes]\nplan = 1@\n"); // not 1@0
}

TEST(Spec, ServingVolumeCapCoversQuickDuration)
{
    // 1M requests/s: duration = 2 is 2M requests, well inside the 20M
    // cap, but duration_quick = 30 would make XISA_QUICK=1 generate
    // 30M. Both durations are capped, each naming its own line.
    auto parse = [](const std::string &durations) {
        Config c = Config::parseString(
            "kind = serving\nfigure = F\ntitle = T\n"
            "machines = xeno, aether\n"
            "[traffic]\nclients = 1000000\nrequest_hz = 1\n" +
                durations,
            "cap.conf");
        return parseExperiment(c);
    };
    auto expectCap = [&](const std::string &durations,
                         const std::string &where) {
        try {
            parse(durations);
            ADD_FAILURE() << durations << "accepted";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(where),
                      std::string::npos)
                << e.what();
        }
    };
    expectCap("duration = 2\nduration_quick = 30\n",
              "cap.conf:9: [traffic] clients * request_hz * "
              "duration_quick exceeds 20M requests");
    expectCap("duration_quick = 1\nduration = 21\n",
              "cap.conf:9: [traffic] clients * request_hz * duration "
              "exceeds 20M requests");
    EXPECT_EQ(parse("duration = 2\nduration_quick = 20\n")
                  .traffic.activeDuration(true),
              20.0);
}

// --- Spec: [topology] -----------------------------------------------

TEST(Spec, TopologyParsedAndValidated)
{
    Config c = Config::parseString(
        "kind = rack\nfigure = F\ntitle = T\n"
        "sets = 1\nseed_base = 7\nwaves = 2\n"
        "[machine.m]\nnode = xeno\n"
        "[pool.a]\nmachines = m*4\n"
        "policy = dynamic-balanced\nbaseline = true\n"
        "[topology]\nmachines_per_rack = 2\nracks_per_pod = 2\n"
        "tor_oversub = 4.0\nagg_oversub = 2.0\n"
        "rack_hop_us = 5.0\nagg_hop_us = 20.0\n"
        "locality_bias = 0.5\n",
        "topo.conf");
    ExperimentSpec s = parseExperiment(c);
    ClusterSim::Config cc = s.cluster.simConfig();
    EXPECT_EQ(cc.topo.machinesPerRack, 2);
    EXPECT_EQ(cc.topo.racksPerPod, 2);
    EXPECT_DOUBLE_EQ(cc.topo.torOversub, 4.0);
    EXPECT_DOUBLE_EQ(cc.topo.aggOversub, 2.0);
    EXPECT_DOUBLE_EQ(cc.topo.rackHopUs, 5.0);
    EXPECT_DOUBLE_EQ(cc.topo.aggHopUs, 20.0);
    EXPECT_DOUBLE_EQ(cc.topo.localityBias, 0.5);

    auto expectFail = [](const std::string &topoBody) {
        Config bad = Config::parseString(
            "kind = rack\nfigure = F\ntitle = T\n"
            "sets = 1\nseed_base = 7\nwaves = 2\n"
            "[machine.m]\nnode = xeno\n"
            "[pool.a]\nmachines = m*4\n"
            "policy = dynamic-balanced\nbaseline = true\n"
            "[topology]\n" + topoBody, "topo-bad.conf");
        EXPECT_THROW(parseExperiment(bad), ConfigError) << topoBody;
    };
    expectFail("machines_per_rack = 2\ntor_oversub = 0.5\n");
    expectFail("machines_per_rack = -1\n");
    // Knobs without a rack size: a typo'd hierarchy, not flat.
    expectFail("locality_bias = 0.5\n");
}

// --- Spec: [failures] -----------------------------------------------

TEST(Spec, FailuresParsedAndValidated)
{
    Config c = Config::parseString(
        "kind = serving\nfigure = F\ntitle = T\n"
        "machines = xeno*8\n"
        "[topology]\nmachines_per_rack = 2\nracks_per_pod = 2\n"
        "[traffic]\nshards = 4\n"
        "[failures]\nseed = 99\nshed_deciles = 4\n"
        "plan = tor:1@0.25..0.5, agg:0@0.6..0.9\n",
        "failures.conf");
    ExperimentSpec s = parseExperiment(c);
    EXPECT_EQ(s.failureSeed, 99u);
    EXPECT_EQ(s.shedDeciles, 4);
    ASSERT_EQ(s.failures.size(), 2u);
    EXPECT_EQ(s.failures[0].kind, "tor");
    EXPECT_EQ(s.failures[0].domain, 1);
    EXPECT_DOUBLE_EQ(s.failures[0].at, 0.25);
    EXPECT_DOUBLE_EQ(s.failures[0].heal, 0.5);
    EXPECT_EQ(s.failures[1].kind, "agg");
    EXPECT_EQ(s.failures[1].domain, 0);
    // The NAME*COUNT shorthand expanded to eight nodes.
    EXPECT_EQ(s.singleMachineRefs.size(), 8u);
    EXPECT_EQ(s.singleMachineRefs.front(), "xeno");
}

TEST(Spec, FailuresRejectBadPlans)
{
    auto expectFail = [](const std::string &extra) {
        Config c = Config::parseString(
            "kind = serving\nfigure = F\ntitle = T\n"
            "machines = xeno*8\n"
            "[topology]\nmachines_per_rack = 2\nracks_per_pod = 2\n"
            "[traffic]\nshards = 4\n" + extra, "failures-bad.conf");
        EXPECT_THROW(parseExperiment(c), ConfigError) << extra;
    };
    expectFail("[failures]\nplan = volcano:0@0.2..0.4\n"); // bad kind
    expectFail("[failures]\nplan = tor:9@0.2..0.4\n");   // no rack 9
    expectFail("[failures]\nplan = agg:2@0.2..0.4\n");   // no pod 2
    expectFail("[failures]\nplan = tor:0@0.5..0.4\n");   // heal < at
    expectFail("[failures]\nplan = tor:0@0.2..1.5\n");   // heal > 1
    expectFail("[failures]\nplan = nonsense\n");
    expectFail("[failures]\nplan = tor:0z@0.2..0.4\n"); // not rack 0
    expectFail("[failures]\nseed = 7\n");                // empty plan
    expectFail(
        "[failures]\nshed_deciles = 0\nplan = tor:0@0.1..0.2\n");
    expectFail(
        "[failures]\nshed_deciles = 11\nplan = tor:0@0.1..0.2\n");
}

TEST(Spec, FailuresRequireTopologyAndServingKind)
{
    // Domain indices are meaningless without a [topology].
    Config noTopo = Config::parseString(
        "kind = serving\nfigure = F\ntitle = T\n"
        "machines = xeno*8\n[traffic]\nshards = 4\n"
        "[failures]\nplan = tor:0@0.2..0.4\n",
        "failures-notopo.conf");
    EXPECT_THROW(parseExperiment(noTopo), ConfigError);
    // And only the serving kind consumes the section.
    Config rack = Config::parseString(
        "kind = rack\nfigure = F\ntitle = T\n"
        "sets = 1\nseed_base = 7\nwaves = 2\n"
        "[machine.m]\nnode = xeno\n"
        "[pool.a]\nmachines = m*4\n"
        "policy = dynamic-balanced\nbaseline = true\n"
        "[topology]\nmachines_per_rack = 2\n"
        "[failures]\nplan = tor:0@0.2..0.4\n",
        "failures-rack.conf");
    EXPECT_THROW(parseExperiment(rack), ConfigError);
}

TEST(Spec, SerializeRoundTripFailures)
{
    expectRoundTrip(
        "kind = serving\nfigure = F\ntitle = T\n"
        "machines = xeno*6, aether*2\n"
        "[topology]\nmachines_per_rack = 2\nracks_per_pod = 2\n"
        "[traffic]\nseed = 9\nshards = 4\n"
        "[failures]\nseed = 13\nshed_deciles = 2\n"
        "plan = tor:1@0.25..0.5, pdu:0@0.6..0.9\n",
        "failures-roundtrip");
}

TEST(Spec, SerializeRoundTripTopology)
{
    expectRoundTrip(
        "kind = rack\nfigure = F\ntitle = T\n"
        "sets = 2\nseed_base = 11\nwaves = 3\n"
        "[machine.m]\nnode = xeno\n"
        "[pool.a]\nmachines = m*8\n"
        "policy = dynamic-balanced\nbaseline = true\n"
        "[topology]\nmachines_per_rack = 4\nracks_per_pod = 2\n"
        "tor_oversub = 4.0\nagg_oversub = 2.0\n"
        "rack_hop_us = 5.0\nagg_hop_us = 20.0\n"
        "locality_bias = 0.5\n",
        "topo-roundtrip");
}

// --- Sweep: claim order ----------------------------------------------

/** Sets the sweep's worker count for one scope. */
class SweepThreads
{
  public:
    explicit SweepThreads(int n)
    {
        if (const char *p = std::getenv("XISA_BENCH_THREADS"))
            saved_ = p;
        setenv("XISA_BENCH_THREADS", std::to_string(n).c_str(), 1);
    }
    ~SweepThreads()
    {
        if (saved_)
            setenv("XISA_BENCH_THREADS", saved_->c_str(), 1);
        else
            unsetenv("XISA_BENCH_THREADS");
    }

  private:
    std::optional<std::string> saved_;
};

TEST(Sweep, ClaimOrderReturnsResultsInIndexOrder)
{
    constexpr size_t n = 23;
    std::vector<std::vector<size_t>> orders(3, std::vector<size_t>(n));
    orders[0].clear(); // the default: claim 0..n-1
    std::iota(orders[1].begin(), orders[1].end(), size_t{0});
    std::iota(orders[2].rbegin(), orders[2].rend(), size_t{0});
    Rng rng(24);
    for (int p = 0; p < 20; ++p) {
        std::vector<size_t> perm = orders[1];
        for (size_t i = n - 1; i > 0; --i)
            std::swap(perm[i], perm[rng.below(i + 1)]);
        orders.push_back(perm);
    }

    for (int t : {1, 2, 3, 4}) {
        SweepThreads threads(t);
        for (const std::vector<size_t> &order : orders) {
            std::vector<std::atomic<int>> runs(n);
            std::vector<size_t> claimed; // in run order, one worker only
            const std::vector<size_t> got = runSweep(
                n,
                [&](size_t i) {
                    runs[i].fetch_add(1);
                    if (t == 1)
                        claimed.push_back(i);
                    return 7 * i + 1;
                },
                order);
            ASSERT_EQ(got.size(), n);
            for (size_t i = 0; i < n; ++i) {
                EXPECT_EQ(runs[i].load(), 1) << "cell " << i << ", T=" << t;
                EXPECT_EQ(got[i], 7 * i + 1) << "cell " << i << ", T=" << t;
            }
            if (t == 1) {
                EXPECT_EQ(claimed, order.empty() ? orders[1] : order);
            }
        }
    }

    auto cell = [](size_t i) { return i; };
    EXPECT_THROW(runSweep(3, cell, {0, 1}), PanicError);
    EXPECT_THROW(runSweep(3, cell, {0, 1, 2, 0}), PanicError);
    EXPECT_THROW(runSweep(3, cell, {0, 1, 1}), PanicError);
    EXPECT_THROW(runSweep(3, cell, {0, 1, 3}), PanicError);
}

TEST(Sweep, LongestFirstSortsByDescendingCostTiesInIndexOrder)
{
    EXPECT_EQ(longestFirst({1.0, 4.0, 2.0, 4.0, 16.0, 1.0}),
              (std::vector<size_t>{4, 1, 3, 2, 0, 5}));
    EXPECT_TRUE(longestFirst({}).empty());
}

} // namespace
