/**
 * @file
 * Cross-ISA migration tests: the semantic invariant (any migration
 * schedule preserves program results), stack-transformation internals,
 * migration of multithreaded containers, and the no-stop-the-world
 * property of hDSM.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "compiler/compile.hh"
#include "core/stacktransform.hh"
#include "stat_read.hh"
#include "testprogs.hh"
#include "util/logging.hh"

namespace xisa {
namespace {

using testing::makeArithProgram;
using testing::makeDeepRecursionProgram;
using testing::makeFloatProgram;
using testing::makePointerProgram;
using testing::makeThreadedProgram;
using testing::makeTlsHeapProgram;
using testing::runReference;

/** Run with a migration request fired once `when` quanta have passed.
 *  Uses a short quantum so even tiny programs see the request. */
OsRunResult
runWithOneMigration(const Module &mod, int startNode, int destNode,
                    int when, ReplicatedOS **keep = nullptr)
{
    static std::unique_ptr<ReplicatedOS> os; // kept alive for inspection
    MultiIsaBinary bin = compileModule(mod);
    static std::unique_ptr<MultiIsaBinary> binKeep;
    binKeep = std::make_unique<MultiIsaBinary>(std::move(bin));
    OsConfig cfg = OsConfig::dualServer();
    cfg.quantum = 150;
    os = std::make_unique<ReplicatedOS>(*binKeep, cfg);
    os->load(startNode);
    int quanta = 0;
    os->onQuantum = [&, destNode, when](ReplicatedOS &self) {
        if (++quanta == when)
            self.migrateProcess(destNode);
    };
    OsRunResult res = os->run();
    if (keep)
        *keep = os.get();
    return res;
}

class MigrationTest : public ::testing::TestWithParam<int> {};

TEST_P(MigrationTest, SingleMigrationPreservesResults)
{
    int start = GetParam();
    int dest = 1 - start;
    for (const Module &mod :
         {makeArithProgram(200), makePointerProgram(),
          makeTlsHeapProgram(), makeDeepRecursionProgram(30)}) {
        IRRunResult ref = runReference(mod);
        ReplicatedOS *os = nullptr;
        OsRunResult got = runWithOneMigration(mod, start, dest, 1, &os);
        EXPECT_EQ(got.exitCode, ref.retVal) << mod.name;
        EXPECT_EQ(got.output, ref.output) << mod.name;
        ASSERT_GE(os->migrations().size(), 1u) << mod.name;
        EXPECT_EQ(os->migrations()[0].fromNode, start);
        EXPECT_EQ(os->migrations()[0].toNode, dest);
        EXPECT_EQ(os->threadNode(0), dest) << mod.name;
        os->dsm().checkInvariants();
    }
}

TEST_P(MigrationTest, FloatStatePreservedAcrossMigration)
{
    Module mod = makeFloatProgram(512);
    IRRunResult ref = runReference(mod);
    ReplicatedOS *os = nullptr;
    OsRunResult got =
        runWithOneMigration(mod, GetParam(), 1 - GetParam(), 5, &os);
    EXPECT_EQ(got.exitCode, ref.retVal);
    EXPECT_EQ(got.output, ref.output);
}

INSTANTIATE_TEST_SUITE_P(BothDirections, MigrationTest,
                         ::testing::Values(0, 1),
                         [](const auto &info) {
                             return info.param == 0
                                        ? std::string("x86toArm")
                                        : std::string("armToX86");
                         });

TEST(Migration, PingPongAdversarialScheduleStillCorrect)
{
    // Migrate the process back and forth on every quantum: the
    // strongest form of the semantic invariant.
    Module mod = makeArithProgram(300);
    IRRunResult ref = runReference(mod);
    MultiIsaBinary bin = compileModule(mod);
    ReplicatedOS os(bin, OsConfig::dualServer());
    os.load(0);
    os.onQuantum = [](ReplicatedOS &self) {
        int cur = self.threadNode(0);
        self.migrateProcess(1 - cur);
    };
    OsRunResult got = os.run();
    EXPECT_EQ(got.exitCode, ref.retVal);
    EXPECT_EQ(got.output, ref.output);
    EXPECT_GE(os.migrations().size(), 4u);
    os.dsm().checkInvariants();
}

TEST(Migration, DeepStacksTransformEveryFrame)
{
    Module mod = makeDeepRecursionProgram(40);
    IRRunResult ref = runReference(mod);
    MultiIsaBinary bin = compileModule(mod);
    OsConfig cfg = OsConfig::dualServer();
    cfg.quantum = 300; // trap while still descending the recursion
    ReplicatedOS os(bin, cfg);
    os.load(0);
    uint64_t seen = 0;
    os.onQuantum = [&](ReplicatedOS &self) {
        // One migration, fired deep into the recursion.
        if (self.totalInstrs() > 900 && seen++ == 0)
            self.migrateProcess(1);
    };
    OsRunResult got = os.run();
    EXPECT_EQ(got.exitCode, ref.retVal);
    ASSERT_EQ(os.migrations().size(), 1u);
    const MigrationEvent &ev = os.migrations()[0];
    EXPECT_GT(ev.transform.frames, 5u);
    EXPECT_GT(ev.transform.liveValues, 0u);
    EXPECT_GT(ev.transform.bytesCopied,
              static_cast<uint64_t>(ev.transform.frames) * 16);
}

TEST(Migration, PointersIntoStackAreFixedUp)
{
    Module mod = makePointerProgram();
    IRRunResult ref = runReference(mod);
    // Try several migration instants to catch the pointer in flight.
    for (int when = 1; when <= 4; ++when) {
        ReplicatedOS *os = nullptr;
        OsRunResult got = runWithOneMigration(mod, 0, 1, when, &os);
        EXPECT_EQ(got.exitCode, ref.retVal) << "when=" << when;
        EXPECT_EQ(got.output, ref.output) << "when=" << when;
    }
}

TEST(Migration, MultithreadedContainerMigratesThreadByThread)
{
    Module mod = makeThreadedProgram(4, 4000);
    MultiIsaBinary bin = compileModule(mod);
    ReplicatedOS os(bin, OsConfig::dualServer());
    os.load(0);
    bool requested = false;
    os.onQuantum = [&](ReplicatedOS &self) {
        if (!requested && self.numThreads() == 5) {
            self.migrateProcess(1);
            requested = true;
        }
    };
    OsRunResult got = os.run();
    EXPECT_EQ(got.exitCode, 4000 * 3999 / 2);
    EXPECT_TRUE(requested);
    // Every thread that was alive migrated, each at its own point: no
    // stop-the-world.
    EXPECT_GE(os.migrations().size(), 2u);
    for (const MigrationEvent &ev : os.migrations()) {
        EXPECT_EQ(ev.toNode, 1);
        EXPECT_GE(ev.trapTime, ev.requestTime);
        EXPECT_GE(ev.resumeTime, ev.trapTime);
    }
    os.dsm().checkInvariants();
}

TEST(Migration, ResponseTimeAndTransformCostArePositive)
{
    Module mod = makeArithProgram(500);
    ReplicatedOS *os = nullptr;
    runWithOneMigration(mod, 0, 1, 2, &os);
    ASSERT_GE(os->migrations().size(), 1u);
    const MigrationEvent &ev = os->migrations()[0];
    EXPECT_GT(ev.transform.frames, 0u);
    EXPECT_GT(ev.resumeTime, ev.trapTime); // transfer takes time
    EXPECT_GE(ev.trapTime, ev.requestTime);
}

TEST(Migration, DsmMovesPagesOnDemandAfterMigration)
{
    Module mod = makeTlsHeapProgram();
    ReplicatedOS *os = nullptr;
    runWithOneMigration(mod, 0, 1, 2, &os);
    EXPECT_GT(counter(os->statRegistry(), "dsm.page_transfers"), 0u);
    EXPECT_GT(counter(os->statRegistry(), "dsm.bytes_transferred"), 0u);
    os->dsm().checkInvariants();
}

TEST(Migration, SpuriousFlagWithoutTargetIsHarmless)
{
    // The vDSO flag can be up for another thread; a thread with no
    // pending target must sail through its migration points.
    Module mod = makeArithProgram(100);
    IRRunResult ref = runReference(mod);
    MultiIsaBinary bin = compileModule(mod);
    ReplicatedOS os(bin, OsConfig::dualServer());
    os.load(0);
    os.onQuantum = [](ReplicatedOS &self) {
        // Request "migration" to the node it is already on.
        self.migrateThread(0, self.threadNode(0));
    };
    OsRunResult got = os.run();
    EXPECT_EQ(got.exitCode, ref.retVal);
    EXPECT_TRUE(os.migrations().empty());
}

TEST(Migration, TransformStatsRoundTripAcrossDirections)
{
    // A -> B then B -> A at the same logical point sees the same frame
    // count and live values (the metadata is symmetric).
    Module mod = makeDeepRecursionProgram(40);
    MultiIsaBinary bin = compileModule(mod);
    OsConfig cfg = OsConfig::dualServer();
    cfg.quantum = 200;
    ReplicatedOS os(bin, cfg);
    os.load(0);
    os.onQuantum = [](ReplicatedOS &self) {
        int cur = self.threadNode(0);
        if (self.migrations().size() < 2)
            self.migrateProcess(1 - cur);
    };
    OsRunResult got = os.run();
    IRRunResult ref = runReference(mod);
    EXPECT_EQ(got.exitCode, ref.retVal);
    ASSERT_GE(os.migrations().size(), 2u);
}

TEST(Migration, IdenticalRunsDumpIdenticalStats)
{
    // The stat dump is a function of the simulated run: host
    // wall-clock (the transform's hostSeconds) must stay out of it, or
    // two identical migration runs would dump different bytes.
    Module mod = makeDeepRecursionProgram(40);
    MultiIsaBinary bin = compileModule(mod);
    auto dump = [&bin] {
        OsConfig cfg = OsConfig::dualServer();
        cfg.quantum = 200;
        ReplicatedOS os(bin, cfg);
        os.load(0);
        os.onQuantum = [](ReplicatedOS &self) {
            if (self.migrations().size() < 4)
                self.migrateProcess(1 - self.threadNode(0));
        };
        os.run();
        EXPECT_GE(os.migrations().size(), 4u);
        std::ostringstream out;
        os.statRegistry().dumpJson(out);
        return out.str();
    };
    const std::string first = dump();
    EXPECT_NE(first.find("\"stacktransform.transforms\": 4"),
              std::string::npos);
    EXPECT_EQ(first, dump());
}

} // namespace
} // namespace xisa
