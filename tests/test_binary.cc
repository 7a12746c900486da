/**
 * @file
 * Binary-container tests: save/load round trip (including execution of
 * a reloaded binary), corruption detection, and the objdump/IR-print
 * renderers.
 */

#include <gtest/gtest.h>

#include "binary/dump.hh"
#include "binary/serialize.hh"
#include "compiler/compile.hh"
#include "ir/print.hh"
#include "os/os.hh"
#include "util/logging.hh"
#include "workload/workloads.hh"

namespace xisa {
namespace {

MultiIsaBinary
sample()
{
    return compileModule(
        buildWorkload(WorkloadId::REDIS, ProblemClass::A, 1));
}

TEST(Serialize, RoundTripPreservesEverything)
{
    MultiIsaBinary a = sample();
    std::vector<uint8_t> bytes = saveBinary(a);
    EXPECT_GT(bytes.size(), 1000u);
    MultiIsaBinary b = loadBinary(bytes);

    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.alignedLayout, b.alignedLayout);
    EXPECT_EQ(a.ir.functions.size(), b.ir.functions.size());
    EXPECT_EQ(a.globalAddr, b.globalAddr);
    EXPECT_EQ(a.tlsOff, b.tlsOff);
    EXPECT_EQ(a.tlsInit, b.tlsInit);
    for (int i = 0; i < kNumIsas; ++i) {
        EXPECT_EQ(a.funcAddr[i], b.funcAddr[i]);
        EXPECT_EQ(a.textEnd[i], b.textEnd[i]);
        EXPECT_EQ(a.callSite[i].size(), b.callSite[i].size());
        ASSERT_EQ(a.image[i].size(), b.image[i].size());
        for (size_t fn = 0; fn < a.image[i].size(); ++fn) {
            EXPECT_EQ(a.image[i][fn].instrOff, b.image[i][fn].instrOff);
            EXPECT_EQ(a.image[i][fn].frame.frameSize,
                      b.image[i][fn].frame.frameSize);
            ASSERT_EQ(a.image[i][fn].code.size(),
                      b.image[i][fn].code.size());
            for (size_t k = 0; k < a.image[i][fn].code.size(); ++k) {
                const MachInstr &x = a.image[i][fn].code[k];
                const MachInstr &y = b.image[i][fn].code[k];
                EXPECT_EQ(x.op, y.op);
                EXPECT_EQ(x.imm, y.imm);
                EXPECT_EQ(x.rd, y.rd);
                EXPECT_EQ(x.target, y.target);
            }
        }
    }
}

TEST(Serialize, ReloadedBinaryExecutesIdentically)
{
    MultiIsaBinary a = sample();
    MultiIsaBinary b = loadBinary(saveBinary(a));
    OsRunResult ra, rb;
    {
        ReplicatedOS os(a, OsConfig::dualServer());
        os.load(0);
        ra = os.run();
    }
    {
        ReplicatedOS os(b, OsConfig::dualServer());
        os.load(0);
        rb = os.run();
    }
    EXPECT_EQ(ra.output, rb.output);
    EXPECT_EQ(ra.totalInstrs, rb.totalInstrs);
    // A reloaded binary can still migrate (all metadata intact).
    {
        ReplicatedOS os(b, OsConfig::dualServer());
        os.load(0);
        bool fired = false;
        os.onQuantum = [&](ReplicatedOS &self) {
            if (!fired && self.totalInstrs() > 50000) {
                self.migrateProcess(1);
                fired = true;
            }
        };
        OsRunResult rc = os.run();
        EXPECT_EQ(rc.output, ra.output);
        EXPECT_GE(os.migrations().size(), 1u);
    }
}

TEST(Serialize, FileRoundTrip)
{
    MultiIsaBinary a = sample();
    std::string path = ::testing::TempDir() + "/crossbound_test.xbin";
    saveBinaryFile(a, path);
    MultiIsaBinary b = loadBinaryFile(path);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(saveBinary(a), saveBinary(b));
    std::remove(path.c_str());
}

TEST(Serialize, DetectsCorruption)
{
    std::vector<uint8_t> bytes = saveBinary(sample());
    // Bad magic.
    {
        std::vector<uint8_t> bad = bytes;
        bad[0] ^= 0xff;
        EXPECT_THROW(loadBinary(bad), FatalError);
    }
    // Truncation.
    {
        std::vector<uint8_t> bad(bytes.begin(),
                                 bytes.begin() +
                                     static_cast<ptrdiff_t>(
                                         bytes.size() / 2));
        EXPECT_THROW(loadBinary(bad), FatalError);
    }
    // Trailing garbage.
    {
        std::vector<uint8_t> bad = bytes;
        bad.push_back(0);
        EXPECT_THROW(loadBinary(bad), FatalError);
    }
}

TEST(Dump, HeadersShowAlignedSymbols)
{
    MultiIsaBinary bin = sample();
    std::string text = dumpHeaders(bin);
    EXPECT_NE(text.find("aligned layout"), std::string::npos);
    EXPECT_NE(text.find("main"), std::string::npos);
    EXPECT_NE(text.find("tkeys"), std::string::npos);
}

TEST(Dump, FunctionDisassemblyDiffersPerIsa)
{
    MultiIsaBinary bin = sample();
    uint32_t mainId = bin.ir.findFunc("main");
    std::string arm = dumpFunction(bin, mainId, IsaId::Aether64);
    std::string x86 = dumpFunction(bin, mainId, IsaId::Xeno64);
    EXPECT_NE(arm, x86);
    EXPECT_NE(arm.find("aether64"), std::string::npos);
    EXPECT_NE(x86.find("push bp"), std::string::npos);
    EXPECT_NE(arm.find("sp, sp"), std::string::npos);
}

TEST(Dump, CallSiteShowsBothIsas)
{
    MultiIsaBinary bin = sample();
    uint32_t migSite = 0;
    for (const auto &[id, site] : bin.callSite[0])
        if (site.isMigrationPoint && !site.live.empty())
            migSite = id;
    ASSERT_NE(migSite, 0u);
    std::string text = dumpCallSite(bin, migSite);
    EXPECT_NE(text.find("migration point"), std::string::npos);
    EXPECT_NE(text.find("[aether64]"), std::string::npos);
    EXPECT_NE(text.find("[xeno64]"), std::string::npos);
    EXPECT_NE(text.find("live %"), std::string::npos);
}

TEST(IrPrint, RendersFunctionsAndInstructions)
{
    Module mod = buildWorkload(WorkloadId::CG, ProblemClass::A, 1);
    std::string text = printModule(mod);
    EXPECT_NE(text.find("module cg"), std::string::npos);
    EXPECT_NE(text.find("func @f"), std::string::npos);
    EXPECT_NE(text.find("cg_worker"), std::string::npos);
    EXPECT_NE(text.find("loop depth"), std::string::npos);
    EXPECT_NE(text.find("fmul"), std::string::npos);
    EXPECT_NE(text.find("cond_br"), std::string::npos);
    // Every non-builtin function prints with its vreg count.
    for (const IRFunction &f : mod.functions)
        if (!f.isBuiltin()) {
            EXPECT_NE(text.find(f.name), std::string::npos) << f.name;
        }
}

} // namespace
} // namespace xisa
