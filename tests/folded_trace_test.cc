/**
 * @file
 * FoldedTrace unit tests plus parity against the reference
 * TraceCollector: the incremental run-length encoder must reproduce
 * toVanilla(raw) byte-for-byte on every kernel, because Algorithm 2
 * now consumes only the folded form (core/tracegen).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "tests/branch_probe.hh"
#include "core/branch_trace.hh"
#include "core/tracegen.hh"
#include "crypto/workload_registry.hh"
#include "sim/machine.hh"

namespace {

using namespace cassandra;
using core::FoldedTrace;
using core::FoldedTraceCollector;
using core::RawTrace;
using core::TraceCollector;
using core::VanillaTrace;

FoldedTrace
fold(const RawTrace &raw)
{
    FoldedTrace t;
    for (uint64_t target : raw)
        t.append(target);
    t.finish();
    return t;
}

TEST(FoldedTraceTest, ExpandMatchesToVanilla)
{
    // Mixed runs, no global period: stays a flat element buffer.
    RawTrace raw;
    for (uint64_t i = 0; i < 40; i++)
        for (uint64_t j = 0; j <= i % 5; j++)
            raw.push_back(0x1000 + (i * i) % 7);
    FoldedTrace t = fold(raw);
    EXPECT_EQ(t.expand(), core::toVanilla(raw));
    EXPECT_EQ(t.dynamicCount(), raw.size());
    EXPECT_EQ(t.logicalSize(), core::toVanilla(raw).size());
    EXPECT_FALSE(t.capped());
}

TEST(FoldedTraceTest, PeriodicTraceFoldsAndStaysEquivalent)
{
    // A counted loop's shape: (body taken x3, exit not-taken) x 50k.
    RawTrace raw;
    for (int i = 0; i < 50'000; i++) {
        raw.push_back(0xA);
        raw.push_back(0xA);
        raw.push_back(0xA);
        raw.push_back(0xB);
    }
    FoldedTrace t = fold(raw);
    EXPECT_EQ(t.expand(), core::toVanilla(raw));
    // The whole trace folds into one repeating pattern: memory is a
    // few elements, not 100k (this is the bounded-memory claim in
    // miniature).
    EXPECT_LT(t.heldBytes(), 1024u);
    ASSERT_NE(t.purePeriod(), nullptr);
    EXPECT_EQ(t.purePeriod()->size(), 2u); // (A x3)(B x1)
}

TEST(FoldedTraceTest, PartialTrailingPeriodExpands)
{
    // 1000 full periods plus half a period: purePeriod() must refuse
    // (the tail is partial) but expand() still reproduces the RLE.
    RawTrace raw;
    for (int i = 0; i < 1000; i++) {
        raw.push_back(0xA);
        raw.push_back(0xB);
        raw.push_back(0xC);
        raw.push_back(0xD);
    }
    raw.push_back(0xA);
    raw.push_back(0xB);
    FoldedTrace t = fold(raw);
    EXPECT_EQ(t.expand(), core::toVanilla(raw));
    EXPECT_EQ(t.purePeriod(), nullptr);
}

TEST(FoldedTraceTest, SameAsIsLogicalEquality)
{
    RawTrace raw;
    for (int i = 0; i < 10'000; i++) {
        raw.push_back(0xA);
        raw.push_back(i % 100 == 99 ? 0xC : 0xB);
    }
    FoldedTrace a = fold(raw);
    FoldedTrace b = fold(raw);
    EXPECT_TRUE(a.sameAs(b));
    EXPECT_TRUE(b.sameAs(a));

    RawTrace other = raw;
    other[other.size() / 2] ^= 1; // flip one outcome mid-trace
    FoldedTrace c = fold(other);
    EXPECT_FALSE(a.sameAs(c));

    // Same elements, one extra repeat: logical sizes differ.
    RawTrace longer = raw;
    longer.push_back(0xA);
    EXPECT_FALSE(a.sameAs(fold(longer)));
}

TEST(FoldedTraceTest, FrontTargetAndSingleTargetShape)
{
    RawTrace raw(12345, 0xCAFE); // every execution goes one place
    FoldedTrace t = fold(raw);
    EXPECT_EQ(t.logicalSize(), 1u);
    EXPECT_EQ(t.frontTarget(), 0xCAFEu);
    EXPECT_EQ(t.dynamicCount(), raw.size());
}

// ---------------------------------------------------------------------
// Parity with the reference collector on real kernels
// ---------------------------------------------------------------------

class FoldedParityTest : public ::testing::TestWithParam<const char *>
{};

TEST_P(FoldedParityTest, CollectorMatchesReferenceRle)
{
    core::Workload w =
        crypto::WorkloadRegistry::global().make(GetParam());
    for (int which : {0, 1}) {
        // Two machines, same program + input: the reference collector
        // keeps raw streams, the folded one only RLE accumulators.
        sim::Machine ref_machine(w.program);
        TraceCollector ref(ref_machine, /*crypto_only=*/true);
        if (w.setInput)
            w.setInput(ref_machine, which);
        ASSERT_TRUE(ref_machine.run(w.maxDynInsts).halted);

        sim::Machine folded_machine(w.program);
        FoldedTraceCollector collector;
        test::attachBranchProbe(folded_machine, collector,
                                /*crypto_only=*/true);
        if (w.setInput)
            w.setInput(folded_machine, which);
        ASSERT_TRUE(folded_machine.run(w.maxDynInsts).halted);
        collector.finish();

        const auto vanilla = ref.vanilla();
        const auto &folded = collector.traces();
        ASSERT_EQ(folded.size(), vanilla.size());
        for (const auto &[pc, want] : vanilla) {
            auto it = folded.find(pc);
            ASSERT_NE(it, folded.end()) << std::hex << pc;
            ASSERT_FALSE(it->second.capped());
            EXPECT_EQ(it->second.expand(), want)
                << GetParam() << " input " << which << " pc 0x"
                << std::hex << pc;
            EXPECT_EQ(it->second.logicalSize(), want.size());
            EXPECT_EQ(it->second.dynamicCount(),
                      core::vanillaDynamicCount(want));
        }
        // The collector's held bytes must be far below the raw target
        // streams it never stored (8 bytes per dynamic execution).
        uint64_t dynamic = 0;
        for (const auto &[pc, raw] : ref.raw())
            dynamic += raw.size();
        EXPECT_LT(collector.peakHeldBytes(), dynamic * 8);
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, FoldedParityTest,
                         ::testing::Values("ChaCha20_ct", "SHAKE",
                                           "Poly1305_ctmul", "CBC_ct",
                                           "kyber512",
                                           "synthetic/chacha20/75"));

} // namespace
