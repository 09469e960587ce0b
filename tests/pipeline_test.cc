/**
 * @file
 * Integration tests for the OoO timing model through the two-phase
 * API: scheme ordering properties (SPT slower than baseline,
 * Cassandra never mispredicts crypto branches, BTU redirects always
 * match the sequential target), timing-side-channel freedom under
 * Cassandra, interrupt flushes (Q4) and the Cassandra-lite ablation
 * (Q3).
 */

#include <gtest/gtest.h>

#include "core/analyzed_workload.hh"
#include "core/contract.hh"
#include "crypto/workloads.hh"

namespace {

using namespace cassandra;
using uarch::Scheme;

class TimingTest : public ::testing::Test
{
  protected:
    static core::Simulation &
    chacha()
    {
        static core::Simulation sim(core::AnalyzedWorkload::analyze(
            crypto::chacha20CtWorkload()));
        return sim;
    }

    static core::Simulation &
    sha()
    {
        static core::Simulation sim(core::AnalyzedWorkload::analyze(
            crypto::sha256BearsslWorkload()));
        return sim;
    }
};

TEST_F(TimingTest, BaselineSanity)
{
    auto res = chacha().run(Scheme::UnsafeBaseline);
    EXPECT_GT(res.stats.cycles, 0u);
    EXPECT_GT(res.stats.instructions, 1000u);
    double ipc = res.stats.ipc();
    EXPECT_GT(ipc, 0.2);
    EXPECT_LT(ipc, 8.0);
    EXPECT_GT(res.stats.branches, 0u);
}

TEST_F(TimingTest, CassandraNeverMispredictsCrypto)
{
    auto res = chacha().run(Scheme::Cassandra);
    EXPECT_EQ(res.stats.btuMismatches, 0u);
    EXPECT_GT(res.btu.lookups, 0u);
    // Crypto branches never touch the BPU under Cassandra, so every
    // BPU lookup comes from non-crypto code (the tiny main wrapper).
    auto base = chacha().run(Scheme::UnsafeBaseline);
    EXPECT_LT(res.bpu.condLookups, base.bpu.condLookups);
}

TEST_F(TimingTest, CassandraCompetitiveWithBaseline)
{
    for (auto *sys : {&chacha(), &sha()}) {
        auto base = sys->run(Scheme::UnsafeBaseline);
        auto cass = sys->run(Scheme::Cassandra);
        double ratio = static_cast<double>(cass.stats.cycles) /
            static_cast<double>(base.stats.cycles);
        EXPECT_GT(ratio, 0.5);
        EXPECT_LT(ratio, 1.3);
    }
}

TEST_F(TimingTest, SptSlowerThanBaseline)
{
    auto base = chacha().run(Scheme::UnsafeBaseline);
    auto spt = chacha().run(Scheme::Spt);
    EXPECT_GT(spt.stats.cycles, base.stats.cycles);
    EXPECT_GT(spt.stats.schemeLoadDelays, 0u);
}

TEST_F(TimingTest, StlHardeningCostsLittle)
{
    auto cass = chacha().run(Scheme::Cassandra);
    auto stl = chacha().run(Scheme::CassandraStl);
    EXPECT_GE(stl.stats.cycles, cass.stats.cycles);
    // "naively addressing data flow speculation ... incurs negligible
    // performance overhead (less than 1%)" is the paper's claim for
    // crypto code; allow some slack for our small workloads.
    EXPECT_LT(static_cast<double>(stl.stats.cycles) / cass.stats.cycles,
              1.15);
}

TEST_F(TimingTest, LiteSlowerThanFull)
{
    auto cass = sha().run(Scheme::Cassandra);
    auto lite = sha().run(Scheme::CassandraLite);
    EXPECT_GE(lite.stats.cycles, cass.stats.cycles);
    EXPECT_GT(lite.stats.resolveStalls, 0u);
}

TEST_F(TimingTest, NoTimingSideChannelUnderCassandra)
{
    // Two runs that differ only in secrets must take exactly the same
    // number of cycles under Cassandra (sequential-execution
    // enforcement implies identical pipeline behavior).
    core::Workload w = crypto::chacha20CtWorkload();
    auto analyzed = core::AnalyzedWorkload::analyze(w);
    auto trace_a = uarch::recordTrace(w, core::contractInputA);
    auto trace_b = uarch::recordTrace(w, core::contractInputB);
    ASSERT_EQ(trace_a.size(), trace_b.size());

    const auto &image = analyzed->traces().image;
    core::SimConfig cfg;
    cfg.scheme = Scheme::Cassandra;
    uarch::OooCore core_a(cfg, w.program, &image);
    uarch::OooCore core_b(cfg, w.program, &image);
    uarch::TraceSpanSource src_a(trace_a);
    uarch::TraceSpanSource src_b(trace_b);
    auto stats_a = core_a.run(src_a);
    auto stats_b = core_b.run(src_b);
    EXPECT_EQ(stats_a.cycles, stats_b.cycles);
    EXPECT_EQ(stats_a.btuMismatches, 0u);
    EXPECT_EQ(stats_b.btuMismatches, 0u);
}

TEST_F(TimingTest, InterruptFlushesCostLittle)
{
    // Q4: flushing the BTU at the timer frequency barely moves the
    // needle (paper: 1.85% -> 1.80% improvement).
    core::Simulation sim(core::AnalyzedWorkload::analyze(
        crypto::sha256BearsslWorkload()));
    auto plain = sim.run(Scheme::Cassandra);

    core::SimConfig flushed_cfg;
    flushed_cfg.scheme = Scheme::Cassandra;
    flushed_cfg.core.btuFlushPeriod = 100000; // far beyond Q4's rate
    auto flushed = sim.run(flushed_cfg);
    double ratio = static_cast<double>(flushed.stats.cycles) /
        static_cast<double>(plain.stats.cycles);
    EXPECT_LT(ratio, 1.10);
}

TEST_F(TimingTest, ProspectBlocksTaintedSpeculation)
{
    auto w = crypto::syntheticMixWorkload("curve25519", 50);
    core::Simulation sys(core::AnalyzedWorkload::analyze(w));
    auto base = sys.run(Scheme::UnsafeBaseline);
    auto pros = sys.run(Scheme::Prospect);
    EXPECT_GT(pros.stats.prospectBlocks, 0u);
    // Tainted ops are delayed; in chain-limited code much of that is
    // absorbed, so ProSpeCT can only be at or above the baseline.
    EXPECT_GE(pros.stats.cycles, base.stats.cycles);

    // Cassandra+ProSpeCT removes the crypto speculation windows; it
    // must stay within a whisker of plain ProSpeCT even though the
    // many-call-site mont_mul return has no replayable trace and
    // stalls (see EXPERIMENTS.md).
    auto combo = sys.run(Scheme::CassandraProspect);
    EXPECT_LT(static_cast<double>(combo.stats.cycles) /
                  pros.stats.cycles,
              1.02);
    EXPECT_EQ(combo.stats.btuMismatches, 0u);
}

TEST_F(TimingTest, CacheHierarchySane)
{
    auto res = chacha().run(Scheme::UnsafeBaseline);
    EXPECT_GT(res.caches.l1dAccesses, 0u);
    EXPECT_LE(res.caches.l1dMisses, res.caches.l1dAccesses);
    EXPECT_LE(res.caches.l2Accesses,
              res.caches.l1dMisses + res.caches.l1iMisses);
}

TEST(TaintTest, PropagationBasics)
{
    auto w = crypto::syntheticMixWorkload("chacha20", 0);
    auto trace = uarch::recordTrace(w, 2);
    uarch::TraceSpanSource src(trace);
    const uint64_t tainted =
        uarch::computeTaintBitmap(src, w.secretRegions, trace.size())
            .count();
    EXPECT_GT(tainted, 0u);
    EXPECT_LT(tainted, trace.size());
}

} // namespace
