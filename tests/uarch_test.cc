/**
 * @file
 * Unit tests for the microarchitectural substrates: set-associative
 * LRU caches and the memory hierarchy, the LTAGE-class conditional
 * predictor (bimodal + tagged tables + loop predictor), the BTB and
 * the return stack, plus the power/area model's basic relations.
 */

#include <gtest/gtest.h>

#include "power/power_model.hh"
#include "uarch/bpu.hh"
#include "uarch/cache.hh"

namespace {

using namespace cassandra::uarch;

TEST(CacheTest, HitAfterMiss)
{
    Cache c({1024, 64, 2, 3});
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1038)); // same 64B line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(CacheTest, LineTimesWaysPast32BitsDoesNotWrap)
{
    // 2^16-byte lines x 2^16 ways is 2^32: multiplied in 32 bits the
    // set-count divisor wrapped to 0 (SIGFPE). A shard manifest can
    // carry any u32 geometry, so the constructor must not trap.
    Cache c({1024, 1u << 16, 1u << 16, 3});
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
}

TEST(CacheTest, LruEviction)
{
    // 2-way, 8 sets of 64B lines: three lines in one set evict the LRU.
    Cache c({1024, 64, 2, 3});
    uint64_t set_stride = 64 * 8;
    c.access(0x0000);
    c.access(0x0000 + set_stride);
    EXPECT_TRUE(c.access(0x0000));              // refresh line A
    c.access(0x0000 + 2 * set_stride);          // evicts line B (LRU)
    EXPECT_TRUE(c.access(0x0000));
    EXPECT_FALSE(c.access(0x0000 + set_stride)); // B was evicted
}

TEST(CacheTest, ProbeDoesNotAllocate)
{
    Cache c({1024, 64, 2, 3});
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_FALSE(c.access(0x2000)); // still a miss: probe didn't fill
    EXPECT_TRUE(c.probe(0x2000));
}

TEST(HierarchyTest, LatencyLevels)
{
    CoreParams p;
    MemoryHierarchy mem(p);
    uint32_t first = mem.accessData(0x5000);
    // Cold: L1 + L2 + L3 + memory latencies stack up.
    EXPECT_EQ(first, p.l1d.latency + p.l2.latency + p.l3.latency +
                  p.memLatency);
    EXPECT_EQ(mem.accessData(0x5000), p.l1d.latency);
}

class CacheSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheSweepTest, MissesMonotoneInSize)
{
    auto [size_kb, ways] = GetParam();
    Cache small({static_cast<uint32_t>(size_kb) * 1024u, 64,
                 static_cast<uint32_t>(ways), 3});
    Cache big({static_cast<uint32_t>(size_kb) * 4096u, 64,
               static_cast<uint32_t>(ways), 3});
    // Strided walk with reuse.
    for (int rep = 0; rep < 4; rep++) {
        for (uint64_t a = 0; a < 256 * 1024; a += 192) {
            small.access(a);
            big.access(a);
        }
    }
    EXPECT_GE(small.stats().misses, big.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheSweepTest,
                         ::testing::Combine(::testing::Values(4, 16),
                                            ::testing::Values(2, 8)));

TEST(TageTest, LearnsBias)
{
    TagePredictor p;
    uint64_t pc = 0x4000;
    for (int i = 0; i < 64; i++) {
        p.predict(pc);
        p.update(pc, true);
    }
    EXPECT_TRUE(p.predict(pc));
    p.update(pc, true);
}

TEST(TageTest, LoopPredictorLearnsTripCount)
{
    TagePredictor p;
    uint64_t pc = 0x4100;
    auto run_loop = [&](int trip) {
        int mispredicts = 0;
        for (int i = 0; i < trip; i++) {
            bool taken = i < trip - 1; // exit on the last iteration
            bool pred = p.predict(pc);
            if (pred != taken)
                mispredicts++;
            p.update(pc, taken);
        }
        return mispredicts;
    };
    // Warm up several instances of a fixed-trip loop...
    for (int inst = 0; inst < 8; inst++)
        run_loop(10);
    // ...after which the loop predictor nails the exit.
    EXPECT_EQ(run_loop(10), 0);
    EXPECT_EQ(run_loop(10), 0);
}

TEST(TageTest, LearnsAlternation)
{
    TagePredictor p;
    uint64_t pc = 0x4200;
    for (int i = 0; i < 256; i++) {
        p.predict(pc);
        p.update(pc, i % 2 == 0);
    }
    int wrong = 0;
    for (int i = 256; i < 320; i++) {
        if (p.predict(pc) != (i % 2 == 0))
            wrong++;
        p.update(pc, i % 2 == 0);
    }
    EXPECT_LT(wrong, 8); // history tables capture the pattern
}

TEST(BtbTest, StoresTargets)
{
    Btb btb(64);
    EXPECT_EQ(btb.predict(0x4000), 0u);
    btb.update(0x4000, 0x5000);
    EXPECT_EQ(btb.predict(0x4000), 0x5000u);
    // Conflicting entry (same slot) replaces.
    btb.update(0x4000 + 64 * 4, 0x6000);
    EXPECT_EQ(btb.predict(0x4000), 0u);
}

TEST(RsbTest, LifoOrder)
{
    Rsb rsb(4);
    rsb.push(0x100);
    rsb.push(0x200);
    rsb.push(0x300);
    EXPECT_EQ(rsb.pop(), 0x300u);
    EXPECT_EQ(rsb.pop(), 0x200u);
    EXPECT_EQ(rsb.pop(), 0x100u);
    EXPECT_EQ(rsb.pop(), 0u); // empty
}

TEST(RsbTest, OverflowWrapsOldest)
{
    Rsb rsb(2);
    rsb.push(0x100);
    rsb.push(0x200);
    rsb.push(0x300); // overwrites 0x100
    EXPECT_EQ(rsb.pop(), 0x300u);
    EXPECT_EQ(rsb.pop(), 0x200u);
    EXPECT_EQ(rsb.pop(), 0u);
}

TEST(PowerModelTest, BtuAreaIsSmallFraction)
{
    cassandra::power::Activity a;
    a.cycles = 1000000;
    a.instructions = 4000000;
    auto with = cassandra::power::evaluatePower(a, true);
    auto without = cassandra::power::evaluatePower(a, false);
    double overhead = with.totalArea() / without.totalArea() - 1.0;
    EXPECT_GT(overhead, 0.0);
    EXPECT_LT(overhead, 0.05); // paper: 1.26%
}

TEST(PowerModelTest, BpuActivityDominatesBtu)
{
    // Same lookup count through the BPU costs more energy than through
    // the much smaller BTU — the root of the paper's 2.73% power win.
    cassandra::power::Activity bpu_heavy;
    bpu_heavy.cycles = 1000;
    bpu_heavy.bpuLookups = 100000;
    bpu_heavy.bpuUpdates = 100000;
    cassandra::power::Activity btu_heavy;
    btu_heavy.cycles = 1000;
    btu_heavy.btuLookups = 100000;
    btu_heavy.btuCommits = 100000;
    auto bpu_r = cassandra::power::evaluatePower(bpu_heavy, true);
    auto btu_r = cassandra::power::evaluatePower(btu_heavy, true);
    EXPECT_GT(bpu_r.fetchUnit.dynamic, btu_r.btu.dynamic);
}

} // namespace
