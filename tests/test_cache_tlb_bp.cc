/** @file Tests for the cache, TLB, and branch predictor structures. */

#include <gtest/gtest.h>

#include "cpu/branch_predictor.hh"
#include "cpu/cache.hh"
#include "cpu/tlb.hh"
#include "common/rng.hh"

using namespace vsmooth;
using namespace vsmooth::cpu;

TEST(Cache, ColdMissThenHit)
{
    Cache cache({1024, 2, 64});
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1004)); // same line
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Cache, GeometryDerivation)
{
    Cache cache({32 * 1024, 8, 64});
    EXPECT_EQ(cache.numSets(), 64u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2-way, 8 sets of 64 B lines: addresses 0, 1024, 2048 map to
    // set 0. Access 0, 1024, then 2048 evicts 0 (LRU).
    Cache cache({1024, 2, 64});
    cache.access(0);
    cache.access(1024);
    cache.access(2048);
    // Probe the survivors first: the miss on 0 allocates again.
    EXPECT_TRUE(cache.access(1024));
    EXPECT_TRUE(cache.access(2048));
    EXPECT_FALSE(cache.access(0));
}

TEST(Cache, LruUpdatedOnHit)
{
    Cache cache({1024, 2, 64});
    cache.access(0);
    cache.access(1024);
    cache.access(0);    // refresh 0
    cache.access(2048); // evicts 1024 now
    EXPECT_TRUE(cache.access(0));
    EXPECT_FALSE(cache.access(1024));
}

TEST(Cache, CapacityMissPattern)
{
    // Stride through twice the capacity: second pass still misses.
    Cache cache(core2L1dGeometry());
    const std::uint64_t footprint = 64 * 1024;
    for (Addr a = 0; a < footprint; a += 64)
        cache.access(a);
    const auto misses_before = cache.misses();
    for (Addr a = 0; a < footprint; a += 64)
        cache.access(a);
    EXPECT_EQ(cache.misses(), misses_before + footprint / 64);
}

TEST(Cache, FitsWorkingSetAfterWarmup)
{
    Cache cache(core2L1dGeometry());
    const std::uint64_t footprint = 16 * 1024; // half of L1
    for (int pass = 0; pass < 4; ++pass)
        for (Addr a = 0; a < footprint; a += 64)
            cache.access(a);
    // Only the first pass's cold misses.
    EXPECT_EQ(cache.misses(), footprint / 64);
    EXPECT_EQ(cache.hits(), 3 * footprint / 64);
}

TEST(CacheDeath, InvalidGeometry)
{
    EXPECT_EXIT(Cache({1000, 2, 60}), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(Cache({1024, 0, 64}), ::testing::ExitedWithCode(1),
                "associativity");
}

TEST(Tlb, HitAfterFill)
{
    Tlb tlb(4, 4096);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1fff)); // same page
    EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, LruReplacement)
{
    Tlb tlb(2, 4096);
    tlb.access(0x0000);
    tlb.access(0x1000);
    tlb.access(0x0000);  // refresh page 0
    tlb.access(0x2000);  // evicts page 1
    EXPECT_TRUE(tlb.access(0x0000));
    EXPECT_FALSE(tlb.access(0x1000));
}

TEST(Tlb, ThrashWhenWorkingSetExceedsEntries)
{
    Tlb tlb(256, 4096);
    // 384 pages cyclically with LRU: every access misses.
    for (int pass = 0; pass < 3; ++pass)
        for (Addr p = 0; p < 384; ++p)
            tlb.access(p * 4096);
    EXPECT_EQ(tlb.hits(), 0u);
}

TEST(TlbDeath, InvalidConfig)
{
    EXPECT_EXIT(Tlb(0, 4096), ::testing::ExitedWithCode(1),
                "at least one");
    EXPECT_EXIT(Tlb(4, 1000), ::testing::ExitedWithCode(1),
                "power of two");
}

TEST(BranchPredictor, LearnsAlwaysTaken)
{
    BranchPredictor bp(10);
    for (int i = 0; i < 100; ++i)
        bp.predictAndTrain(0x400, true);
    // After warmup, the counter saturates: final predictions correct.
    BranchPredictor warm(10);
    int wrong = 0;
    for (int i = 0; i < 1000; ++i)
        wrong += !warm.predictAndTrain(0x400, true);
    EXPECT_LT(wrong, 25);
}

TEST(BranchPredictor, RandomBranchesNearFiftyPercent)
{
    BranchPredictor bp(14);
    Rng rng(3);
    std::uint64_t wrong = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        wrong += !bp.predictAndTrain(0x400, rng.bernoulli(0.5));
    EXPECT_NEAR(static_cast<double>(wrong) / n, 0.5, 0.05);
}

TEST(BranchPredictor, PatternLearnedThroughHistory)
{
    // Strict alternation is learnable via the global history register.
    BranchPredictor bp(12);
    bool taken = false;
    for (int i = 0; i < 2000; ++i) {
        bp.predictAndTrain(0x800, taken);
        taken = !taken;
    }
    int wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        wrong += !bp.predictAndTrain(0x800, taken);
        taken = !taken;
    }
    EXPECT_LT(wrong, 50);
}

TEST(BranchPredictorDeath, BadTableBits)
{
    EXPECT_EXIT(BranchPredictor(0), ::testing::ExitedWithCode(1),
                "table bits");
    EXPECT_EXIT(BranchPredictor(30), ::testing::ExitedWithCode(1),
                "table bits");
}
