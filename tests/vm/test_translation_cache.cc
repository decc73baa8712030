/**
 * @file
 * Page-table translation coherence: the structural epoch, reads after
 * every structural mutation (promotion, demotion, unmap, COW remap,
 * madvise), the fused lookupAndTouch walk, and consistency between
 * region queries and full leaf iteration.
 *
 * Each test reads the region first, mutates it, then checks that
 * later reads see the new truth. (The suite is named after the walk
 * cache these tests were written for; the table no longer has one.)
 */

#include <gtest/gtest.h>

#include <map>

#include "base/rng.hh"
#include "mem/phys.hh"
#include "vm/address_space.hh"
#include "vm/page_table.hh"

using namespace hawksim;
using vm::PageTable;
using vm::Pte;

TEST(TranslationCache, EpochBumpsOnEveryStructuralMutation)
{
    PageTable pt;
    std::uint64_t e = pt.translationEpoch();
    auto bumped = [&] {
        const std::uint64_t prev = e;
        e = pt.translationEpoch();
        return e != prev;
    };

    pt.mapBase(0x100, 1);
    EXPECT_TRUE(bumped());
    pt.remapBase(0x100, 2);
    EXPECT_TRUE(bumped());
    pt.unmapBase(0x100);
    EXPECT_TRUE(bumped());
    pt.mapHuge(1 << 9, 512);
    EXPECT_TRUE(bumped());
    pt.demote(1 << 9);
    EXPECT_TRUE(bumped());
    pt.promote(1 << 9, 1024);
    EXPECT_TRUE(bumped());
    pt.unmapHuge(1 << 9);
    EXPECT_TRUE(bumped());

    // Flag-only operations edit entries in place and must not bump
    // the epoch.
    pt.mapBase(0x200, 7);
    const std::uint64_t before = pt.translationEpoch();
    pt.touch(0x200, true);
    pt.clearAccessed(1);
    (void)pt.lookup(0x200);
    EXPECT_EQ(pt.translationEpoch(), before);
}

TEST(TranslationCache, PromoteInvalidatesWarmLookup)
{
    PageTable pt;
    const Vpn base = 3 << 9;
    pt.mapBase(base + 4, 100);
    // Read the region before the mutation.
    ASSERT_TRUE(pt.lookup(base + 4).present);
    ASSERT_EQ(pt.population(3), 1u);

    pt.promote(base, 4096);
    auto t = pt.lookup(base + 4);
    ASSERT_TRUE(t.present);
    EXPECT_TRUE(t.huge);
    EXPECT_EQ(t.pfn, 4096u + 4);
    EXPECT_EQ(pt.population(3), 512u);
}

TEST(TranslationCache, DemoteInvalidatesWarmLookup)
{
    PageTable pt;
    const Vpn base = 5 << 9;
    pt.mapHuge(base, 8192);
    ASSERT_TRUE(pt.lookup(base + 9).huge);

    pt.demote(base);
    auto t = pt.lookup(base + 9);
    ASSERT_TRUE(t.present);
    EXPECT_FALSE(t.huge);
    EXPECT_EQ(t.pfn, 8192u + 9);
    EXPECT_TRUE(pt.touch(base + 9, true));
    EXPECT_TRUE(pt.lookup(base + 9).entry.dirty());
}

TEST(TranslationCache, UnmapInvalidatesWarmLookup)
{
    PageTable pt;
    pt.mapBase(0x4321, 55);
    ASSERT_TRUE(pt.lookup(0x4321).present);
    pt.unmapBase(0x4321);
    EXPECT_FALSE(pt.lookup(0x4321).present);
    EXPECT_FALSE(pt.touch(0x4321, false));

    const Vpn base = 8 << 9;
    pt.mapHuge(base, 512);
    ASSERT_TRUE(pt.lookup(base + 3).present);
    pt.unmapHuge(base);
    EXPECT_FALSE(pt.lookup(base + 3).present);
    EXPECT_EQ(pt.population(8), 0u);
}

TEST(TranslationCache, CowRemapInvalidatesWarmLookup)
{
    PageTable pt;
    pt.mapBase(0x999, 10, vm::kPtePresent | vm::kPteCow);
    ASSERT_TRUE(pt.lookup(0x999).entry.cow());
    // The COW break retargets the mapping in place.
    pt.remapBase(0x999, 77);
    auto t = pt.lookup(0x999);
    EXPECT_EQ(t.pfn, 77u);
    EXPECT_TRUE(t.entry.cow()); // remap preserves flags
}

TEST(TranslationCache, MadviseDontneedInvalidatesWarmLookup)
{
    mem::PhysicalMemory pm(MiB(64));
    vm::AddressSpace space(1, pm);
    const Addr base = space.mmapAnon(MiB(4), "a");
    const Vpn vpn = addrToVpn(base);
    for (unsigned i = 0; i < 512; i++) {
        auto blk = pm.allocBlock(0, 1, mem::ZeroPref::kPreferZero);
        ASSERT_TRUE(blk.has_value());
        space.mapBasePage(vpn + i, blk->pfn);
    }
    auto &pt = space.pageTable();
    ASSERT_TRUE(pt.lookup(vpn + 17).present); // read before
    ASSERT_EQ(pt.population(vpn >> 9), 512u);

    space.madviseDontneed(base, kHugePageSize);
    EXPECT_FALSE(pt.lookup(vpn + 17).present);
    EXPECT_EQ(pt.population(vpn >> 9), 0u);
}

TEST(TranslationCache, LookupAndTouchMatchesLookupThenTouch)
{
    // The fused walk must be observationally identical to the seed's
    // two-walk sequence, for every kind of mapping and repeated use.
    PageTable fused, ref;
    const Vpn b0 = 2 << 9, b1 = 6 << 9;
    for (auto *pt : {&fused, &ref}) {
        pt->mapBase(b0 + 1, 100);
        pt->mapBase(b0 + 2, 101, vm::kPtePresent | vm::kPteCow);
        pt->mapHuge(b1, 4096);
    }

    Rng rng(99);
    for (int i = 0; i < 2000; i++) {
        const Vpn vpn =
            rng.chance(0.5) ? b0 + rng.below(4) : b1 + rng.below(512);
        const bool write = rng.chance(0.4);
        vm::Translation a = fused.lookupAndTouch(vpn, write);
        vm::Translation b = ref.lookup(vpn);
        if (b.present)
            ref.touch(vpn, write);
        EXPECT_EQ(a.present, b.present);
        EXPECT_EQ(a.huge, b.huge);
        EXPECT_EQ(a.pfn, b.pfn);
        // Pre-touch snapshot: what lookup-then-touch observes.
        EXPECT_EQ(a.entry.raw(), b.entry.raw());
        // And the tables agree afterwards.
        EXPECT_EQ(fused.lookup(vpn).entry.raw(),
                  ref.lookup(vpn).entry.raw());
    }
}

/**
 * Consistency sweep: after a random mutation storm with interleaved
 * reads, population() and regionView() must agree with a full
 * forEachLeaf pass for every region.
 */
TEST(TranslationCache, ForEachLeafMatchesCachedPopulationSweep)
{
    Rng rng(4242);
    PageTable pt;
    std::map<std::uint64_t, bool> huge_regions; // region -> isHuge
    for (int step = 0; step < 3000; step++) {
        const std::uint64_t region = rng.below(24);
        const Vpn vpn = (region << 9) + rng.below(512);
        // Interleave reads with the mutations.
        (void)pt.lookup(vpn);
        (void)pt.population(region);
        const bool huge = huge_regions.count(region) &&
                          huge_regions[region];
        switch (rng.below(5)) {
          case 0:
            if (!huge && !pt.lookup(vpn).present)
                pt.mapBase(vpn, rng.below(1 << 20));
            break;
          case 1:
            if (!huge && pt.lookup(vpn).present)
                pt.unmapBase(vpn);
            break;
          case 2:
            if (!huge) {
                pt.promote(region << 9, region << 9);
                huge_regions[region] = true;
            }
            break;
          case 3:
            if (huge) {
                pt.demote(region << 9);
                huge_regions[region] = false;
            }
            break;
          case 4:
            if (pt.lookup(vpn).present)
                pt.touch(vpn, rng.chance(0.5));
            break;
        }
    }

    std::map<std::uint64_t, unsigned> leaf_pop;
    pt.forEachLeaf([&](Vpn vpn, const Pte &, bool huge) {
        leaf_pop[vpn >> 9] += huge ? 512 : 1;
    });
    for (std::uint64_t region = 0; region < 24; region++) {
        const unsigned expect =
            leaf_pop.count(region) ? leaf_pop[region] : 0;
        EXPECT_EQ(pt.population(region), expect)
            << "region " << region;
        const auto view = pt.regionView(region);
        EXPECT_EQ(view.population, expect) << "region " << region;
        EXPECT_EQ(view.accessed, pt.accessedCount(region))
            << "region " << region;
        EXPECT_EQ(view.huge, pt.isHuge(region))
            << "region " << region;
    }
}
