#include "vm/page_table.hh"

#include "base/logging.hh"
#include "snap/snap.hh"

namespace hawksim::vm {

PageTable::Node *
PageTable::pdNode(Vpn vpn, bool create)
{
    Node *l3 = &root_;
    const unsigned i3 = idxL3(vpn);
    if (!l3->children[i3]) {
        if (!create)
            return nullptr;
        l3->children[i3] = std::make_unique<Node>();
        l3->used++;
    }
    Node *l2 = l3->children[i3].get();
    const unsigned i2 = idxL2(vpn);
    if (!l2->children[i2]) {
        if (!create)
            return nullptr;
        l2->children[i2] = std::make_unique<Node>();
        l2->used++;
    }
    return l2->children[i2].get();
}

PageTable::Node *
PageTable::walkPd(Vpn vpn) const
{
    auto *self = const_cast<PageTable *>(this);
    Node *l2 = self->root_.children[idxL3(vpn)].get();
    if (!l2)
        return nullptr;
    return l2->children[idxL2(vpn)].get();
}

void
PageTable::mapBase(Vpn vpn, Pfn pfn, std::uint64_t flags)
{
    Node *pd = pdNode(vpn, true);
    const unsigned i1 = idxL1(vpn);
    Pte pd_entry(pd->entries[i1]);
    HS_ASSERT(!pd_entry.huge(), "mapBase under a huge mapping, vpn ", vpn);
    if (!pd->children[i1]) {
        pd->children[i1] = std::make_unique<Node>();
        pd->used++;
    }
    Node *pt = pd->children[i1].get();
    const unsigned i0 = idxL0(vpn);
    HS_ASSERT(!Pte(pt->entries[i0]).present(),
              "double map of vpn ", vpn);
    pt->entries[i0] = Pte::make(pfn, flags | kPtePresent).raw();
    pt->used++;
    base_pages_++;
    bumpEpoch();
}

void
PageTable::mapHuge(Vpn vpn, Pfn block_pfn, std::uint64_t flags)
{
    Node *pd = pdNode(vpn, true);
    const unsigned i1 = idxL1(vpn);
    HS_ASSERT(!pd->children[i1],
              "mapHuge over populated PT, region ", vpnToHugeRegion(vpn));
    HS_ASSERT(!Pte(pd->entries[i1]).present(),
              "double huge map, region ", vpnToHugeRegion(vpn));
    pd->entries[i1] =
        Pte::make(block_pfn, flags | kPtePresent | kPteHuge).raw();
    pd->used++;
    huge_pages_++;
    bumpEpoch();
}

Pte
PageTable::unmapBase(Vpn vpn)
{
    Node *pd = pdNode(vpn, false);
    HS_ASSERT(pd, "unmapBase of unmapped vpn ", vpn);
    const unsigned i1 = idxL1(vpn);
    Node *pt = pd->children[i1].get();
    HS_ASSERT(pt, "unmapBase of unmapped vpn ", vpn);
    const unsigned i0 = idxL0(vpn);
    Pte old(pt->entries[i0]);
    HS_ASSERT(old.present() && !old.huge(),
              "unmapBase of non-present vpn ", vpn);
    pt->entries[i0] = 0;
    pt->used--;
    base_pages_--;
    if (pt->used == 0) {
        pd->children[i1].reset();
        pd->used--;
    }
    bumpEpoch();
    return old;
}

Pte
PageTable::unmapHuge(Vpn vpn)
{
    Node *pd = pdNode(vpn, false);
    HS_ASSERT(pd, "unmapHuge of unmapped region");
    const unsigned i1 = idxL1(vpn);
    Pte old(pd->entries[i1]);
    HS_ASSERT(old.present() && old.huge(),
              "unmapHuge of non-huge region ", vpnToHugeRegion(vpn));
    pd->entries[i1] = 0;
    pd->used--;
    huge_pages_--;
    bumpEpoch();
    return old;
}

void
PageTable::remapBase(Vpn vpn, Pfn new_pfn)
{
    bool is_huge = false;
    Pte *e = leafEntry(vpn, &is_huge);
    HS_ASSERT(e && !is_huge, "remapBase of unmapped/huge vpn ", vpn);
    const std::uint64_t flags = e->raw() & 0xfff;
    *e = Pte::make(new_pfn, flags);
    bumpEpoch();
}

std::vector<std::pair<Vpn, Pte>>
PageTable::promote(Vpn vpn, Pfn block_pfn)
{
    Node *pd = pdNode(vpn, true);
    const unsigned i1 = idxL1(vpn);
    std::vector<std::pair<Vpn, Pte>> old;
    std::uint64_t agg_flags = 0;
    if (Node *pt = pd->children[i1].get()) {
        const Vpn region_base = (vpn >> 9) << 9;
        for (unsigned i = 0; i < 512; i++) {
            Pte e(pt->entries[i]);
            if (!e.present())
                continue;
            agg_flags |= e.raw() & (kPteAccessed | kPteDirty);
            old.emplace_back(region_base + i, e);
        }
        base_pages_ -= old.size();
        pd->children[i1].reset();
        pd->used--;
    }
    pd->entries[i1] = Pte::make(block_pfn, kPtePresent | kPteHuge |
                                               agg_flags)
                          .raw();
    pd->used++;
    huge_pages_++;
    bumpEpoch();
    return old;
}

Pte
PageTable::demote(Vpn vpn)
{
    Node *pd = pdNode(vpn, false);
    HS_ASSERT(pd, "demote of unmapped region");
    const unsigned i1 = idxL1(vpn);
    Pte old(pd->entries[i1]);
    HS_ASSERT(old.present() && old.huge(),
              "demote of non-huge region ", vpnToHugeRegion(vpn));
    pd->entries[i1] = 0;
    huge_pages_--;
    // pd->used stays: the slot now holds a PT instead of a leaf.
    pd->children[i1] = std::make_unique<Node>();
    Node *pt = pd->children[i1].get();
    const std::uint64_t inherit =
        old.raw() & (kPteAccessed | kPteDirty | kPteCow);
    for (unsigned i = 0; i < 512; i++) {
        pt->entries[i] =
            Pte::make(old.pfn() + i, kPtePresent | inherit).raw();
    }
    pt->used = 512;
    base_pages_ += 512;
    bumpEpoch();
    return old;
}

Translation
PageTable::lookup(Vpn vpn) const
{
    Translation t;
    const Node *pd = walkPd(vpn);
    if (!pd)
        return t;
    const unsigned i1 = idxL1(vpn);
    Pte pd_entry(pd->entries[i1]);
    if (pd_entry.present() && pd_entry.huge()) {
        t.present = true;
        t.huge = true;
        t.pfn = pd_entry.pfn() + idxL0(vpn);
        t.entry = pd_entry;
        return t;
    }
    const Node *pt = pd->children[i1].get();
    if (!pt)
        return t;
    Pte e(pt->entries[idxL0(vpn)]);
    if (!e.present())
        return t;
    t.present = true;
    t.huge = false;
    t.pfn = e.pfn();
    t.entry = e;
    return t;
}

bool
PageTable::touch(Vpn vpn, bool write)
{
    bool is_huge = false;
    Pte *e = leafEntry(vpn, &is_huge);
    if (!e)
        return false;
    e->setFlag(write ? (kPteAccessed | kPteDirty)
                     : std::uint64_t{kPteAccessed});
    return true;
}

Translation
PageTable::lookupAndTouch(Vpn vpn, bool write)
{
    const std::uint64_t touch_flags =
        write ? (kPteAccessed | kPteDirty)
              : std::uint64_t{kPteAccessed};
    Translation t;
    Node *pd = walkPd(vpn);
    if (!pd)
        return t;
    const unsigned i1 = idxL1(vpn);
    Pte pd_entry(pd->entries[i1]);
    if (pd_entry.present() && pd_entry.huge()) {
        t.present = true;
        t.huge = true;
        t.pfn = pd_entry.pfn() + idxL0(vpn);
        t.entry = pd_entry; // pre-touch snapshot
        pd->entries[i1] = pd_entry.raw() | touch_flags;
        return t;
    }
    Node *pt = pd->children[i1].get();
    if (!pt)
        return t;
    std::uint64_t &raw = pt->entries[idxL0(vpn)];
    Pte e(raw);
    if (!e.present())
        return t;
    t.present = true;
    t.huge = false;
    t.pfn = e.pfn();
    t.entry = e; // pre-touch snapshot
    raw |= touch_flags;
    return t;
}

void
PageTable::clearAccessed(std::uint64_t region)
{
    const Vpn base = region << 9;
    Node *pd = walkPd(base);
    if (!pd)
        return;
    const unsigned i1 = idxL1(base);
    Pte pd_entry(pd->entries[i1]);
    if (pd_entry.present() && pd_entry.huge()) {
        Pte cleared = pd_entry;
        cleared.clearFlag(kPteAccessed);
        pd->entries[i1] = cleared.raw();
        return;
    }
    if (Node *pt = pd->children[i1].get()) {
        for (auto &raw : pt->entries) {
            Pte e(raw);
            if (e.present()) {
                e.clearFlag(kPteAccessed);
                raw = e.raw();
            }
        }
    }
}

unsigned
PageTable::accessedCount(std::uint64_t region) const
{
    const Vpn base = region << 9;
    const Node *pd = walkPd(base);
    if (!pd)
        return 0;
    const unsigned i1 = idxL1(base);
    Pte pd_entry(pd->entries[i1]);
    if (pd_entry.present() && pd_entry.huge())
        return pd_entry.accessed() ? 512 : 0;
    const Node *pt = pd->children[i1].get();
    if (!pt)
        return 0;
    unsigned n = 0;
    for (auto raw : pt->entries) {
        Pte e(raw);
        if (e.present() && e.accessed())
            n++;
    }
    return n;
}

unsigned
PageTable::population(std::uint64_t region) const
{
    const Vpn base = region << 9;
    const Node *pd = walkPd(base);
    if (!pd)
        return 0;
    const unsigned i1 = idxL1(base);
    Pte pd_entry(pd->entries[i1]);
    if (pd_entry.present() && pd_entry.huge())
        return 512;
    const Node *pt = pd->children[i1].get();
    return pt ? pt->used : 0;
}

bool
PageTable::isHuge(std::uint64_t region) const
{
    const Vpn base = region << 9;
    const Node *pd = walkPd(base);
    if (!pd)
        return false;
    Pte e(pd->entries[idxL1(base)]);
    return e.present() && e.huge();
}

PageTable::RegionView
PageTable::regionView(std::uint64_t region) const
{
    RegionView view;
    const Vpn base = region << 9;
    const Node *pd = walkPd(base);
    if (!pd)
        return view;
    const unsigned i1 = idxL1(base);
    Pte pd_entry(pd->entries[i1]);
    if (pd_entry.present() && pd_entry.huge()) {
        view.population = 512;
        view.accessed = pd_entry.accessed() ? 512 : 0;
        view.huge = true;
        return view;
    }
    const Node *pt = pd->children[i1].get();
    if (!pt)
        return view;
    view.population = pt->used;
    for (auto raw : pt->entries) {
        Pte e(raw);
        if (e.present() && e.accessed())
            view.accessed++;
    }
    return view;
}

void
PageTable::forEachLeaf(
    const std::function<void(Vpn, const Pte &, bool)> &fn) const
{
    for (unsigned i3 = 0; i3 < 512; i3++) {
        const Node *l2 = root_.children[i3].get();
        if (!l2)
            continue;
        for (unsigned i2 = 0; i2 < 512; i2++) {
            const Node *pd = l2->children[i2].get();
            if (!pd)
                continue;
            for (unsigned i1 = 0; i1 < 512; i1++) {
                const Vpn base =
                    (static_cast<Vpn>(i3) << 27) |
                    (static_cast<Vpn>(i2) << 18) |
                    (static_cast<Vpn>(i1) << 9);
                Pte pd_entry(pd->entries[i1]);
                if (pd_entry.present() && pd_entry.huge()) {
                    fn(base, pd_entry, true);
                    continue;
                }
                const Node *pt = pd->children[i1].get();
                if (!pt)
                    continue;
                for (unsigned i0 = 0; i0 < 512; i0++) {
                    Pte e(pt->entries[i0]);
                    if (e.present())
                        fn(base + i0, e, false);
                }
            }
        }
    }
}

void
PageTable::auditStructure(
    const std::function<void(const char *, Vpn, std::uint64_t)> &fn)
    const
{
    std::uint64_t base_count = 0;
    std::uint64_t huge_count = 0;
    for (unsigned i3 = 0; i3 < 512; i3++) {
        const Node *l2 = root_.children[i3].get();
        if (!l2)
            continue;
        for (unsigned i2 = 0; i2 < 512; i2++) {
            const Node *pd = l2->children[i2].get();
            if (!pd)
                continue;
            unsigned pd_used = 0;
            for (unsigned i1 = 0; i1 < 512; i1++) {
                const Vpn base =
                    (static_cast<Vpn>(i3) << 27) |
                    (static_cast<Vpn>(i2) << 18) |
                    (static_cast<Vpn>(i1) << 9);
                const Pte pd_entry(pd->entries[i1]);
                const Node *pt = pd->children[i1].get();
                const bool is_huge =
                    pd_entry.present() && pd_entry.huge();
                if (is_huge || pt)
                    pd_used++;
                if (is_huge) {
                    huge_count++;
                    if ((pd_entry.pfn() % kPagesPerHuge) != 0)
                        fn("huge-misaligned", base, pd_entry.pfn());
                    if (pt) {
                        unsigned shadows = 0;
                        for (unsigned i0 = 0; i0 < 512; i0++)
                            if (Pte(pt->entries[i0]).present())
                                shadows++;
                        fn("huge-shadow", base, shadows);
                    }
                }
                if (!pt)
                    continue;
                unsigned present = 0;
                for (unsigned i0 = 0; i0 < 512; i0++)
                    if (Pte(pt->entries[i0]).present())
                        present++;
                if (!is_huge)
                    base_count += present;
                if (present != pt->used)
                    fn("node-used-drift", base, present);
            }
            if (pd_used != pd->used)
                fn("node-used-drift",
                   (static_cast<Vpn>(i3) << 27) |
                       (static_cast<Vpn>(i2) << 18),
                   pd_used);
        }
    }
    if (base_count != base_pages_)
        fn("counter-drift", 0, base_count);
    if (huge_count != huge_pages_)
        fn("counter-drift", 0, huge_count);
}

Pte *
PageTable::leafEntry(Vpn vpn, bool *is_huge)
{
    Node *pd = walkPd(vpn);
    if (!pd)
        return nullptr;
    const unsigned i1 = idxL1(vpn);
    Pte pd_entry(pd->entries[i1]);
    if (pd_entry.present() && pd_entry.huge()) {
        if (is_huge)
            *is_huge = true;
        return reinterpret_cast<Pte *>(&pd->entries[i1]);
    }
    Node *pt = pd->children[i1].get();
    if (!pt)
        return nullptr;
    Pte *e = reinterpret_cast<Pte *>(&pt->entries[idxL0(vpn)]);
    if (!e->present())
        return nullptr;
    if (is_huge)
        *is_huge = false;
    return e;
}

void
PageTable::save(snap::Writer &w) const
{
    w.u64(base_pages_);
    w.u64(huge_pages_);
    w.u64(epoch_);
    // forEachLeaf walks the radix tree in ascending vpn order, so the
    // leaf list is canonical.
    std::uint64_t leaves = 0;
    forEachLeaf([&](Vpn, const Pte &, bool) { leaves++; });
    w.u64(leaves);
    forEachLeaf([&](Vpn vpn, const Pte &pte, bool is_huge) {
        w.u64(vpn);
        w.u64(pte.raw());
        w.b(is_huge);
    });
}

void
PageTable::load(snap::Reader &r)
{
    const std::uint64_t base_pages = r.u64();
    const std::uint64_t huge_pages = r.u64();
    const std::uint64_t epoch = r.u64();
    const std::uint64_t leaves = r.u64();

    root_ = Node{};
    base_pages_ = 0;
    huge_pages_ = 0;
    for (std::uint64_t i = 0; i < leaves; i++) {
        const Vpn vpn = r.u64();
        const std::uint64_t raw = r.u64();
        const bool is_huge = r.b();
        // mapBase/mapHuge rebuild the exact entry word: the saved
        // flag bits already include present (and huge), which the
        // mapping primitives OR in idempotently.
        const Pfn pfn = Pte(raw).pfn();
        const std::uint64_t flags = raw & 0xfffull;
        if (is_huge)
            mapHuge(vpn, pfn, flags);
        else
            mapBase(vpn, pfn, flags);
    }
    HS_ASSERT(base_pages_ == base_pages && huge_pages_ == huge_pages,
              "snapshot: page-table leaf counters drifted on load");

    // The rebuild bumped the epoch per mapping; restore the saved
    // value so audit logs keyed by epoch still line up.
    epoch_ = epoch;
}

} // namespace hawksim::vm
