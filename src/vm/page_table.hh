/**
 * @file
 * Four-level radix page table (x86-64 layout: PML4/PDPT/PD/PT).
 *
 * Huge (2MB) mappings are leaves at the PD level; base (4KB) mappings
 * are leaves at the PT level, exactly like hardware. The table
 * maintains population counts per 2MB region so huge-page policies can
 * query utilization in O(1), and supports the promotion/demotion
 * primitives (replace a PT with a huge leaf and vice versa).
 *
 * Every mutation that creates, destroys or retargets a leaf entry
 * (mapBase/mapHuge/unmapBase/unmapHuge/remapBase/promote/demote —
 * madvise unmaps go through these) bumps a structural *epoch*. The
 * TLB model tags its coherence audit log with it, and checkpoint
 * images carry it, so audit logs keyed by epoch line up after a
 * restore.
 */

#ifndef HAWKSIM_VM_PAGE_TABLE_HH
#define HAWKSIM_VM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "vm/pte.hh"

namespace hawksim::snap {
class Writer;
class Reader;
} // namespace hawksim::snap

namespace hawksim::vm {

class PageTable
{
  public:
    PageTable() = default;

    /** @name Mapping primitives */
    /// @{
    /** Install a 4KB mapping. Panics if the vpn is already mapped. */
    void mapBase(Vpn vpn, Pfn pfn, std::uint64_t flags = kPtePresent);
    /**
     * Install a 2MB mapping for the region containing @p vpn. The
     * region must be empty (no PT and no huge leaf). @p block_pfn is
     * the first of 512 contiguous frames.
     */
    void mapHuge(Vpn vpn, Pfn block_pfn,
                 std::uint64_t flags = kPtePresent);
    /** Remove a 4KB mapping; returns the old entry. */
    Pte unmapBase(Vpn vpn);
    /** Remove a 2MB mapping; returns the old entry. */
    Pte unmapHuge(Vpn vpn);
    /** Replace the frame of an existing base mapping (migration). */
    void remapBase(Vpn vpn, Pfn new_pfn);
    /// @}

    /** @name Promotion / demotion */
    /// @{
    /**
     * Promote a fully- or partially-populated region to a huge
     * mapping backed by @p block_pfn. Returns the old base PTEs
     * (present entries only, with their vpn) so the caller can free
     * or copy the old frames. Aggregates accessed/dirty bits.
     */
    std::vector<std::pair<Vpn, Pte>> promote(Vpn vpn, Pfn block_pfn);
    /**
     * Demote the huge mapping covering @p vpn into 512 base mappings
     * pointing into the same physical block. Returns the old huge
     * entry.
     */
    Pte demote(Vpn vpn);
    /// @}

    /** @name Lookup and access bits */
    /// @{
    Translation lookup(Vpn vpn) const;
    /**
     * MMU access simulation: set accessed (and dirty for writes) on
     * the leaf entry mapping @p vpn. Returns false if unmapped.
     */
    bool touch(Vpn vpn, bool write);
    /**
     * Fused lookup + touch in a single walk: translate @p vpn and, if
     * present, set accessed (and dirty for writes) on the leaf entry.
     * The returned Translation snapshots the entry *before* the touch,
     * exactly as a `lookup()` followed by `touch()` would observe it.
     */
    Translation lookupAndTouch(Vpn vpn, bool write);
    /** Clear accessed bits for every leaf entry in a 2MB region. */
    void clearAccessed(std::uint64_t region);
    /**
     * Count base pages in the region with the accessed bit set. A
     * huge mapping counts as its full population if accessed.
     */
    unsigned accessedCount(std::uint64_t region) const;
    /// @}

    /** @name Region queries */
    /// @{
    /** Present 4KB pages in a 2MB region (512 if huge-mapped). */
    unsigned population(std::uint64_t region) const;
    /** True if the region is covered by a huge leaf. */
    bool isHuge(std::uint64_t region) const;
    /** Population, accessed count and hugeness of one region. */
    struct RegionView
    {
        unsigned population = 0;
        unsigned accessed = 0;
        bool huge = false;
    };
    /**
     * All three region statistics from a single walk + PT scan —
     * what the access-bit tracker reads every sample window.
     */
    RegionView regionView(std::uint64_t region) const;
    /// @}

    /** @name Aggregate counters */
    /// @{
    std::uint64_t mappedBasePages() const { return base_pages_; }
    std::uint64_t mappedHugePages() const { return huge_pages_; }
    /** Total mapped 4KB-equivalents. */
    std::uint64_t
    mappedPages() const
    {
        return base_pages_ + huge_pages_ * kPagesPerHuge;
    }
    /// @}

    /**
     * Iterate every leaf mapping: callback(vpn, entry, is_huge). For
     * huge leaves the vpn is the region's first page.
     */
    void forEachLeaf(
        const std::function<void(Vpn, const Pte &, bool)> &fn) const;

    /** Mutable leaf entry access for in-place flag edits (OS use). */
    Pte *leafEntry(Vpn vpn, bool *is_huge = nullptr);

    /**
     * Leaf entries + the structural epoch. Load rebuilds the radix
     * tree from scratch and restores the epoch.
     */
    void save(snap::Writer &w) const;
    void load(snap::Reader &r);

    /**
     * Structural self-audit for the fault::Auditor. Walks the raw
     * tree (not forEachLeaf — shadows would be invisible there) and
     * reports each defect as callback(tag, vpn, value):
     *   - "huge-shadow": a huge PD leaf whose slot also holds a live
     *     PT node with present 4K entries underneath the 2MB mapping
     *   - "huge-misaligned": a huge leaf whose block pfn is not
     *     512-aligned (value = the pfn)
     *   - "node-used-drift": a node's `used` count disagrees with its
     *     present entries/children (value = recount)
     *   - "counter-drift": base_pages_/huge_pages_ disagree with the
     *     tree (vpn = 0, value = recount)
     */
    void auditStructure(
        const std::function<void(const char *, Vpn, std::uint64_t)>
            &fn) const;

    /** Structural mutation epoch (see the file comment). */
    std::uint64_t translationEpoch() const { return epoch_; }

  private:
    struct Node
    {
        std::array<std::uint64_t, 512> entries{};
        std::array<std::unique_ptr<Node>, 512> children;
        /** Present leaf/child count, for reclaiming empty nodes. */
        unsigned used = 0;
    };

    static unsigned idxL3(Vpn v) { return (v >> 27) & 511; }
    static unsigned idxL2(Vpn v) { return (v >> 18) & 511; }
    static unsigned idxL1(Vpn v) { return (v >> 9) & 511; }
    static unsigned idxL0(Vpn v) { return v & 511; }

    /** Walk to the PD node covering vpn, optionally creating it. */
    Node *pdNode(Vpn vpn, bool create);

    /**
     * Read-only walk to the PD node. The const_cast is sound: the
     * walk itself never mutates, and callers that write through the
     * returned node are non-const methods of this table.
     */
    Node *walkPd(Vpn vpn) const;
    /** Record a structural mutation. */
    void bumpEpoch() { epoch_++; }

    Node root_;
    std::uint64_t base_pages_ = 0;
    std::uint64_t huge_pages_ = 0;

    std::uint64_t epoch_ = 1;
};

} // namespace hawksim::vm

#endif // HAWKSIM_VM_PAGE_TABLE_HH
