/**
 * @file
 * TLB hierarchy and page-walk model.
 *
 * Models the paper's experimental platform (Intel Haswell-EP):
 *   - L1 DTLB: 64 entries for 4KB pages, 8 entries for 2MB pages
 *   - L2 STLB: 1024 entries shared between both page sizes
 *   - page-walk caches for the upper levels of the radix table
 *
 * The model consumes *sampled* access streams: the engine passes a
 * seeded sample of page-granularity accesses per tick plus the true
 * total access count; miss counts and walk cycles are extrapolated by
 * the caller via the sampling factor.
 *
 * Sequential access patterns hide part of the TLB-miss latency behind
 * prefetching and out-of-order overlap (§2.4 — the reason WSS is a
 * poor predictor of MMU overhead, and the mechanism behind Table 9's
 * HawkEye-G mispredictions). This is modelled as an overlap factor
 * that discounts walk cycles as a function of the batch's measured
 * sequentiality.
 */

#ifndef HAWKSIM_TLB_TLB_HH
#define HAWKSIM_TLB_TLB_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/aligned.hh"
#include "base/types.hh"
#include "tlb/perf_counters.hh"
#include "vm/page_table.hh"

namespace hawksim::snap {
class Writer;
class Reader;
} // namespace hawksim::snap

namespace hawksim::tlb {

/** One sampled memory access at page granularity. */
struct AccessSample
{
    Vpn vpn;
    bool write = false;
};

/**
 * A set-associative translation cache with LRU replacement.
 *
 * Stored as struct-of-arrays: one cache-aligned key column and one
 * LRU column, so a whole 8-way set's tags fit in a single cache line
 * (the AoS {key, lru, valid} layout spanned three). Both columns are
 * densely packed — a set-major key+LRU interleaving was tried and
 * measured *worse*: the 128-byte set stride parks key lines on
 * even-numbered cache lines only, halving the effective L1d capacity
 * for the large structures and turning the miss-heavy grid points
 * pathological. Validity is folded into the key column via a
 * sentinel — every real key the model produces has its top bits
 * clear (vpns are <= 2^36 and walk line ids carry a level tag in
 * bits 60..62), so `~0ull` can never collide with a live entry and
 * the per-way `valid` bool disappears from the probe loop.
 */
class SetAssocTlb
{
  public:
    /** Key column sentinel marking an empty/invalid way. */
    static constexpr std::uint64_t kInvalidKey = ~0ull;

    SetAssocTlb(unsigned entries, unsigned ways);

    /** Cheap key mixer so strided keys spread across sets. */
    static std::uint64_t
    mixKey(std::uint64_t key)
    {
        key ^= key >> 33;
        key *= 0xff51afd7ed558ccdull;
        key ^= key >> 33;
        return key;
    }

    /** True on hit; refreshes LRU state. */
    bool
    lookup(std::uint64_t key)
    {
        return lookupAt(baseOf(key), key);
    }

    void
    insert(std::uint64_t key)
    {
        insertAt(baseOf(key), key);
    }

    /**
     * Resolve @p key to its set's base way index. Pairs with
     * `lookupOrInsertAt`: the simulate loop precomputes bases for a
     * whole chunk in one ILP-friendly pre-pass, lifting the serial
     * mix/mask chain off each probe's critical path.
     */
    std::size_t
    baseOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(setOf(mixKey(key))) * ways_;
    }

    /**
     * Fused lookup + fill-on-miss at a precomputed set base (see
     * `baseOf`): one pass over the ways serves both operations.
     * Returns true on hit, refreshing LRU exactly like `lookup`; on
     * miss the key is inserted with `insert`'s victim choice before
     * returning false. State-equivalent to
     * `lookup(k) || (insert(k), false)`.
     *
     * Fronted by a one-entry MRU memo: if @p key is the key this
     * structure probed last time, it is still resident at the
     * memoized way and the probe collapses to the LRU refresh. The
     * shortcut is exact, not approximate:
     *   - a key maps to one set and sets hold no duplicates, so a
     *     full scan would find precisely the memoized way;
     *   - no intervening fused probe can have evicted it — the memoed
     *     way carries the structure-wide maximum LRU stamp (it was
     *     the last op), and fills pick an empty way or the set
     *     minimum, never the maximum (ways >= 2);
     *   - anything else that writes the key column (`insert`, `load`,
     *     `flush`) drops the memo.
     * Repeats dominate real probe streams here: every 4K walk in a
     * batch hits the PWC-PDPTE with the same vpn>>18, huge-page runs
     * re-probe one region key, and sequential pages share PTE lines.
     */
    HAWKSIM_ALWAYS_INLINE bool
    lookupOrInsertAt(std::size_t base, std::uint64_t key)
    {
        if (key == memo_key_) {
            lru_[memo_idx_] = ++tick_;
            return true;
        }
        // Dispatch on the two real geometries so the scans unroll
        // with a compile-time trip count (and stay branch-free).
        switch (ways_) {
          case 4:
            return probeOrFill<4>(base, key);
          case 8:
            return probeOrFill<8>(base, key);
          default:
            return lookupMemo(base, key) ||
                   (insertMemo(base, key), false);
        }
    }

    void flush();
    unsigned entries() const { return sets_ * ways_; }

    /**
     * Prefetch a set by precomputed base (see `baseOf`). Pulls both
     * columns: a miss needs the LRU line for the victim scan and then
     * writes both, so fetching only the tag line hides half the
     * stall.
     */
    void
    prefetchBase(std::size_t base) const
    {
        prefetchWrite(keys_.data() + base);
        prefetchWrite(lru_.data() + base);
    }

    /** Currently-valid entries (occupancy introspection), one pass. */
    unsigned
    validEntries() const
    {
        unsigned n = 0;
        for (std::uint64_t k : keys_)
            n += k != kInvalidKey ? 1 : 0;
        return n;
    }

    /** LRU clock + every way; geometry is construction-checked. */
    void save(snap::Writer &w) const;
    void load(snap::Reader &r);

  private:
    /** `lookup` body for a precomputed set base index. */
    bool
    lookupAt(std::size_t base, std::uint64_t key)
    {
        const std::uint64_t *keys = keys_.data() + base;
        for (unsigned w = 0; w < ways_; w++) {
            if (keys[w] == key) {
                lru_[base + w] = ++tick_;
                return true;
            }
        }
        return false;
    }

    /** `insert` body for a precomputed set base index. */
    void
    insertAt(std::size_t base, std::uint64_t key)
    {
        std::uint64_t *keys = keys_.data() + base;
        std::uint64_t *lru = lru_.data() + base;
        // First empty way wins, else the least-recently-used one —
        // identical victim choice to the AoS first-!valid/min-lru scan.
        unsigned victim = 0;
        for (unsigned w = 0; w < ways_; w++) {
            if (keys[w] == kInvalidKey) {
                victim = w;
                break;
            }
            if (lru[w] < lru[victim])
                victim = w;
        }
        keys[victim] = key;
        lru[victim] = ++tick_;
        // A discrete insert rewrites the key column outside the fused
        // probe's eviction reasoning: drop the memo.
        memo_key_ = kInvalidKey;
    }

    /** `lookupAt` that also sets the memo (odd-geometry fallback). */
    bool
    lookupMemo(std::size_t base, std::uint64_t key)
    {
        const std::uint64_t *keys = keys_.data() + base;
        for (unsigned w = 0; w < ways_; w++) {
            if (keys[w] == key) {
                lru_[base + w] = ++tick_;
                memo_key_ = key;
                memo_idx_ = static_cast<std::uint32_t>(base + w);
                return true;
            }
        }
        return false;
    }

    /** `insertAt` that also sets the memo (odd-geometry fallback). */
    void
    insertMemo(std::size_t base, std::uint64_t key)
    {
        std::uint64_t *keys = keys_.data() + base;
        std::uint64_t *lru = lru_.data() + base;
        unsigned victim = 0;
        for (unsigned w = 0; w < ways_; w++) {
            if (keys[w] == kInvalidKey) {
                victim = w;
                break;
            }
            if (lru[w] < lru[victim])
                victim = w;
        }
        keys[victim] = key;
        lru[victim] = ++tick_;
        memo_key_ = key;
        memo_idx_ = static_cast<std::uint32_t>(base + victim);
    }

    /**
     * Fused probe over a fixed way count. The hit scan visits every
     * way with conditional moves (one branch on the outcome instead
     * of one per way); the victim scan runs only on a miss and maps
     * empty ways to an effective LRU of 0 — valid stamps start at 1
     * (`++tick_` from 0) — so a strict-< minimum picks the first
     * empty way, else the first least-recently-used way, exactly like
     * `insertAt`'s early-exit loop.
     */
    template <unsigned N>
    HAWKSIM_ALWAYS_INLINE bool
    probeOrFill(std::size_t base, std::uint64_t key)
    {
        std::uint64_t *keys = keys_.data() + base;
        std::uint64_t *lru = lru_.data() + base;
        unsigned hit_way = N;
        for (unsigned w = 0; w < N; w++)
            hit_way = keys[w] == key ? w : hit_way;
        if (hit_way != N) {
            lru[hit_way] = ++tick_;
            memo_key_ = key;
            memo_idx_ = static_cast<std::uint32_t>(base + hit_way);
            return true;
        }
        // Victim scan as a tree-min over `(effectiveLru << 3) | way`
        // — way indices break ties (only empties can tie, at 0), so
        // the minimum is the first empty way, else the first
        // least-recently-used way: `insertAt`'s exact choice, but in
        // log-depth selects instead of a serial compare chain.
        std::uint64_t packed[N];
        for (unsigned w = 0; w < N; w++) {
            const std::uint64_t eff =
                keys[w] == kInvalidKey ? 0 : lru[w];
            packed[w] = (eff << 3) | w;
        }
        std::uint64_t best = std::min(packed[0], packed[1]);
        if constexpr (N >= 4) {
            best = std::min(best, std::min(packed[2], packed[3]));
        }
        if constexpr (N == 8) {
            const std::uint64_t hi =
                std::min(std::min(packed[4], packed[5]),
                         std::min(packed[6], packed[7]));
            best = std::min(best, hi);
        }
        const unsigned victim = static_cast<unsigned>(best & 7);
        keys[victim] = key;
        lru[victim] = ++tick_;
        memo_key_ = key;
        memo_idx_ = static_cast<std::uint32_t>(base + victim);
        return false;
    }

    /**
     * Set index for @p key. All standard geometries have
     * power-of-two set counts, where `h % sets == h & (sets - 1)`
     * bit-for-bit; the mask form avoids a hardware divide on the
     * simulator's hottest path. Odd set counts fall back to the
     * division, so the mapping is identical either way.
     */
    unsigned
    setOf(std::uint64_t hash) const
    {
        if (mask_ != 0 || sets_ == 1)
            return static_cast<unsigned>(hash & mask_);
        return static_cast<unsigned>(hash % sets_);
    }

    unsigned sets_;
    unsigned ways_;
    std::uint64_t mask_ = 0; //!< sets_ - 1 when sets_ is a power of 2
    std::uint64_t tick_ = 0;
    AlignedVec<std::uint64_t> keys_; //!< kInvalidKey = empty way
    AlignedVec<std::uint64_t> lru_;
    /**
     * One-entry MRU memo (see `lookupOrInsertAt`): the key the last
     * fused probe hit or filled, and the flat way index holding it.
     * Pure accelerator state — never serialized, never observable.
     */
    std::uint64_t memo_key_ = kInvalidKey;
    std::uint32_t memo_idx_ = 0;
};

/** Hardware geometry and latency parameters. */
struct TlbConfig
{
    unsigned l1Entries4k = 64;
    unsigned l1Ways4k = 4;
    unsigned l1Entries2m = 8;
    unsigned l1Ways2m = 8; // fully associative
    unsigned l2Entries = 1024;
    unsigned l2Ways = 8;
    /** Page-walk cache: PDE entries (each covers 2MB of VA). */
    unsigned pwcPdeEntries = 32;
    /** Page-walk cache: PDPTE entries (each covers 1GB of VA). */
    unsigned pwcPdpteEntries = 4;

    Cycles l2HitCycles = 7;
    /** Latency of one page-table load that hits in the data caches. */
    Cycles ptCachedLoadCycles = 30;
    /** Latency of one page-table load from DRAM. */
    Cycles ptMemoryLoadCycles = 170;
    /**
     * Cache lines of page-table data assumed resident in the data
     * caches (~256KB worth). Small page-table working sets (the PDs
     * backing huge mappings) fit and walk cheaply; the PTE arrays of
     * large 4KB-mapped footprints thrash it and walk from memory.
     */
    unsigned ptResidencyEntries = 4096;
    /** Fraction of walk latency hidden under sequential access. */
    double sequentialOverlap = 0.85;
    /**
     * Virtualized (2-D/EPT) translation: every guest page-table load
     * itself requires a nested walk, turning a 4-load walk into up to
     * 24 loads. This factor scales walk latencies when enabled.
     */
    bool nested = false;
    double nestedWalkFactor = 3.6;

    static TlbConfig haswell() { return TlbConfig{}; }

    static TlbConfig
    haswellVirtualized()
    {
        TlbConfig c;
        c.nested = true;
        return c;
    }
};

/** Result of simulating one access batch. */
struct TlbBatchResult
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    Cycles walkCycles = 0;
};

class TlbModel
{
  public:
    explicit TlbModel(TlbConfig cfg = TlbConfig::haswell());

    /**
     * Run a sampled access stream against the TLB hierarchy,
     * resolving page sizes through @p pt and setting PTE
     * accessed/dirty bits on the way (this is what the OS access-bit
     * samplers observe).
     *
     * @param sequentiality in [0,1]: fraction of the stream that is
     *        next-page sequential (drives latency overlap)
     * @param scale each sampled access stands for @p scale real ones;
     *        counters are scaled accordingly
     */
    TlbBatchResult simulate(vm::PageTable &pt,
                            const std::vector<AccessSample> &batch,
                            double sequentiality, double scale = 1.0);

    /** Flush translations (context switch / TLB shootdown). */
    void flush();

    /**
     * Update the nested-walk amplification dynamically (the
     * virtualization layer lowers it as the host promotes more of the
     * guest's backing to huge EPT mappings).
     */
    void setNestedFactor(double f) { cfg_.nestedWalkFactor = f; }

    PerfCounters &counters() { return counters_; }
    const PerfCounters &counters() const { return counters_; }
    const TlbConfig &config() const { return cfg_; }

    /** Valid-entry counts per structure (obs snapshot view). */
    struct Occupancy
    {
        unsigned l14kUsed = 0, l14kSize = 0;
        unsigned l12mUsed = 0, l12mSize = 0;
        unsigned l2Used = 0, l2Size = 0;
        unsigned pwcPdeUsed = 0, pwcPdeSize = 0;
        unsigned pwcPdpteUsed = 0, pwcPdpteSize = 0;
    };

    /** Read-only occupancy of every translation structure. */
    Occupancy
    occupancy() const
    {
        Occupancy o;
        o.l14kUsed = l1_4k_.validEntries();
        o.l14kSize = l1_4k_.entries();
        o.l12mUsed = l1_2m_.validEntries();
        o.l12mSize = l1_2m_.entries();
        o.l2Used = l2_.validEntries();
        o.l2Size = l2_.entries();
        o.pwcPdeUsed = pwc_pde_.validEntries();
        o.pwcPdeSize = pwc_pde_.entries();
        o.pwcPdpteUsed = pwc_pdpte_.validEntries();
        o.pwcPdpteSize = pwc_pdpte_.entries();
        return o;
    }

    /**
     * @name Coherence audit log (fault::Auditor support)
     *
     * When enabled, every TLB insert also records the translation's
     * page size, keyed by the page table's structural epoch at insert
     * time. The auditor cross-checks entries recorded at the *current*
     * epoch against the live page table; entries from older epochs are
     * benignly stale (this TLB model ages entries out rather than
     * modelling shootdowns). Off by default: the hot path only pays
     * one predictable branch per insert.
     */
    /// @{
    void
    setAuditLog(bool on)
    {
        audit_log_on_ = on;
        if (!on) {
            audit_2m_.clear();
            audit_4k_.clear();
        }
    }
    bool auditLogEnabled() const { return audit_log_on_; }
    /** region -> PT epoch at insert time. */
    const std::unordered_map<std::uint64_t, std::uint64_t> &
    auditLog2m() const
    {
        return audit_2m_;
    }
    /** vpn -> PT epoch at insert time. */
    const std::unordered_map<std::uint64_t, std::uint64_t> &
    auditLog4k() const
    {
        return audit_4k_;
    }
    /** Test hook: forge an audit-log entry (seeded corruption). */
    void
    injectAuditEntry(bool huge, std::uint64_t key, std::uint64_t epoch)
    {
        (huge ? audit_2m_ : audit_4k_)[key] = epoch;
    }
    /// @}

    /**
     * Every translation structure, the counters, the (mutable)
     * nested-walk factor and the audit log. The audit-log *switch* is
     * re-derived by the owning System, not serialized.
     */
    void save(snap::Writer &w) const;
    void load(snap::Reader &r);

  private:
    /** Cycles for the page walk a TLB miss on @p vpn triggers. */
    Cycles walkLatency(Vpn vpn, bool huge);

    /** Scale/round the batch tallies and charge the counters. */
    TlbBatchResult finishBatch(std::uint64_t accesses,
                               std::uint64_t misses, double load_walk,
                               double store_walk, double scale);

    /** One present translation staged by the translate phase. */
    struct BatchSlot
    {
        Vpn vpn;
        std::uint32_t write; //!< 0/1: indexes the walk-accumulator pair
        std::uint32_t huge;
    };
    /** Reused across batches; grown to the next power of two. */
    std::vector<BatchSlot> slots_;
    /**
     * Per-slot L1/L2 set bases, precomputed in the translate phase so
     * the probe loop never waits on the serial key-mix chain. Parallel
     * to `slots_`.
     */
    AlignedVec<std::uint32_t> l1_base_;
    AlignedVec<std::uint32_t> l2_base_;
    /**
     * Per-slot pt-residency set base for the walk's *leaf* line (the
     * PTE line for 4K, the PDE line for huge) — the one walk-structure
     * set that is both large enough to miss the data caches and
     * computable before the probe decides whether to walk. The probe
     * loop prefetches it one slot ahead; a prefetch of a set the walk
     * never touches is harmless.
     */
    AlignedVec<std::uint32_t> walk_base_;

    TlbConfig cfg_;
    SetAssocTlb l1_4k_;
    SetAssocTlb l1_2m_;
    SetAssocTlb l2_;
    SetAssocTlb pwc_pde_;
    SetAssocTlb pwc_pdpte_;
    /** Approximates which PT pages are hot in the data caches. */
    SetAssocTlb pt_residency_;
    PerfCounters counters_;

    bool audit_log_on_ = false;
    std::unordered_map<std::uint64_t, std::uint64_t> audit_2m_;
    std::unordered_map<std::uint64_t, std::uint64_t> audit_4k_;
};

} // namespace hawksim::tlb

#endif // HAWKSIM_TLB_TLB_HH
