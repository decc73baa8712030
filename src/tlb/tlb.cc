#include "tlb/tlb.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "base/logging.hh"
#include "snap/snap.hh"

namespace hawksim::tlb {

SetAssocTlb::SetAssocTlb(unsigned entries, unsigned ways)
    : sets_(entries / ways), ways_(ways),
      keys_(static_cast<std::size_t>(entries), kInvalidKey),
      lru_(static_cast<std::size_t>(entries), 0)
{
    HS_ASSERT(entries > 0 && ways > 0 && entries % ways == 0,
              "bad TLB geometry: ", entries, "/", ways);
    if ((sets_ & (sets_ - 1)) == 0)
        mask_ = sets_ - 1;
}

void
SetAssocTlb::flush()
{
    std::fill(keys_.begin(), keys_.end(), kInvalidKey);
    memo_key_ = kInvalidKey;
}

TlbModel::TlbModel(TlbConfig cfg)
    : cfg_(cfg), l1_4k_(cfg.l1Entries4k, cfg.l1Ways4k),
      l1_2m_(cfg.l1Entries2m, cfg.l1Ways2m),
      l2_(cfg.l2Entries, cfg.l2Ways), pwc_pde_(cfg.pwcPdeEntries, 4),
      pwc_pdpte_(cfg.pwcPdpteEntries, cfg.pwcPdpteEntries),
      pt_residency_(cfg.ptResidencyEntries, 8)
{}

HAWKSIM_NOINLINE Cycles
TlbModel::walkLatency(Vpn vpn, bool huge)
{
    // The PML4 is a handful of hot lines; treat as always cached
    // (4 cycles). A page-table load hits in the data caches if its
    // cache line was walked recently; otherwise it goes to memory.
    // Tags separate the levels; PTEs/PDEs are cached at 64-byte
    // (8-entry) granularity. Every lookup-then-insert-on-miss pair is
    // one fused probe, so a PWC fill lands before the pt-residency
    // load its miss triggers; they are separate structures, so each
    // still sees its operations in the same order.
    //
    // Kept out-of-line on purpose: flattening these three probes into
    // simulate's loop body (alongside the L1/L2 probes) was measured
    // slower across the board — the loop body outgrows the
    // decoded-uop cache. Compact front-probe loop + one call on the
    // miss path beats a fully fused body.
    Cycles cost = 4;
    auto load = [&](std::uint64_t line_id) {
        cost += pt_residency_.lookupOrInsertAt(
                    pt_residency_.baseOf(line_id), line_id)
                    ? cfg_.ptCachedLoadCycles
                    : cfg_.ptMemoryLoadCycles;
    };
    const std::uint64_t pdpte_key = vpn >> 18;
    if (!pwc_pdpte_.lookupOrInsertAt(pwc_pdpte_.baseOf(pdpte_key),
                                     pdpte_key))
        load((vpn >> 21) | (1ull << 60)); // PDPTE line
    if (huge) {
        // Walk terminates at the PD level: the PDE is the leaf.
        load((vpn >> 12) | (2ull << 60));
    } else {
        const std::uint64_t pde_key = vpn >> 9;
        if (!pwc_pde_.lookupOrInsertAt(pwc_pde_.baseOf(pde_key),
                                       pde_key))
            load((vpn >> 12) | (2ull << 60)); // PDE line
        load((vpn >> 3) | (3ull << 60)); // PTE line
    }
    if (cfg_.nested)
        cost = static_cast<Cycles>(static_cast<double>(cost) *
                                   cfg_.nestedWalkFactor);
    return cost;
}

TlbBatchResult
TlbModel::simulate(vm::PageTable &pt,
                   const std::vector<AccessSample> &batch,
                   double sequentiality, double scale)
{
    // Phase 1: translate every sample through the fused walk, staging
    // the present ones as columns. Translations never consult TLB
    // state and probes never read PTEs (lookupAndTouch only sets
    // accessed/dirty bits), so splitting the per-access loop into
    // translate-all / probe-all phases is observationally identical to
    // a per-access interleaving. The slot's L1/L2 set bases are resolved
    // here too: the key-mix chain is serial per probe but independent
    // across slots, so it overlaps the pointer-chasing walk stalls
    // instead of serializing the probe loop.
    if (slots_.capacity() < batch.size()) {
        const std::size_t cap = std::bit_ceil(batch.size());
        slots_.reserve(cap);
        l1_base_.reserve(cap);
        l2_base_.reserve(cap);
        walk_base_.reserve(cap);
    }
    slots_.clear();
    l1_base_.clear();
    l2_base_.clear();
    walk_base_.clear();
    const std::size_t n = batch.size();
    for (std::size_t i = 0; i < n; i++) {
        const AccessSample &a = batch[i];
        const vm::Translation t = pt.lookupAndTouch(a.vpn, a.write);
        if (!t.present)
            continue;
        slots_.push_back(
            BatchSlot{a.vpn, a.write ? 1u : 0u, t.huge ? 1u : 0u});
        const std::uint64_t region = a.vpn >> 9;
        if (t.huge) {
            l1_base_.push_back(
                static_cast<std::uint32_t>(l1_2m_.baseOf(region)));
            l2_base_.push_back(static_cast<std::uint32_t>(
                l2_.baseOf((region << 1) | 1)));
            walk_base_.push_back(
                static_cast<std::uint32_t>(pt_residency_.baseOf(
                    (a.vpn >> 12) | (2ull << 60))));
        } else {
            l1_base_.push_back(
                static_cast<std::uint32_t>(l1_4k_.baseOf(a.vpn)));
            l2_base_.push_back(static_cast<std::uint32_t>(
                l2_.baseOf(a.vpn << 1)));
            walk_base_.push_back(
                static_cast<std::uint32_t>(pt_residency_.baseOf(
                    (a.vpn >> 3) | (3ull << 60))));
        }
    }

    // Phase 2: probe the hierarchy for every staged translation at its
    // precomputed set base. Every lookup-then-insert-on-miss pair runs
    // as one fused probe (`lookupOrInsertAt`) — same per-structure op
    // sequence, half the set resolutions and no key mixing on the
    // critical path. The write/load walk split is accumulated
    // branch-free by indexing with the staged write bit, in sample
    // order per accumulator. One slot ahead, the loop
    // prefetches the two sets the next probe is likely to stall on:
    // the L2 set (64KB of tags — misses L1d on every random probe)
    // and the pt-residency set of the next walk's leaf line (512KB —
    // misses even L2 on the walk-heavy grid points).
    double walk_acc[2] = {0.0, 0.0}; // [0] = loads, [1] = stores
    std::uint64_t misses = 0;
    const double overlap =
        1.0 - cfg_.sequentialOverlap * sequentiality;
    const std::size_t m = slots_.size();
    for (std::size_t i = 0; i < m; i++) {
        if (i + 1 < m) {
            l2_.prefetchBase(l2_base_[i + 1]);
            pt_residency_.prefetchBase(walk_base_[i + 1]);
        }
        const BatchSlot &s = slots_[i];
        double walk = 0.0;
        if (s.huge) {
            const std::uint64_t region = s.vpn >> 9;
            if (audit_log_on_)
                audit_2m_[region] = pt.translationEpoch();
            if (l1_2m_.lookupOrInsertAt(l1_base_[i], region)) {
                // L1 hit: free
            } else if (l2_.lookupOrInsertAt(l2_base_[i],
                                            (region << 1) | 1)) {
                walk = static_cast<double>(cfg_.l2HitCycles);
            } else {
                misses++;
                walk = static_cast<double>(
                           walkLatency(s.vpn, true)) *
                       overlap;
            }
        } else {
            if (audit_log_on_)
                audit_4k_[s.vpn] = pt.translationEpoch();
            if (l1_4k_.lookupOrInsertAt(l1_base_[i], s.vpn)) {
                // L1 hit: free
            } else if (l2_.lookupOrInsertAt(l2_base_[i], s.vpn << 1)) {
                walk = static_cast<double>(cfg_.l2HitCycles);
            } else {
                misses++;
                walk = static_cast<double>(
                           walkLatency(s.vpn, false)) *
                       overlap;
            }
        }
        walk_acc[s.write] += walk;
    }

    return finishBatch(m, misses, walk_acc[0], walk_acc[1], scale);
}

TlbBatchResult
TlbModel::finishBatch(std::uint64_t accesses, std::uint64_t misses,
                      double load_walk, double store_walk, double scale)
{
    TlbBatchResult res;
    res.accesses = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(accesses) * scale));
    res.misses = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(misses) * scale));
    // Round the load and store walk cycles separately and derive the
    // batch total from the same split, so the per-batch result always
    // equals exactly what lands in the counters (rounding the sum
    // instead can drift +/-1 cycle from the counter deltas).
    const auto load_cycles = static_cast<std::uint64_t>(
        std::llround(load_walk * scale));
    const auto store_cycles = static_cast<std::uint64_t>(
        std::llround(store_walk * scale));
    res.walkCycles = static_cast<Cycles>(load_cycles + store_cycles);

    counters_.tlbAccesses += res.accesses;
    counters_.tlbMisses += res.misses;
    counters_.dtlbLoadWalkCycles += load_cycles;
    counters_.dtlbStoreWalkCycles += store_cycles;
    return res;
}

void
TlbModel::flush()
{
    l1_4k_.flush();
    l1_2m_.flush();
    l2_.flush();
    pwc_pde_.flush();
    pwc_pdpte_.flush();
    pt_residency_.flush();
}

void
PerfCounters::save(snap::Writer &w) const
{
    w.u64(dtlbLoadWalkCycles);
    w.u64(dtlbStoreWalkCycles);
    w.u64(cpuClkUnhalted);
    w.u64(tlbAccesses);
    w.u64(tlbMisses);
}

void
PerfCounters::load(snap::Reader &r)
{
    dtlbLoadWalkCycles = r.u64();
    dtlbStoreWalkCycles = r.u64();
    cpuClkUnhalted = r.u64();
    tlbAccesses = r.u64();
    tlbMisses = r.u64();
}

void
SetAssocTlb::save(snap::Writer &w) const
{
    w.u64(tick_);
    w.u64(keys_.size());
    // Same per-way record shape as the AoS layout ({key, lru, valid});
    // validity is derived from the key sentinel.
    for (std::size_t i = 0; i < keys_.size(); i++) {
        w.u64(keys_[i]);
        w.u64(lru_[i]);
        w.b(keys_[i] != kInvalidKey);
    }
}

void
SetAssocTlb::load(snap::Reader &r)
{
    tick_ = r.u64();
    const std::uint64_t n = r.u64();
    HS_ASSERT(n == keys_.size(),
              "snapshot: TLB geometry mismatch (", n, " ways vs ",
              keys_.size(), ")");
    for (std::size_t i = 0; i < keys_.size(); i++) {
        const std::uint64_t key = r.u64();
        lru_[i] = r.u64();
        // Normalize: an invalid way always stores the sentinel, so a
        // save -> load -> save round trip is bit-stable.
        keys_[i] = r.b() ? key : kInvalidKey;
    }
    memo_key_ = kInvalidKey;
}

namespace {

/** Serialize an audit log (unordered) in sorted key order. */
void
saveAuditLog(snap::Writer &w,
             const std::unordered_map<std::uint64_t, std::uint64_t> &m)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries(
        m.begin(), m.end());
    std::sort(entries.begin(), entries.end());
    w.u64(entries.size());
    for (const auto &[key, epoch] : entries) {
        w.u64(key);
        w.u64(epoch);
    }
}

void
loadAuditLog(snap::Reader &r,
             std::unordered_map<std::uint64_t, std::uint64_t> &m)
{
    m.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; i++) {
        const std::uint64_t key = r.u64();
        m[key] = r.u64();
    }
}

} // namespace

void
TlbModel::save(snap::Writer &w) const
{
    w.f64(cfg_.nestedWalkFactor);
    l1_4k_.save(w);
    l1_2m_.save(w);
    l2_.save(w);
    pwc_pde_.save(w);
    pwc_pdpte_.save(w);
    pt_residency_.save(w);
    counters_.save(w);
    saveAuditLog(w, audit_2m_);
    saveAuditLog(w, audit_4k_);
}

void
TlbModel::load(snap::Reader &r)
{
    cfg_.nestedWalkFactor = r.f64();
    l1_4k_.load(r);
    l1_2m_.load(r);
    l2_.load(r);
    pwc_pde_.load(r);
    pwc_pdpte_.load(r);
    pt_residency_.load(r);
    counters_.load(r);
    loadAuditLog(r, audit_2m_);
    loadAuditLog(r, audit_4k_);
}

} // namespace hawksim::tlb
