#include "workload/kvstore.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"
#include "sim/process.hh"
#include "snap/state.hh"

namespace hawksim::workload {

namespace {

/**
 * Order statistics over slots that start live and are only ever
 * removed: a Fenwick (binary-indexed) tree of live counts, so finding
 * and removing the live slot of a given rank is O(log n).
 */
class LiveRanks
{
  public:
    explicit LiveRanks(std::size_t slots)
        : tree_(slots + 1), top_(std::bit_floor(slots))
    {
        HS_ASSERT(slots <= UINT32_MAX, "too many slots: ", slots);
        // Node i counts the lowbit(i) slots ending at slot i - 1.
        for (std::size_t i = 1; i <= slots; i++)
            tree_[i] = static_cast<std::uint32_t>(i & -i);
    }

    /** Remove the live slot of 0-based rank @p rank; return it. */
    std::size_t
    take(std::uint64_t rank)
    {
        // Descend to the largest pos with at most `rank` live slots
        // before it: slot pos is then the live one of that rank.
        std::size_t pos = 0;
        for (std::size_t step = top_; step > 0; step /= 2) {
            if (pos + step < tree_.size() && tree_[pos + step] <= rank) {
                pos += step;
                rank -= tree_[pos];
            }
        }
        for (std::size_t i = pos + 1; i < tree_.size(); i += i & -i)
            tree_[i]--;
        return pos;
    }

  private:
    std::vector<std::uint32_t> tree_;
    std::size_t top_;
};

} // namespace

void
KeyValueStoreWorkload::init(sim::Process &proc)
{
    base_ = proc.space().mmapAnon(cfg_.arenaBytes, name_);
    arena_pages_ = cfg_.arenaBytes / kPageSize;
}

Vpn
KeyValueStoreWorkload::pageOf(std::uint64_t arena_page) const
{
    return addrToVpn(base_) + arena_page;
}

KeyValueStoreWorkload::Value
KeyValueStoreWorkload::allocValue(std::uint64_t value_bytes)
{
    const auto pages = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1,
                                (value_bytes + kPageSize - 1) /
                                    kPageSize));
    // Small values reuse freed slots of the same size class; large
    // values get fresh (huge-aligned) arena space, like size-class
    // slab allocators do.
    if (pages == small_pages_ && !free_small_.empty()) {
        const std::uint64_t slot = free_small_.front();
        free_small_.pop_front();
        return Value{slot, pages};
    }
    std::uint64_t start = cursor_;
    if (pages >= kPagesPerHuge) {
        start = (start + kPagesPerHuge - 1) & ~(kPagesPerHuge - 1);
    }
    HS_ASSERT(start + pages <= arena_pages_,
              "kvstore arena exhausted for ", name_);
    cursor_ = start + pages;
    return Value{start, pages};
}

void
KeyValueStoreWorkload::next(sim::Process &proc, TimeNs max_compute,
                            WorkChunk &chunk)
{
    (void)proc;
    chunk.reset();
    if (phase_ >= cfg_.phases.size()) {
        chunk.done = true;
        return;
    }
    const KvPhase &ph = cfg_.phases[phase_];
    auto advancePhase = [&] {
        phase_++;
        phase_progress_ = 0;
        phase_time_ = 0.0;
    };

    switch (ph.type) {
      case KvPhase::Type::kInsert: {
        const double per_op = 1e9 / ph.opsPerSec;
        const auto budget_ops = static_cast<std::uint64_t>(
            static_cast<double>(max_compute) / per_op);
        const std::uint64_t ops = std::min<std::uint64_t>(
            std::min<std::uint64_t>(budget_ops, 512),
            ph.count - phase_progress_);
        if (ops == 0) {
            // Rate too low for this tick granularity: do one op.
        }
        const std::uint64_t todo = std::max<std::uint64_t>(ops, 1);
        for (std::uint64_t i = 0; i < todo; i++) {
            Value v = allocValue(ph.valueBytes);
            for (std::uint32_t p = 0; p < v.pages; p++) {
                const Vpn vpn = pageOf(v.firstPage + p);
                chunk.faults.push_back(vpn);
                chunk.writes.emplace_back(vpn, content_.data());
            }
            live_.push_back(v);
            live_bytes_ += ph.valueBytes;
        }
        phase_progress_ += todo;
        chunk.compute =
            static_cast<TimeNs>(static_cast<double>(todo) * per_op);
        chunk.accessCount = todo * cfg_.accessesPerOp;
        chunk.opsCompleted = todo;
        chunk.sequentiality = 0.5;
        if (phase_progress_ >= ph.count)
            advancePhase();
        break;
      }
      case KvPhase::Type::kDelete: {
        // Deletions are fast; do the whole phase in one chunk.
        const auto target = static_cast<std::uint64_t>(
            ph.fraction * static_cast<double>(live_.size()));
        std::uint64_t deleted = 0;
        auto drop = [&](const Value &v) {
            live_bytes_ -=
                std::min<std::uint64_t>(live_bytes_,
                                        std::uint64_t{v.pages} *
                                            kPageSize);
            chunk.frees.push_back(
                {base_ + v.firstPage * kPageSize,
                 std::uint64_t{v.pages} * kPageSize});
            if (v.pages == small_pages_)
                free_small_.push_back(v.firstPage);
            deleted++;
        };
        if (ph.clusterRun <= 1) {
            while (deleted < target && !live_.empty()) {
                const std::uint64_t idx = rng_.below(live_.size());
                drop(live_[idx]);
                live_[idx] = live_.back();
                live_.pop_back();
            }
        } else {
            // Clustered expiry: drop runs of values contiguous in
            // insertion (and hence arena) order. A draw ranks the
            // values still live; dropped slots keep their place
            // (marked by pages = 0, which no value has) until one
            // compaction at the end, so survivors keep their order.
            LiveRanks ranks(live_.size());
            while (deleted < target && deleted < live_.size()) {
                const std::uint64_t alive = live_.size() - deleted;
                const std::uint64_t idx = rng_.below(alive);
                const std::uint64_t run = std::min<std::uint64_t>(
                    {ph.clusterRun, target - deleted, alive - idx});
                // Dropping rank idx moves the next live value to it.
                for (std::uint64_t j = 0; j < run; j++) {
                    Value &v = live_[ranks.take(idx)];
                    drop(v);
                    v.pages = 0;
                }
            }
            std::erase_if(live_,
                          [](const Value &v) { return v.pages == 0; });
        }
        chunk.compute = std::max<TimeNs>(
            static_cast<TimeNs>(static_cast<double>(target) * 200),
            usec(10));
        chunk.opsCompleted = deleted;
        advancePhase();
        break;
      }
      case KvPhase::Type::kServe: {
        const TimeNs compute = std::min<TimeNs>(
            max_compute,
            static_cast<TimeNs>(
                std::max(ph.durationSec - phase_time_, 0.0) * 1e9));
        if (compute <= 0 || live_.empty()) {
            advancePhase();
            break;
        }
        const double secs = static_cast<double>(compute) / 1e9;
        const auto ops =
            static_cast<std::uint64_t>(ph.opsPerSec * secs);
        chunk.compute = compute;
        chunk.accessCount = ops * cfg_.accessesPerOp;
        chunk.opsCompleted = ops;
        chunk.sequentiality = 0.1;
        auto draw = [&]() -> Vpn {
            const Value &v = live_[rng_.below(live_.size())];
            return pageOf(v.firstPage + rng_.below(v.pages));
        };
        const unsigned n = std::min<std::uint64_t>(
            cfg_.samplePerChunk, chunk.accessCount);
        for (unsigned i = 0; i < n; i++)
            chunk.sample.push_back({draw(), rng_.chance(0.15)});
        for (unsigned i = 0; i < cfg_.touchesPerChunk; i++)
            chunk.touches.push_back(draw());
        phase_time_ += secs;
        if (phase_time_ >= ph.durationSec)
            advancePhase();
        break;
      }
      case KvPhase::Type::kPause: {
        const TimeNs compute = std::min<TimeNs>(
            max_compute,
            static_cast<TimeNs>(
                std::max(ph.durationSec - phase_time_, 0.0) * 1e9));
        chunk.compute = std::max<TimeNs>(compute, usec(100));
        phase_time_ += static_cast<double>(chunk.compute) / 1e9;
        if (phase_time_ >= ph.durationSec)
            advancePhase();
        break;
      }
    }
    if (phase_ >= cfg_.phases.size())
        chunk.done = true;
}


void
KeyValueStoreWorkload::save(snap::Writer &w) const
{
    snap::saveRng(w, rng_);
    content_.save(w);
    w.u64(base_);
    w.u64(arena_pages_);
    w.u64(cursor_);
    w.u64(free_small_.size());
    for (std::uint64_t slot : free_small_) // deque order matters
        w.u64(slot);
    w.u32(small_pages_);
    w.u64(live_.size());
    for (const Value &v : live_) {
        w.u64(v.firstPage);
        w.u32(v.pages);
    }
    w.u64(live_bytes_);
    w.u64(phase_);
    w.u64(phase_progress_);
    w.f64(phase_time_);
}

void
KeyValueStoreWorkload::load(snap::Reader &r)
{
    snap::loadRng(r, rng_);
    content_.load(r);
    base_ = r.u64();
    arena_pages_ = r.u64();
    cursor_ = r.u64();
    free_small_.clear();
    const std::uint64_t slots = r.u64();
    for (std::uint64_t i = 0; i < slots; i++)
        free_small_.push_back(r.u64());
    small_pages_ = r.u32();
    live_.clear();
    const std::uint64_t values = r.count(12); // u64 + u32 per value
    live_.reserve(values);
    for (std::uint64_t i = 0; i < values; i++) {
        Value v;
        v.firstPage = r.u64();
        v.pages = r.u32();
        live_.push_back(v);
    }
    live_bytes_ = r.u64();
    phase_ = r.u64();
    phase_progress_ = r.u64();
    phase_time_ = r.f64();
}

} // namespace hawksim::workload
