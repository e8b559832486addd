#include "core/edgeblock_array.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/probe_kernel.hpp"
#include "util/failpoint.hpp"
#include "util/simd.hpp"

namespace {

/// Thread-local landing zone for a stats-deferral scope (see
/// EdgeblockArray::begin_stats_batch): while `target` points at an array's
/// resolved counter handles, that array's per-operation flushes accumulate
/// here in plain integers and hit the shared relaxed atomics once when the
/// scope closes.
struct DeferredStats {
    const gt::core::EbaMetrics* target = nullptr;
    int depth = 0;
    std::uint64_t cells = 0;
    std::uint64_t workblocks = 0;
    std::uint64_t swaps = 0;
    std::uint64_t branch_outs = 0;
};
thread_local DeferredStats g_deferred_stats;

/// Accumulates probe-work counters locally and flushes them through the
/// array's obs::Counter handles once on scope exit — one RMW per operation
/// instead of one per cell inspected. Under an open deferral scope for the
/// same array the flush lands in g_deferred_stats instead, so batched
/// ingest pays the atomic RMWs once per batch rather than once per edge.
/// When `probe_hist` is set, the operation's total probe distance (cells)
/// additionally lands in that histogram — sampled and gated, so the cost
/// with recording off is one predictable branch per op.
struct StatsFlush {
    const gt::core::EbaMetrics& m;
    gt::obs::Histogram* probe_hist = nullptr;
    std::uint64_t cells = 0;
    std::uint64_t workblocks = 0;
    std::uint64_t swaps = 0;
    std::uint64_t branch_outs = 0;
    ~StatsFlush() {
        if (probe_hist != nullptr) {
            probe_hist->record_sampled(cells);
        }
        if (g_deferred_stats.target == &m) {
            g_deferred_stats.cells += cells;
            g_deferred_stats.workblocks += workblocks;
            g_deferred_stats.swaps += swaps;
            g_deferred_stats.branch_outs += branch_outs;
            return;
        }
        if (cells != 0) {
            m.cells_probed->add(cells);
        }
        if (workblocks != 0) {
            m.workblocks_fetched->add(workblocks);
        }
        if (swaps != 0) {
            m.rhh_swaps->add(swaps);
        }
        if (branch_outs != 0) {
            m.branch_outs->add(branch_outs);
        }
    }
};

}  // namespace

namespace gt::core {

EdgeblockArray::EdgeblockArray(const Config& config, CoarseAdjacencyList* cal,
                               obs::Registry* registry)
    : pagewidth_(config.pagewidth),
      subblock_(config.subblock),
      workblock_(config.workblock),
      spb_(config.pagewidth / config.subblock),
      rhh_(config.rhh_active()),
      compact_delete_(config.deletion_mode == DeletionMode::DeleteAndCompact),
      kernel_ok_(config.subblock <= 64),
      words_per_block_((config.pagewidth + 63) / 64),
      small_words_((config.subblock + 63) / 64),
      tiered_(config.pagewidth > config.subblock),
      cal_(cal),
      arena_({pagewidth_, spb_, 1, words_per_block_, words_per_block_},
             kFirstChunkBlocks),
      small_({subblock_, 2 * small_words_ + 1}, kFirstChunkBlocks),
      registry_(registry) {
    config.validate();
    if (registry_ == nullptr) {
        owned_registry_ = std::make_unique<obs::Registry>();
        registry_ = owned_registry_.get();
    }
    obs::Registry& r = *registry_;
    metrics_.cells_probed = &r.counter("eba.cells_probed");
    metrics_.workblocks_fetched = &r.counter("eba.workblocks_fetched");
    metrics_.rhh_swaps = &r.counter("eba.rhh_swaps");
    metrics_.branch_outs = &r.counter("eba.branch_outs");
    metrics_.compaction_moves = &r.counter("eba.compaction_moves");
    metrics_.blocks_freed = &r.counter("eba.blocks_freed");
    metrics_.trees_rebuilt = &r.counter("eba.trees_rebuilt");
    metrics_.tombstones_purged = &r.counter("eba.tombstones_purged");
    metrics_.unbranch_moves = &r.counter("eba.unbranch_moves");
    metrics_.promotions = &r.counter("eba.promotions");
    metrics_.demotions = &r.counter("eba.demotions");
    metrics_.find_probe_cells = &r.histogram("eba.find_probe_cells");
    metrics_.insert_probe_cells = &r.histogram("eba.insert_probe_cells");
    if (config.reserve_edges > 0) {
        // Size the first chunks for the expected graph and clear them here,
        // so the bulk fill and first-touch page faults happen at
        // construction instead of on the insert hot path. Every vertex
        // starts on a small root (a full one when the tier is off);
        // hash-sharded subblocks branch out well before a full block fills
        // (skewed streams average ~a quarter occupancy), hence the
        // 4-edges-per-pagewidth sizing; further chunks cover any tail.
        const std::uint64_t roots = config.initial_vertices + 1;
        const std::uint64_t blocks = std::min<std::uint64_t>(
            config.reserve_edges * 4 / pagewidth_ + (tiered_ ? 1 : roots),
            Arena::kMaxFirstChunkBlocks);
        arena_.set_first_chunk_blocks(blocks);
        grow_storage();
        for (std::uint64_t b = 0; b < blocks; ++b) {
            clear_block(static_cast<std::uint32_t>(b));
        }
        cleared_ = blocks;
        if (tiered_) {
            // A first chunk rounds up to a power of two; 2^30 is the
            // largest one whose indices cannot tag into kNoBlock.
            const std::uint64_t smalls =
                std::min<std::uint64_t>(roots, kSmallTag / 2);
            small_.set_first_chunk_blocks(smalls);
            grow_small();
            for (std::uint64_t b = 0; b < smalls; ++b) {
                clear_block(static_cast<std::uint32_t>(b) | kSmallTag);
            }
            small_cleared_ = smalls;
        }
    }
}

// Each chunk doubles the capacity, so the id limits are checked against
// the capacity the next chunk would leave: full ids stay below kSmallTag,
// and a tagged small id never reaches kNoBlock.
void EdgeblockArray::grow_storage() {
    if (arena_.capacity_after_grow() > kSmallTag) {
        throw std::length_error("EdgeblockArray: block ids exhausted");
    }
    arena_.grow();
}

void EdgeblockArray::grow_small() {
    if (small_.capacity_after_grow() > kSmallTag - 1) {
        throw std::length_error("EdgeblockArray: small block ids exhausted");
    }
    small_.grow();
}

void EdgeblockArray::ensure_block_available(std::uint32_t top) {
    // One chunk, twice the size of the last, covers any shortfall: blocks
    // already handed out stay where they are, so growth costs an
    // allocation, not a copy.
    if (top == kNoBlock && tiered_) {
        if (!small_free_.empty() || small_count_ < small_.capacity()) {
            return;
        }
        GT_FAILPOINT("eba.grow");
        grow_small();
        return;
    }
    const bool promoting = is_small(top);
    if (promoting && !window_full(top)) {
        return;  // the insert fills the window's EMPTY cell or updates
    }
    const std::size_t need = promoting ? 2 : 1;
    if (free_blocks_.size() + (arena_.capacity() - block_count_) < need) {
        GT_FAILPOINT("eba.grow");
        grow_storage();
    }
    if (promoting) {
        reserve_free_list(small_free_, small_count_);
    }
}

bool EdgeblockArray::window_full(std::uint32_t small) const noexcept {
    const BlockView b = view(small);
    for (std::uint32_t w = 0; w < words(b); ++w) {
        const std::uint32_t bits = std::min<std::uint32_t>(64, b.ncells - w * 64);
        const std::uint64_t all = bits == 64 ? ~0ULL : (1ULL << bits) - 1;
        if ((b.masks[w] | b.tombs[w]) != all) {
            return false;
        }
    }
    return true;
}

void EdgeblockArray::clear_block(std::uint32_t block) noexcept {
    const BlockView b = view(block);
    std::fill_n(b.cells, b.ncells, EdgeCell{});
    std::fill_n(b.children, b.nchildren, kNoBlock);
    *b.occupied = 0;
    std::fill_n(b.masks, words(b), std::uint64_t{0});
    std::fill_n(b.tombs, words(b), std::uint64_t{0});
}

std::uint32_t EdgeblockArray::allocate_block() {
    if (!free_blocks_.empty()) {
        // Free-listed blocks were scrubbed clean by free_block (an
        // invariant the auditor enforces), so recycling is pop-and-go.
        const std::uint32_t block = free_blocks_.back();
        free_blocks_.pop_back();
        assert(occupied_in(block) == 0);
        return block;
    }
    if (block_count_ == arena_.capacity()) {
        // Growth fallback for paths that skipped the pre-flight
        // (maintenance rebuilds); the insert path always runs
        // ensure_block_available first, so it never grows here.
        grow_storage();
    }
    const std::uint32_t block = block_count_++;
    if (block >= cleared_) {
        clear_block(block);  // chunk memory is raw until first use
    }
    return block;
}

std::uint32_t EdgeblockArray::allocate_small() {
    if (!small_free_.empty()) {
        const std::uint32_t handle = small_free_.back();
        small_free_.pop_back();
        assert(occupied_in(handle) == 0);
        return handle;
    }
    if (small_count_ == small_.capacity()) {
        grow_small();  // maintenance rebuilds skip the pre-flight
    }
    const std::uint32_t index = small_count_++;
    const std::uint32_t handle = index | kSmallTag;
    if (index >= small_cleared_) {
        clear_block(handle);
    }
    return handle;
}

void EdgeblockArray::free_small(std::uint32_t handle) {
    assert(occupied_in(handle) == 0);
    // Scrubbed like a full block; promotions and demotions have their own
    // counters, so eba.blocks_freed keeps counting full blocks only.
    clear_block(handle);
    small_free_.push_back(handle);
}

void EdgeblockArray::promote(std::uint32_t& top, EdgeCell carry) {
    // Re-place the residents and the carried edge into a fresh full root
    // through the regular cascade, which re-binds every CAL owner. The
    // pre-flight reserved the full block, the one child S + 1 edges can
    // overflow into (at most one subblock can hold more than S of them),
    // and the small block's free-list slot, so nothing here throws.
    const std::uint32_t small = top;
    const BlockView s = view(small);
    top = allocate_block();
    for (std::uint32_t i = 0; i < subblock_; ++i) {
        const EdgeCell& c = s.cells[i];
        if (c.state == CellState::Occupied) {
            insert_new(top, c.dst, c.weight, c.cal_pos);
        }
    }
    insert_new(top, carry.dst, carry.weight, carry.cal_pos);
    *s.occupied = 0;
    free_small(small);
    metrics_.promotions->inc();
}

void EdgeblockArray::free_block(std::uint32_t block) {
    assert(occupied_in(block) == 0);
    // Scrub on the way out so free-listed blocks hold no stale cells, masks
    // or tombstones — allocate_block recycles them without re-clearing, and
    // the auditor checks reclaimed blocks are genuinely empty.
    clear_block(block);
    free_blocks_.push_back(block);
    metrics_.blocks_freed->inc();
}

void EdgeblockArray::free_subtree(std::uint32_t block) {
    for (std::uint32_t s = 0; s < spb_; ++s) {
        const std::uint32_t c = child(block, s);
        if (c != kNoBlock) {
            free_subtree(c);
            child(block, s) = kNoBlock;
        }
    }
    free_block(block);
}

bool EdgeblockArray::subtree_is_empty(std::uint32_t block) const {
    const BlockView b = full_view(block);
    if (*b.occupied != 0) {
        return false;
    }
    for (std::uint32_t s = 0; s < spb_; ++s) {
        if (b.children[s] != kNoBlock) {
            return false;  // descendants were pruned eagerly; conservative
        }
    }
    return true;
}

void EdgeblockArray::begin_stats_batch() const noexcept {
    if (g_deferred_stats.depth++ == 0) {
        g_deferred_stats.target = &metrics_;
    }
}

void EdgeblockArray::end_stats_batch() const noexcept {
    if (--g_deferred_stats.depth != 0) {
        return;
    }
    if (g_deferred_stats.target != nullptr) {
        const EbaMetrics& m = *g_deferred_stats.target;
        if (g_deferred_stats.cells != 0) {
            m.cells_probed->add(g_deferred_stats.cells);
        }
        if (g_deferred_stats.workblocks != 0) {
            m.workblocks_fetched->add(g_deferred_stats.workblocks);
        }
        if (g_deferred_stats.swaps != 0) {
            m.rhh_swaps->add(g_deferred_stats.swaps);
        }
        if (g_deferred_stats.branch_outs != 0) {
            m.branch_outs->add(g_deferred_stats.branch_outs);
        }
    }
    g_deferred_stats = DeferredStats{};
}

std::optional<EdgeblockArray::Located> EdgeblockArray::locate(
    std::uint32_t top, VertexId dst) const {
    StatsFlush flush{metrics_, metrics_.find_probe_cells};
    if (top == kNoBlock) {
        return std::nullopt;
    }
    // The root may be small (one window, no children); every deeper level
    // is a full block.
    std::uint32_t block = top;
    BlockView b = view(block);
    for (std::uint32_t level = 0;; ++level) {
        const std::uint32_t sb = sb_in(b, dst, level);
        const std::uint32_t sb_base = sb * subblock_;
        if (kernel_ok_) {
            // Bit-parallel FIND: one SIMD dst compare over the subblock plus
            // the occupancy/tombstone windows decide found/absent/descend
            // without a per-cell walk (see core/probe_kernel.hpp).
            const WindowBits bits = window_bits(b, sb_base);
            const SubblockWindow w{b.cells + sb_base, subblock_, bits.occ,
                                   bits.tomb};
            const FindStep step =
                rhh_ ? find_step<kProbeKernelSimd>(w, home_of(dst, level),
                                                   dst)
                     : find_step_full<kProbeKernelSimd>(w, dst);
            flush.cells += step.scanned;
            flush.workblocks += (step.scanned + workblock_ - 1) / workblock_;
            if (step.kind == FindStep::Kind::Found) {
                return Located{block, sb, sb_base + step.slot, level};
            }
            if (step.kind == FindStep::Kind::Absent) {
                return std::nullopt;
            }
        } else if (rhh_) {
            // Probe-order scan with Robin Hood early exit. An EMPTY cell on
            // the probe path proves the key is absent at this level *and*
            // below: had the key ever been pushed deeper, this window was
            // congested at that moment, and delete-only mode never turns an
            // occupied cell back into EMPTY (deletes tombstone).
            const std::uint32_t home = home_of(dst, level);
            std::uint32_t scanned = 0;
            for (std::uint32_t d = 0; d < subblock_; ++d) {
                const std::uint32_t slot =
                    sb_base + ((home + d) & (subblock_ - 1));
                const EdgeCell& c = b.cells[slot];
                ++scanned;
                if (c.state == CellState::Empty) {
                    flush.cells += scanned;
                    flush.workblocks += (scanned + workblock_ - 1) / workblock_;
                    return std::nullopt;
                }
                if (c.state == CellState::Occupied && c.dst == dst) {
                    flush.cells += scanned;
                    flush.workblocks += (scanned + workblock_ - 1) / workblock_;
                    return Located{block, sb, slot, level};
                }
            }
            flush.cells += scanned;
            flush.workblocks += subblock_ / workblock_;
        } else {
            // Compact-delete mode refills holes out of refill order, so the
            // whole subblock window must be inspected.
            flush.workblocks += subblock_ / workblock_;
            flush.cells += subblock_;
            for (std::uint32_t off = 0; off < subblock_; ++off) {
                const EdgeCell& c = b.cells[sb_base + off];
                if (c.state == CellState::Occupied && c.dst == dst) {
                    return Located{block, sb, sb_base + off, level};
                }
            }
        }
        block = b.children[sb];
        if (block == kNoBlock) {
            return std::nullopt;
        }
        b = full_view(block);
    }
}

std::optional<Weight> EdgeblockArray::find(std::uint32_t top,
                                           VertexId dst) const {
    if (const auto loc = locate(top, dst)) {
        return cell(loc->block, loc->slot).weight;
    }
    return std::nullopt;
}

EdgeblockArray::InsertResult EdgeblockArray::insert(
    std::uint32_t& top, VertexId dst, Weight weight,
    std::uint32_t new_cal_pos) {
    const ProbeResult probe = probe_insert(top, dst, weight);
    switch (probe.kind) {
        case ProbeResult::Kind::Duplicate:
            return InsertResult{false, probe.cal_pos};
        case ProbeResult::Kind::PlaceAt:
            place_at(probe.where, dst, weight, probe.probe, new_cal_pos);
            if (cal_ != nullptr && new_cal_pos != kNoCalPos) {
                cal_->rebind(new_cal_pos, probe.where);
            }
            return InsertResult{true, kNoCalPos};
        case ProbeResult::Kind::Absent:
            insert_new(top, dst, weight, new_cal_pos, probe.resume_block,
                       probe.resume_level);
            return InsertResult{true, kNoCalPos};
    }
    return InsertResult{};  // unreachable
}

EdgeblockArray::ProbeResult EdgeblockArray::probe_insert(std::uint32_t& top,
                                                         VertexId dst,
                                                         Weight weight) {
    StatsFlush flush{metrics_, metrics_.insert_probe_cells};
    if (top == kNoBlock) {
        top = allocate_root();
        const std::uint32_t sb = sb_in(view(top), dst, 0);
        const std::uint32_t home = home_of(dst, 0);
        ++flush.cells;
        return ProbeResult{ProbeResult::Kind::PlaceAt, kNoCalPos,
                           CellRef{top, sb * subblock_ + home}, 0};
    }
    if (!rhh_) {
        // Compact-delete mode refills holes out of probe order, so the
        // EMPTY-exit shortcut is unsound there; fall back to FIND + INSERT.
        if (const auto loc = locate(top, dst)) {
            EdgeCell& c = cell(loc->block, loc->slot);
            const Weight prev = c.weight;
            c.weight = weight;
            ProbeResult dup{ProbeResult::Kind::Duplicate, c.cal_pos,
                            CellRef{}, 0};
            dup.prev_weight = prev;
            return dup;
        }
        return ProbeResult{ProbeResult::Kind::Absent, kNoCalPos, CellRef{},
                           0};
    }
    std::uint32_t block = top;
    BlockView b = view(block);  // the root may be small; deeper levels never
    // A tombstone or Robin Hood swap point earlier on the probe path means
    // insertion belongs there rather than at a later EMPTY cell; the full
    // INSERT cascade handles those (rarer) cases. The first such point (or
    // the deepest block when the walk exhausts the tree) is handed back as
    // the cascade's resume point so it need not re-walk the levels above,
    // which are full windows with nothing for it to do. A full small root
    // ends the walk the same way, and the cascade promotes it.
    bool earlier_candidate = false;
    std::uint32_t resume_block = top;
    std::uint32_t resume_level = 0;
    for (std::uint32_t level = 0;; ++level) {
        const std::uint32_t sb = sb_in(b, dst, level);
        const std::uint32_t sb_base = sb * subblock_;
        if (kernel_ok_) {
            // Bit-parallel fused FIND/INSERT (see core/probe_kernel.hpp):
            // duplicate and first-EMPTY detection run on the subblock's
            // masks and one SIMD dst compare per level.
            const WindowBits bits = window_bits(b, sb_base);
            const SubblockWindow w{b.cells + sb_base, subblock_, bits.occ,
                                   bits.tomb};
            const ProbeStep step =
                probe_step<kProbeKernelSimd>(w, home_of(dst, level), dst);
            flush.cells += step.scanned;
            flush.workblocks += (step.scanned + workblock_ - 1) / workblock_;
            if (step.kind == ProbeStep::Kind::Duplicate) {
                EdgeCell& c = b.cells[sb_base + step.slot];
                const Weight prev = c.weight;
                c.weight = weight;
                ProbeResult dup{ProbeResult::Kind::Duplicate, c.cal_pos,
                                CellRef{}, 0};
                dup.prev_weight = prev;
                return dup;
            }
            if (!earlier_candidate && step.candidate) {
                earlier_candidate = true;
                resume_block = block;
                resume_level = level;
            }
            if (step.kind == ProbeStep::Kind::Empty) {
                if (!earlier_candidate) {
                    return ProbeResult{
                        ProbeResult::Kind::PlaceAt, kNoCalPos,
                        CellRef{block, sb_base + step.slot},
                        static_cast<std::uint16_t>(step.dist)};
                }
                return ProbeResult{ProbeResult::Kind::Absent, kNoCalPos,
                                   CellRef{}, 0, resume_block, resume_level};
            }
        } else {
            const std::uint32_t home = home_of(dst, level);
            for (std::uint32_t d = 0; d < subblock_; ++d) {
                const std::uint32_t slot =
                    sb_base + ((home + d) & (subblock_ - 1));
                EdgeCell& c = b.cells[slot];
                ++flush.cells;
                if (c.state == CellState::Empty) {
                    // Key absent at this level and every level below (see
                    // locate() for the invariant).
                    if (!earlier_candidate) {
                        return ProbeResult{ProbeResult::Kind::PlaceAt,
                                           kNoCalPos, CellRef{block, slot},
                                           static_cast<std::uint16_t>(d)};
                    }
                    return ProbeResult{ProbeResult::Kind::Absent, kNoCalPos,
                                       CellRef{}, 0, resume_block,
                                       resume_level};
                }
                if (c.state == CellState::Tombstone) {
                    if (!earlier_candidate) {
                        earlier_candidate = true;
                        resume_block = block;
                        resume_level = level;
                    }
                    continue;
                }
                if (c.dst == dst) {
                    const Weight prev = c.weight;
                    c.weight = weight;
                    ProbeResult dup{ProbeResult::Kind::Duplicate, c.cal_pos,
                                    CellRef{}, 0};
                    dup.prev_weight = prev;
                    return dup;
                }
                if (c.probe < d && !earlier_candidate) {
                    earlier_candidate = true;  // RHH would displace here
                    resume_block = block;
                    resume_level = level;
                }
            }
            flush.workblocks += subblock_ / workblock_;
        }
        if (!earlier_candidate) {
            // Full window, nothing reusable: the cascade would cross this
            // level verbatim, so keep the resume point below it.
            resume_block = block;
            resume_level = level;
        }
        block = b.children[sb];
        if (block == kNoBlock) {
            return ProbeResult{ProbeResult::Kind::Absent, kNoCalPos,
                               CellRef{}, 0, resume_block, resume_level};
        }
        b = full_view(block);
    }
}

void EdgeblockArray::insert_new(std::uint32_t& top, VertexId dst,
                                Weight weight, std::uint32_t new_cal_pos,
                                std::uint32_t start_block,
                                std::uint32_t start_level) {
    if (top == kNoBlock) {
        top = allocate_root();
        start_block = kNoBlock;
    }
    // INSERT mode: Robin Hood within the subblock, Tree-Based Hashing
    // descent on congestion. `carry` is the floating edge; after a swap it
    // becomes the displaced resident. Every element placed into a cell has
    // its CAL copy re-bound to the new location — the new edge included,
    // since it carries `new_cal_pos` from the start. When the caller's
    // probe proved the levels above `start_block` are full windows with no
    // tombstone and no swap point, the cascade resumes there directly.
    StatsFlush flush{metrics_, metrics_.insert_probe_cells};
    std::uint32_t block = start_block == kNoBlock ? top : start_block;
    std::uint32_t level = start_block == kNoBlock ? 0 : start_level;
    BlockView b = view(block);  // only a root can be small
    EdgeCell carry{dst, weight, new_cal_pos, 0, CellState::Occupied};
    if (b.nchildren == 0 && *b.occupied == b.ncells) {
        // A small root with no cell to reuse: promote without walking it.
        promote(top, carry);
        return;
    }
    for (;;) {
        const std::uint32_t sb = sb_in(b, carry.dst, level);
        const std::uint32_t sb_base = sb * subblock_;
        std::uint32_t home = home_of(carry.dst, level);
        std::uint32_t dist = carry.probe;
        while (dist < subblock_) {
            const std::uint32_t slot =
                sb_base + ((home + dist) & (subblock_ - 1));
            EdgeCell& resident = b.cells[slot];
            ++flush.cells;
            if (resident.state != CellState::Occupied) {
                carry.probe = static_cast<std::uint16_t>(dist);
                resident = carry;
                ++*b.occupied;
                set_bit(b.masks, slot, true);
                set_bit(b.tombs, slot, false);
                if (cal_ != nullptr && resident.cal_pos != kNoCalPos) {
                    cal_->rebind(resident.cal_pos, CellRef{block, slot});
                }
                return;
            }
            if (rhh_ && resident.probe < dist) {
                // Rob the rich: the floater takes this cell, the richer
                // resident is displaced and continues probing.
                carry.probe = static_cast<std::uint16_t>(dist);
                std::swap(resident, carry);
                ++flush.swaps;
                if (cal_ != nullptr && resident.cal_pos != kNoCalPos) {
                    cal_->rebind(resident.cal_pos, CellRef{block, slot});
                }
                // Continue as the displaced edge: same subblock (everything
                // here hashed to it), but its own home offset and probe.
                home = home_of(carry.dst, level);
                dist = carry.probe;
            }
            ++dist;
        }
        if (is_small(block)) {
            // The small root's one window is congested: promote instead of
            // branching out.
            promote(top, carry);
            return;
        }
        // Subblock congested: branch out (Tree-Based Hashing).
        std::uint32_t& down = b.children[sb];
        if (down == kNoBlock) {
            down = allocate_block();
            ++flush.branch_outs;
        }
        block = down;
        ++level;
        carry.probe = 0;
        b = full_view(block);
    }
}

bool EdgeblockArray::extract_deepest(std::uint32_t block, EdgeCell& out) {
    // Descend first: the victim must come from the deepest populated block so
    // compaction shortens probe paths.
    for (std::uint32_t s = 0; s < spb_; ++s) {
        std::uint32_t& c = child(block, s);
        if (c == kNoBlock) {
            continue;
        }
        if (extract_deepest(c, out)) {
            if (subtree_is_empty(c)) {
                free_block(c);
                c = kNoBlock;
            }
            return true;
        }
        // The child's subtree held nothing: prune it.
        free_subtree(c);
        c = kNoBlock;
    }
    const BlockView b = full_view(block);
    if (*b.occupied == 0) {
        return false;
    }
    for (std::uint32_t i = 0; i < pagewidth_; ++i) {
        EdgeCell& c = b.cells[i];
        if (c.state == CellState::Occupied) {
            out = c;
            c = EdgeCell{};
            --*b.occupied;
            set_bit(b.masks, i, false);
            return true;
        }
    }
    assert(false && "occupied count out of sync");
    return false;
}

void EdgeblockArray::refill_hole(std::uint32_t block, std::uint32_t sb,
                                 std::uint32_t slot, std::uint32_t level) {
    std::uint32_t& down = child(block, sb);
    if (down == kNoBlock) {
        return;
    }
    EdgeCell victim{};
    if (!extract_deepest(down, victim)) {
        free_subtree(down);
        down = kNoBlock;
        return;
    }
    // Any edge in the subtree hashes to this subblock at this level, so it
    // may legally occupy the hole; recompute its Robin Hood displacement.
    const std::uint32_t off = slot - sb * subblock_;
    const std::uint32_t home = home_of(victim.dst, level);
    victim.probe = static_cast<std::uint16_t>((off + subblock_ - home) &
                                              (subblock_ - 1));
    const BlockView b = full_view(block);
    b.cells[slot] = victim;
    ++*b.occupied;
    set_bit(b.masks, slot, true);
    if (cal_ != nullptr && victim.cal_pos != kNoCalPos) {
        cal_->rebind(victim.cal_pos, CellRef{block, slot});
    }
    metrics_.compaction_moves->inc();
    if (down != kNoBlock && subtree_is_empty(down)) {
        free_block(down);
        down = kNoBlock;
    }
}

EdgeblockArray::EraseResult EdgeblockArray::erase(std::uint32_t& top,
                                                  VertexId dst) {
    const auto loc = locate(top, dst);
    if (!loc) {
        return EraseResult{};
    }
    const BlockView b = view(loc->block);
    EdgeCell& c = b.cells[loc->slot];
    const std::uint32_t cal_pos = c.cal_pos;
    const Weight weight = c.weight;
    --*b.occupied;
    set_bit(b.masks, loc->slot, false);
    if (!compact_delete_) {
        // Delete-only: tombstone the cell; probing sees the slot as vacant
        // for future inserts but nothing shrinks.
        c.state = CellState::Tombstone;
        c.cal_pos = kNoCalPos;
        set_bit(b.tombs, loc->slot, true);
        return EraseResult{true, cal_pos, weight};
    }
    c = EdgeCell{};
    if (is_small(top)) {
        // A small root has no subtree to refill from; holes are harmless
        // because compact mode's FIND scans the whole window.
        if (*b.occupied == 0) {
            free_small(top);
            top = kNoBlock;
        }
        return EraseResult{true, cal_pos, weight};
    }
    refill_hole(loc->block, loc->sb, loc->slot, loc->level);
    // Prune the now-possibly-empty tail of the hash path so the structure
    // keeps shrinking as the graph shrinks (paper: "the data structure
    // shrinks as more edges are deleted").
    prune_path(top, dst);
    if (top != kNoBlock && subtree_is_empty(top)) {
        free_block(top);
        top = kNoBlock;
    }
    return EraseResult{true, cal_pos, weight};
}

void EdgeblockArray::prune_path(std::uint32_t top, VertexId dst) {
    if (top == kNoBlock) {
        return;
    }
    // Record the descent path of dst, then free empty childless blocks from
    // the deepest level upward.
    struct Step {
        std::uint32_t block;
        std::uint32_t sb;
    };
    Step path[kMaxPruneDepth];
    std::size_t depth = 0;
    std::uint32_t block = top;
    std::uint32_t level = 0;
    while (block != kNoBlock && depth < kMaxPruneDepth) {
        const std::uint32_t sb = sb_of(dst, level);
        path[depth++] = Step{block, sb};
        block = child(block, sb);
        ++level;
    }
    for (std::size_t i = depth; i-- > 1;) {
        const std::uint32_t b = path[i].block;
        if (subtree_is_empty(b)) {
            free_block(b);
            child(path[i - 1].block, path[i - 1].sb) = kNoBlock;
        } else {
            break;
        }
    }
}

void EdgeblockArray::prefetch_probe(std::uint32_t top,
                                    VertexId dst) const noexcept {
    // `top` may be stale (a batch's run table snapshots it), so check it
    // names a block of its tier before resolving it.
    if (top == kNoBlock ||
        (is_small(top) ? (top & ~kSmallTag) >= small_count_
                       : top >= block_count_)) {
        return;
    }
    // The first probe of (top, dst) reads the level-0 subblock's cells and
    // the block's mask words; warm both. Two lines cover 8 cells — the
    // default subblock.
    const BlockView b = view(top);
    const std::uint32_t sb = sb_in(b, dst, 0);
    const EdgeCell* cells = b.cells + sb * subblock_;
    // Write intent: an insert fills a cell in this window, and fetching the
    // line exclusive up front avoids a second coherence transition. The
    // arena is 64-byte aligned, so these two lines are the whole subblock.
    simd::prefetch_write(cells);
    simd::prefetch_write(cells + 4);
    simd::prefetch(b.masks);
    simd::prefetch(b.tombs);
    if (b.nchildren == 0) {
        // A small root's header may straddle a line: warm the count too.
        simd::prefetch(b.occupied);
        return;
    }
    // Warm the child pointer too so the second prefetch stage
    // (prefetch_probe_child) can read it without its own miss.
    simd::prefetch(b.children + sb);
}

void EdgeblockArray::prefetch_probe_child(std::uint32_t top,
                                          VertexId dst) const noexcept {
    // A small root has no child to chase (and kNoBlock fails the bound).
    if (top >= block_count_) {
        return;
    }
    const BlockView b = full_view(top);
    const std::uint32_t sb0 = sb_of(dst, 0);
    // Only chase the child when the level-0 window is full: that is the
    // only case where the probe descends, and the masks are already cached
    // from the first prefetch stage, so this peek is (nearly) free.
    const WindowBits bits = window_bits(b, sb0 * subblock_);
    const std::uint64_t full =
        subblock_ >= 64 ? ~0ULL : (1ULL << subblock_) - 1;
    if (bits.occ != full) {
        return;
    }
    const std::uint32_t c = b.children[sb0];
    if (c == kNoBlock || c >= block_count_) {
        return;
    }
    const BlockView cb = full_view(c);
    const EdgeCell* cells = cb.cells + sb_of(dst, 1) * subblock_;
    simd::prefetch_write(cells);
    simd::prefetch_write(cells + 4);
    simd::prefetch(cb.masks);
    simd::prefetch(cb.tombs);
}

EdgeblockArray::TreeLoad EdgeblockArray::tree_load(std::uint32_t top) const {
    TreeLoad load;
    if (top == kNoBlock) {
        return load;
    }
    std::vector<std::uint32_t> stack{top};
    while (!stack.empty()) {
        const BlockView b = view(stack.back());
        stack.pop_back();
        ++load.blocks;
        load.live += *b.occupied;
        for (std::uint32_t w = 0; w < words(b); ++w) {
            load.tombstones +=
                static_cast<std::uint32_t>(std::popcount(b.tombs[w]));
        }
        for (std::uint32_t s = 0; s < b.nchildren; ++s) {
            if (b.children[s] != kNoBlock) {
                stack.push_back(b.children[s]);
            }
        }
    }
    return load;
}

std::uint32_t EdgeblockArray::rebuild_tree(std::uint32_t& top) {
    if (top == kNoBlock) {
        return 0;
    }
    // Collect the live cells, freeing each block as it is drained. The
    // freed blocks land on the free lists before the reinsert below starts
    // allocating, so a rebuild recycles its own storage instead of growing
    // the arenas.
    const bool was_small = is_small(top);
    std::vector<EdgeCell> live;
    std::vector<std::uint32_t> stack{top};
    std::uint64_t tombstones = 0;
    while (!stack.empty()) {
        const std::uint32_t block = stack.back();
        stack.pop_back();
        const BlockView b = view(block);
        for (std::uint32_t i = 0; i < b.ncells; ++i) {
            const EdgeCell& c = b.cells[i];
            if (c.state == CellState::Occupied) {
                live.push_back(c);
            } else if (c.state == CellState::Tombstone) {
                ++tombstones;
            }
        }
        for (std::uint32_t s = 0; s < b.nchildren; ++s) {
            if (b.children[s] != kNoBlock) {
                stack.push_back(b.children[s]);
            }
        }
        *b.occupied = 0;
        if (is_small(block)) {
            free_small(block);
        } else {
            free_block(block);
        }
    }
    // A tree that fits one subblock comes back as a small root (the first
    // reinsert allocates it); a larger one gets a full root up front, so
    // the reinsert never fills a small root only to promote it.
    // An emptied tree keeps no root.
    top = live.size() > subblock_ ? allocate_block() : kNoBlock;
    metrics_.tombstones_purged->add(tombstones);
    metrics_.trees_rebuilt->inc();
    if (tiered_ && !was_small && top == kNoBlock && !live.empty()) {
        metrics_.demotions->inc();
    }
    // Reinsert through the regular INSERT cascade: placement invariants
    // (including the delete-only EMPTY-exit soundness) hold by construction
    // in a tombstone-free tree, and every placement re-binds the cell's CAL
    // copy exactly as a fresh build would.
    for (const EdgeCell& c : live) {
        insert_new(top, c.dst, c.weight, c.cal_pos);
    }
    return static_cast<std::uint32_t>(live.size());
}

std::uint32_t EdgeblockArray::subtree_live(std::uint32_t block) const {
    const BlockView b = full_view(block);
    std::uint32_t live = *b.occupied;
    for (std::uint32_t s = 0; s < spb_; ++s) {
        const std::uint32_t down = b.children[s];
        if (down != kNoBlock) {
            live += subtree_live(down);
        }
    }
    return live;
}

std::uint32_t EdgeblockArray::unbranch(std::uint32_t& top) {
    if (top == kNoBlock || rhh_ || is_small(top)) {
        // RHH probe-order placement forbids out-of-order pull-ups; a small
        // root has nothing below it.
        return 0;
    }
    return unbranch_block(top, 0);
}

std::uint32_t EdgeblockArray::unbranch_block(std::uint32_t block,
                                             std::uint32_t level) {
    std::uint32_t moved = 0;
    for (std::uint32_t s = 0; s < spb_; ++s) {
        std::uint32_t& down = child(block, s);
        if (down == kNoBlock) {
            continue;
        }
        // Post-order: merge the deepest generations first so this child's
        // census below reflects its already-shrunk subtree.
        moved += unbranch_block(down, level + 1);
        const std::uint32_t live = subtree_live(down);
        if (live == 0) {
            free_subtree(down);
            down = kNoBlock;
            continue;
        }
        const std::uint32_t sb_base = s * subblock_;
        std::uint32_t free_slots = 0;
        for (std::uint32_t off = 0; off < subblock_; ++off) {
            if (cell(block, sb_base + off).state != CellState::Occupied) {
                ++free_slots;
            }
        }
        if (live > free_slots) {
            continue;
        }
        // Every edge under the child hashes to this window at this level
        // (the branch-out that created it proves so), so each may legally
        // take any free slot; recompute the displacement bookkeeping as
        // refill_hole does.
        const BlockView b = full_view(block);
        EdgeCell victim{};
        std::uint32_t off = 0;
        while (down != kNoBlock && extract_deepest(down, victim)) {
            while (b.cells[sb_base + off].state == CellState::Occupied) {
                ++off;
            }
            const std::uint32_t slot = sb_base + off;
            const std::uint32_t home = home_of(victim.dst, level);
            victim.probe = static_cast<std::uint16_t>(
                (off + subblock_ - home) & (subblock_ - 1));
            b.cells[slot] = victim;
            ++*b.occupied;
            set_bit(b.masks, slot, true);
            set_bit(b.tombs, slot, false);
            if (cal_ != nullptr && victim.cal_pos != kNoCalPos) {
                cal_->rebind(victim.cal_pos, CellRef{block, slot});
            }
            ++moved;
            metrics_.unbranch_moves->inc();
        }
        if (down != kNoBlock) {
            free_subtree(down);  // only empties/tombstones remain
            down = kNoBlock;
        }
    }
    return moved;
}

std::uint64_t EdgeblockArray::tombstones_in_arena() const noexcept {
    std::uint64_t total = 0;
    for (std::uint32_t block = 0; block < block_count_; ++block) {
        const std::uint64_t* tombs = arena_.at<kTombs>(block);
        for (std::uint32_t w = 0; w < words_per_block_; ++w) {
            total += static_cast<std::uint64_t>(std::popcount(tombs[w]));
        }
    }
    for (std::uint32_t index = 0; index < small_count_; ++index) {
        const std::uint64_t* tombs =
            small_.at<kSHeader>(index) + small_words_;
        for (std::uint32_t w = 0; w < small_words_; ++w) {
            total += static_cast<std::uint64_t>(std::popcount(tombs[w]));
        }
    }
    return total;
}

std::uint32_t EdgeblockArray::subtree_depth(std::uint32_t top) const {
    if (top == kNoBlock) {
        return 0;
    }
    const BlockView b = view(top);
    std::uint32_t depth = 0;
    for (std::uint32_t s = 0; s < b.nchildren; ++s) {
        const std::uint32_t c = b.children[s];
        if (c != kNoBlock) {
            depth = std::max(depth, subtree_depth(c));
        }
    }
    return depth + 1;
}

}  // namespace gt::core
