#include "core/cal.hpp"

#include <algorithm>
#include <cassert>

#include "util/failpoint.hpp"

namespace gt::core {

CoarseAdjacencyList::CoarseAdjacencyList(std::uint32_t group_size,
                                         std::uint32_t block_edges,
                                         obs::Registry* registry)
    : group_size_(group_size), block_edges_(block_edges),
      registry_(registry), arena_({block_edges, 1}, kFirstChunkBlocks) {
    assert(group_size_ > 0 && block_edges_ > 0);
    if (registry_ == nullptr) {
        owned_registry_ = std::make_unique<obs::Registry>();
        registry_ = owned_registry_.get();
    }
    obs::Registry& r = *registry_;
    blocks_allocated_m_ = &r.counter("cal.blocks_allocated");
    blocks_freed_m_ = &r.counter("cal.blocks_freed");
    holes_created_m_ = &r.counter("cal.holes_created");
    holes_reclaimed_m_ = &r.counter("cal.holes_reclaimed");
    compact_moves_m_ = &r.counter("cal.compact_moves");
    chain_blocks_m_ = &r.histogram("cal.chain_blocks");
}

void CoarseAdjacencyList::reserve(EdgeCount expected_edges) {
    if (arena_.capacity() == 0) {
        arena_.set_first_chunk_blocks(expected_edges / block_edges_ + 2);
        arena_.grow();
    }
}

std::uint32_t CoarseAdjacencyList::allocate_block(std::uint32_t group) {
    std::uint32_t id;
    if (!free_.empty()) {
        // Free-listed blocks were drained slot by slot on the way out.
        id = free_.back();
        free_.pop_back();
    } else {
        if (block_count_ == arena_.capacity()) {
            arena_.grow();
        }
        id = block_count_++;
        // Chunk memory is raw: clear the slots so a block freed before it
        // fills holds no stale data past its bump cursor.
        std::fill_n(slots(id), block_edges_, CalEdgeSlot{});
    }
    meta(id) = BlockMeta{.next = kNone, .prev = kNone, .group = group,
                         .used = 0};
    blocks_allocated_m_->inc();
    return id;
}

void CoarseAdjacencyList::reserve_headroom() {
    // Invariant restored here: free_ can absorb a push for every block that
    // exists (or is about to), so free_tail_block never reallocates.
    if (free_.empty()) {
        // The next append may allocate one fresh block: arena room for it
        // and a free-list slot for its eventual release. Geometric growth —
        // vector::reserve alone would degrade push_back's amortization to
        // O(n^2).
        const std::size_t nblocks = block_count_ + std::size_t{1};
        if (free_.capacity() < nblocks) {
            free_.reserve(std::max<std::size_t>(nblocks * 2, 8));
        }
        if (block_count_ == arena_.capacity()) {
            arena_.grow();
        }
    } else if (free_.capacity() < block_count_) {
        free_.reserve(block_count_);
    }
}

void CoarseAdjacencyList::prepare_append(VertexId dense_src) {
    const std::uint32_t group = dense_src / group_size_;
    if (group >= groups_.size()) {
        groups_.resize(static_cast<std::size_t>(group) + 1);
    }
    prepare_append_group(group);
}

void CoarseAdjacencyList::prepare_append_group(std::uint32_t /*group*/) {
    GT_FAILPOINT("cal.grow");
    reserve_headroom();
}

void CoarseAdjacencyList::prepare_erase() {
    GT_FAILPOINT("cal.grow");
    if (free_.capacity() < block_count_) {
        free_.reserve(block_count_);
    }
}

std::uint32_t CoarseAdjacencyList::insert(VertexId dense_src, VertexId raw_src,
                                          VertexId dst, Weight weight,
                                          CellRef owner) {
    const std::uint32_t group = dense_src / group_size_;
    if (group >= groups_.size()) {
        groups_.resize(static_cast<std::size_t>(group) + 1);
    }
    return insert_in_group(group, raw_src, dst, weight, owner);
}

std::uint32_t CoarseAdjacencyList::insert_in_group(std::uint32_t group,
                                                   VertexId raw_src,
                                                   VertexId dst, Weight weight,
                                                   CellRef owner) {
    GroupMeta& gm = groups_[group];
    if (gm.tail == kNone || meta(gm.tail).used == block_edges_) {
        const std::uint32_t block = allocate_block(group);
        meta(block).prev = gm.tail;
        if (gm.tail == kNone) {
            gm.head = block;
        } else {
            meta(gm.tail).next = block;
        }
        gm.tail = block;
        chain_blocks_m_->record(++gm.blocks);
    }
    BlockMeta& tail = meta(gm.tail);
    const std::uint32_t pos = gm.tail * block_edges_ + tail.used;
    slots(gm.tail)[tail.used] = CalEdgeSlot{
        .src = raw_src, .dst = dst, .weight = weight, .owner = owner};
    ++tail.used;
    ++live_;
    ++used_;
    return pos;
}

void CoarseAdjacencyList::free_tail_block(GroupMeta& gm) {
    assert(gm.tail != kNone && meta(gm.tail).used == 0);
    const std::uint32_t old_tail = gm.tail;
    const std::uint32_t prev = meta(old_tail).prev;
    gm.tail = prev;
    --gm.blocks;
    if (prev == kNone) {
        gm.head = kNone;
    } else {
        meta(prev).next = kNone;
    }
    free_.push_back(old_tail);
    blocks_freed_m_->inc();
}

std::optional<CoarseAdjacencyList::Moved> CoarseAdjacencyList::erase(
    std::uint32_t pos, bool compact) {
    CalEdgeSlot& victim = slot(pos);
    assert(victim.src != kInvalidVertex && "double CAL erase");
    --live_;
    if (!compact) {
        // Delete-only: flag as invalid; the hole is skipped during streaming
        // but keeps being scanned, which is exactly the degradation Fig 15
        // measures.
        victim.src = kInvalidVertex;
        holes_created_m_->inc();
        return std::nullopt;
    }

    GroupMeta& gm = groups_[meta(pos / block_edges_).group];
    BlockMeta& tail = meta(gm.tail);
    assert(tail.used > 0);
    --tail.used;
    --used_;
    const std::uint32_t last_pos = gm.tail * block_edges_ + tail.used;
    CalEdgeSlot& last = slots(gm.tail)[tail.used];
    std::optional<Moved> moved;
    // Self-move guard: when the erased edge IS the group's tail edge
    // (last_pos == pos), there is nothing to relocate and no Moved may be
    // emitted — the caller would re-bind an owner's CAL pointer to a slot
    // this erase just vacated.
    if (last_pos != pos) {
        // Compact chains hold no holes, so the relocated tail edge is
        // always live and its owner backreference is current (every prior
        // cell move re-bound it through rebind()).
        assert(last.src != kInvalidVertex &&
               "compact-mode tail slot must be live");
        victim = last;
        moved = Moved{.owner = victim.owner, .new_pos = pos};
        compact_moves_m_->inc();
    }
    last = CalEdgeSlot{};
    if (tail.used == 0) {
        free_tail_block(gm);
    }
    return moved;
}

std::size_t CoarseAdjacencyList::compact_chains(
    const std::function<void(CellRef, std::uint32_t)>& rebind) {
    std::size_t reclaimed = 0;
    for (GroupMeta& gm : groups_) {
        if (gm.head == kNone) {
            continue;
        }
        // One pass per chain with a trailing write cursor: live slots slide
        // toward the head (preserving streaming order), holes are skipped
        // and every relocated edge's owner is re-bound immediately.
        std::uint32_t wb = gm.head;
        CalEdgeSlot* wslots = slots(wb);
        std::uint32_t wslot = 0;
        std::uint64_t live_in_group = 0;
        for (std::uint32_t rb = gm.head; rb != kNone; rb = meta(rb).next) {
            CalEdgeSlot* rslots = slots(rb);
            const std::uint32_t used = meta(rb).used;
            for (std::uint32_t i = 0; i < used; ++i) {
                CalEdgeSlot& slot = rslots[i];
                if (slot.src == kInvalidVertex) {
                    ++reclaimed;  // delete-only hole: drops out of the chain
                    continue;
                }
                ++live_in_group;
                if (wslot == block_edges_) {
                    wb = meta(wb).next;
                    wslots = slots(wb);
                    wslot = 0;
                }
                if (&wslots[wslot] != &slot) {
                    wslots[wslot] = slot;
                    slot = CalEdgeSlot{};
                    rebind(wslots[wslot].owner, wb * block_edges_ + wslot);
                }
                ++wslot;
            }
        }
        if (live_in_group == 0) {
            // Nothing left: the whole chain returns to the free list.
            while (gm.tail != kNone) {
                meta(gm.tail).used = 0;
                free_tail_block(gm);
            }
            continue;
        }
        // Rewrite the bump counters — full blocks up to the write cursor,
        // the cursor block partial — and free everything past the cursor.
        for (std::uint32_t b = gm.head;; b = meta(b).next) {
            if (b == wb) {
                meta(b).used = wslot;
                break;
            }
            meta(b).used = block_edges_;
        }
        while (gm.tail != wb) {
            meta(gm.tail).used = 0;
            free_tail_block(gm);
        }
    }
    used_ -= reclaimed;
    holes_reclaimed_m_->add(reclaimed);
    return reclaimed;
}

void CoarseAdjacencyList::update_weight(std::uint32_t pos, Weight weight) {
    CalEdgeSlot& s = slot(pos);
    assert(s.src != kInvalidVertex);
    s.weight = weight;
}

void CoarseAdjacencyList::rebind(std::uint32_t pos, CellRef owner) {
    CalEdgeSlot& s = slot(pos);
    assert(s.src != kInvalidVertex);
    s.owner = owner;
}

CoarseAdjacencyList::SlotView CoarseAdjacencyList::slot_at(
    std::uint32_t pos) const {
    const CalEdgeSlot& slot = this->slot(pos);
    return SlotView{.src = slot.src, .dst = slot.dst, .weight = slot.weight,
                    .owner = slot.owner, .valid = slot.src != kInvalidVertex};
}

}  // namespace gt::core
