#include "core/audit.hpp"

#include <algorithm>
#include <utility>

#include "core/graphtinker.hpp"
#include "util/hash.hpp"

namespace gt::core {

std::string_view to_string(AuditCheck check) noexcept {
    switch (check) {
        case AuditCheck::TbhStructure:
            return "tbh-structure";
        case AuditCheck::TbhOrphan:
            return "tbh-orphan";
        case AuditCheck::SmallTier:
            return "small-tier";
        case AuditCheck::Occupancy:
            return "occupancy";
        case AuditCheck::RhhPlacement:
            return "rhh-placement";
        case AuditCheck::RhhProbePath:
            return "rhh-probe-path";
        case AuditCheck::FindReachability:
            return "find-reachability";
        case AuditCheck::CalForward:
            return "cal-forward";
        case AuditCheck::CalReverse:
            return "cal-reverse";
        case AuditCheck::CalChain:
            return "cal-chain";
        case AuditCheck::SghBijection:
            return "sgh-bijection";
        case AuditCheck::DegreeAccounting:
            return "degree-accounting";
        case AuditCheck::EdgeAccounting:
            return "edge-accounting";
    }
    return "unknown";
}

std::string AuditViolation::to_string() const {
    std::string out{gt::core::to_string(check)};
    if (src != kInvalidVertex) {
        out += " src=" + std::to_string(src);
    }
    if (dst != kInvalidVertex) {
        out += " dst=" + std::to_string(dst);
    }
    out += ": " + detail;
    return out;
}

bool AuditReport::has(AuditCheck check) const noexcept {
    for (const AuditViolation& v : violations) {
        if (v.check == check) {
            return true;
        }
    }
    return false;
}

std::string AuditReport::to_string() const {
    if (ok()) {
        return {};
    }
    std::string out = "audit found " + std::to_string(violations.size()) +
                      " violation(s)";
    if (truncated) {
        out += " (truncated)";
    }
    out += ":\n";
    for (const AuditViolation& v : violations) {
        out += "  " + v.to_string() + "\n";
    }
    return out;
}

/// Stateful single-run audit walk. Every check appends typed violations and
/// keeps going (up to the report cap), so one run reports every broken
/// invariant class at once. Nested in Auditor so it shares the friend
/// access the core classes grant.
class Auditor::Run {
public:
    explicit Run(const GraphTinker& g) : g_(g), eba_(g.eba_) {}

    AuditReport run() {
        audit_tree_and_cells();
        if (g_.config_.enable_cal) {
            audit_cal();
        }
        if (g_.config_.enable_sgh) {
            audit_sgh();
        }
        audit_edge_totals();
        return std::move(report_);
    }

private:
    void add(AuditCheck check, VertexId src, VertexId dst,
             std::string detail) {
        if (report_.violations.size() >= AuditReport::kMaxViolations) {
            report_.truncated = true;
            return;
        }
        report_.violations.push_back(
            AuditViolation{check, src, dst, std::move(detail)});
    }

    [[nodiscard]] static bool bit(const std::uint64_t* words,
                                  std::uint32_t slot) {
        return ((words[slot / 64] >> (slot % 64)) & 1U) != 0;
    }

    // ---- pass 1: TBH tree walk + per-cell RHH / CAL-forward checks -------

    void audit_tree_and_cells() {
        const std::size_t blocks = eba_.block_count_;
        const std::size_t smalls = eba_.small_count_;
        reached_.assign(blocks, 0);
        free_flag_.assign(blocks, 0);
        small_reached_.assign(smalls, 0);
        small_free_flag_.assign(smalls, 0);
        for (const std::uint32_t b : eba_.free_blocks_) {
            if (b >= blocks) {
                add(AuditCheck::TbhStructure, kInvalidVertex, kInvalidVertex,
                    "free list holds out-of-range block " + std::to_string(b));
                continue;
            }
            if (free_flag_[b]) {
                add(AuditCheck::TbhStructure, kInvalidVertex, kInvalidVertex,
                    "block " + std::to_string(b) + " free-listed twice");
            }
            free_flag_[b] = 1;
            for (std::uint32_t s = 0; s < eba_.spb_; ++s) {
                if (eba_.child(b, s) != EdgeblockArray::kNoBlock) {
                    add(AuditCheck::TbhStructure, kInvalidVertex,
                        kInvalidVertex,
                        "free block " + std::to_string(b) +
                            " still links child at subblock " +
                            std::to_string(s));
                }
            }
            audit_free_block(b, AuditCheck::TbhStructure);
        }
        for (const std::uint32_t h : eba_.small_free_) {
            const std::uint32_t i = h & ~EdgeblockArray::kSmallTag;
            if (!EdgeblockArray::is_small(h) || i >= smalls) {
                add(AuditCheck::SmallTier, kInvalidVertex, kInvalidVertex,
                    "small free list holds bad handle " + std::to_string(h));
                continue;
            }
            if (small_free_flag_[i]) {
                add(AuditCheck::SmallTier, kInvalidVertex, kInvalidVertex,
                    "small block " + std::to_string(i) +
                        " free-listed twice");
            }
            small_free_flag_[i] = 1;
            audit_free_block(h, AuditCheck::SmallTier);
        }

        for (VertexId dense = 0; dense < g_.top_.size(); ++dense) {
            ++report_.vertices_audited;
            const VertexId raw = g_.raw_of(dense);
            const EdgeCount cells = walk_vertex(dense, raw);
            total_cells_ += cells;
            const std::uint32_t degree =
                dense < g_.props_.size() ? g_.props_[dense].degree : 0;
            if (degree != cells) {
                add(AuditCheck::DegreeAccounting, raw, kInvalidVertex,
                    "stored degree " + std::to_string(degree) + " but " +
                        std::to_string(cells) + " live cells");
            }
        }

        for (std::uint32_t b = 0; b < blocks; ++b) {
            if (!free_flag_[b] && reached_[b] == 0) {
                add(AuditCheck::TbhOrphan, kInvalidVertex, kInvalidVertex,
                    "allocated block " + std::to_string(b) +
                        " unreachable from every top parent");
            }
        }
        for (std::uint32_t i = 0; i < smalls; ++i) {
            if (!small_free_flag_[i] && small_reached_[i] == 0) {
                add(AuditCheck::TbhOrphan, kInvalidVertex, kInvalidVertex,
                    "allocated small block " + std::to_string(i) +
                        " unreachable from every top parent");
            }
        }
    }

    /// Reclaimed blocks must be scrubbed clean: free_block/free_small clear
    /// the cells and both mask planes, and allocation recycles them without
    /// re-clearing — a dirty free block would leak stale edges (or
    /// tombstones) straight into the next tree built on top of it.
    void audit_free_block(std::uint32_t b, AuditCheck check) {
        const auto view = eba_.view(b);
        const auto name = [b] {
            return EdgeblockArray::is_small(b)
                       ? "free small block " +
                             std::to_string(b & ~EdgeblockArray::kSmallTag)
                       : "free block " + std::to_string(b);
        };
        if (*view.occupied != 0) {
            add(check, kInvalidVertex, kInvalidVertex,
                name() + " counts " + std::to_string(*view.occupied) +
                    " occupied cells");
        }
        for (std::uint32_t w = 0; w < EdgeblockArray::words(view); ++w) {
            if (view.masks[w] != 0 || view.tombs[w] != 0) {
                add(check, kInvalidVertex, kInvalidVertex,
                    name() + " has non-empty occupancy/tombstone masks");
                break;
            }
        }
        for (std::uint32_t slot = 0; slot < view.ncells; ++slot) {
            if (view.cells[slot].state != CellState::Empty) {
                add(check, kInvalidVertex, kInvalidVertex,
                    name() + " holds a non-EMPTY cell at slot " +
                        std::to_string(slot));
                break;
            }
        }
    }

    /// Marks `block` reached from `raw`'s tree at `level`; false (with the
    /// violation reported) when the walk must not enter it.
    bool enter(VertexId raw, std::uint32_t block, std::uint32_t level) {
        const auto where = [level] {
            return " (level " + std::to_string(level) + ")";
        };
        if (!EdgeblockArray::is_small(block)) {
            if (block >= eba_.block_count_) {
                add(AuditCheck::TbhStructure, raw, kInvalidVertex,
                    "handle " + std::to_string(block) +
                        " outside the arena" + where());
                return false;
            }
            if (free_flag_[block]) {
                add(AuditCheck::TbhStructure, raw, kInvalidVertex,
                    "reachable block " + std::to_string(block) +
                        " is on the free list");
                return false;
            }
            if (reached_[block]++ != 0) {
                add(AuditCheck::TbhStructure, raw, kInvalidVertex,
                    "block " + std::to_string(block) +
                        " reached twice (cycle or shared child)");
                return false;
            }
            return true;
        }
        const std::uint32_t i = block & ~EdgeblockArray::kSmallTag;
        if (i >= eba_.small_count_) {
            add(AuditCheck::SmallTier, raw, kInvalidVertex,
                "small handle " + std::to_string(i) + " outside the arena" +
                    where());
            return false;
        }
        if (level != 0) {
            add(AuditCheck::SmallTier, raw, kInvalidVertex,
                "small block " + std::to_string(i) + " below the root" +
                    where());
        }
        if (small_free_flag_[i]) {
            add(AuditCheck::SmallTier, raw, kInvalidVertex,
                "reachable small block " + std::to_string(i) +
                    " is on the free list");
            return false;
        }
        if (small_reached_[i]++ != 0) {
            add(AuditCheck::SmallTier, raw, kInvalidVertex,
                "small block " + std::to_string(i) + " reached twice");
            return false;
        }
        ++report_.small_blocks;
        return true;
    }

    /// Depth-first walk of one vertex's edgeblock tree. Returns the number
    /// of live cells seen under the tree.
    EdgeCount walk_vertex(VertexId dense, VertexId raw) {
        const std::uint32_t top = g_.top_[dense];
        if (top == EdgeblockArray::kNoBlock) {
            return 0;
        }
        EdgeCount cells = 0;
        struct Frame {
            std::uint32_t block;
            std::uint32_t level;
        };
        std::vector<Frame> stack{{top, 0}};
        while (!stack.empty()) {
            const auto [block, level] = stack.back();
            stack.pop_back();
            if (!enter(raw, block, level)) {
                continue;  // do not descend
            }
            ++report_.blocks_audited;
            cells += audit_block(raw, top, block, level);
            const auto view = eba_.view(block);
            for (std::uint32_t s = 0; s < view.nchildren; ++s) {
                const std::uint32_t down = view.children[s];
                if (down != EdgeblockArray::kNoBlock) {
                    stack.push_back(Frame{down, level + 1});
                }
            }
        }
        return cells;
    }

    /// Per-cell checks of one reachable block at its tree level. Returns the
    /// number of occupied cells.
    EdgeCount audit_block(VertexId raw, std::uint32_t top,
                          std::uint32_t block, std::uint32_t level) {
        EdgeCount occupied = 0;
        const auto view = eba_.view(block);
        if (EdgeblockArray::is_small(block)) {
            // A small block is one subblock: no bit may name a cell past it,
            // and its counter may never exceed it.
            const std::uint64_t window = view.ncells >= 64
                                             ? ~0ULL
                                             : (1ULL << view.ncells) - 1;
            const std::uint64_t outside =
                ~window & (view.masks[0] | view.tombs[0]);
            if (outside != 0 || *view.occupied > view.ncells) {
                add(AuditCheck::SmallTier, raw, kInvalidVertex,
                    "small block " +
                        std::to_string(block & ~EdgeblockArray::kSmallTag) +
                        " claims more than " + std::to_string(view.ncells) +
                        " cells");
            }
        }
        for (std::uint32_t slot = 0; slot < view.ncells; ++slot) {
            const EdgeCell& c = view.cells[slot];
            const bool is_occupied = c.state == CellState::Occupied;
            if (bit(view.masks, slot) != is_occupied) {
                add(AuditCheck::Occupancy, raw, c.dst,
                    "occupancy bit disagrees with cell state (block " +
                        std::to_string(block) + " slot " +
                        std::to_string(slot) + ")");
            }
            if (bit(view.tombs, slot) != (c.state == CellState::Tombstone)) {
                add(AuditCheck::Occupancy, raw, c.dst,
                    "tombstone bit disagrees with cell state (block " +
                        std::to_string(block) + " slot " +
                        std::to_string(slot) + ")");
            }
            if (c.state == CellState::Tombstone) {
                ++report_.tombstones;
            }
            if (!is_occupied) {
                continue;
            }
            ++occupied;
            ++report_.live_edges;
            ++report_.cells_audited;
            audit_cell(raw, top, block, slot, level, c);
        }
        if (occupied != *view.occupied) {
            add(AuditCheck::Occupancy, raw, kInvalidVertex,
                "block " + std::to_string(block) + " counter says " +
                    std::to_string(*view.occupied) + " but " +
                    std::to_string(occupied) + " cells are occupied");
        }
        return occupied;
    }

    void audit_cell(VertexId raw, std::uint32_t top, std::uint32_t block,
                    std::uint32_t slot, std::uint32_t level,
                    const EdgeCell& c) {
        const std::uint32_t sb = slot / eba_.subblock_;
        const std::uint32_t sb_base = sb * eba_.subblock_;
        const std::uint32_t want_sb =
            EdgeblockArray::sb_in(eba_.view(block), c.dst, level);

        // Robin Hood placement: right subblock for the (dst, level) hash and
        // probe distance equal to the displacement from the home offset.
        if (want_sb != sb) {
            add(AuditCheck::RhhPlacement, raw, c.dst,
                "cell stored in subblock " + std::to_string(sb) +
                    " but hashes to " + std::to_string(want_sb) +
                    " at level " + std::to_string(level));
        } else {
            const std::uint32_t home = eba_.home_of(c.dst, level);
            const std::uint32_t off = slot - sb_base;
            const std::uint32_t expected =
                (off + eba_.subblock_ - home) & (eba_.subblock_ - 1);
            if (c.probe != expected) {
                add(AuditCheck::RhhPlacement, raw, c.dst,
                    "stored probe " + std::to_string(c.probe) +
                        " but displacement from home is " +
                        std::to_string(expected));
            } else if (eba_.rhh_) {
                // Probe-path continuity (delete-only mode): no EMPTY cell
                // may precede the edge on its probe path, otherwise the
                // FIND early-exit would miss it.
                for (std::uint32_t d = 0; d < c.probe; ++d) {
                    const std::uint32_t on_path =
                        sb_base + ((home + d) & (eba_.subblock_ - 1));
                    if (eba_.cell(block, on_path).state == CellState::Empty) {
                        add(AuditCheck::RhhProbePath, raw, c.dst,
                            "EMPTY cell at probe distance " +
                                std::to_string(d) +
                                " precedes edge stored at distance " +
                                std::to_string(c.probe));
                        break;
                    }
                }
            }
        }

        // End-to-end FIND retrieval.
        const auto found = eba_.find(top, c.dst);
        if (!found || *found != c.weight) {
            add(AuditCheck::FindReachability, raw, c.dst,
                !found ? "stored cell not reachable via FIND"
                       : "FIND returns weight " + std::to_string(*found) +
                             " but cell stores " + std::to_string(c.weight));
        }

        // CAL forward pointer.
        if (!g_.config_.enable_cal) {
            if (c.cal_pos != kNoCalPos) {
                add(AuditCheck::CalForward, raw, c.dst,
                    "CAL disabled but cell carries CAL pointer " +
                        std::to_string(c.cal_pos));
            }
            return;
        }
        if (c.cal_pos == kNoCalPos) {
            add(AuditCheck::CalForward, raw, c.dst,
                "occupied cell without CAL pointer");
            return;
        }
        if (c.cal_pos / g_.cal_.block_edges_ >= g_.cal_.block_count_) {
            add(AuditCheck::CalForward, raw, c.dst,
                "CAL pointer " + std::to_string(c.cal_pos) +
                    " outside the pool");
            return;
        }
        const auto slot_view = g_.cal_.slot_at(c.cal_pos);
        if (!slot_view.valid || slot_view.src != raw ||
            slot_view.dst != c.dst || slot_view.weight != c.weight ||
            slot_view.owner.block != block || slot_view.owner.slot != slot) {
            add(AuditCheck::CalForward, raw, c.dst,
                "CAL slot " + std::to_string(c.cal_pos) +
                    " disagrees with its owning cell");
        }
    }

    // ---- pass 2: CAL chains + reverse pointers ---------------------------

    void audit_cal() {
        const CoarseAdjacencyList& cal = g_.cal_;
        constexpr std::uint32_t kNone = 0xffffffffU;
        const std::uint32_t blocks = cal.block_count_;
        std::vector<std::uint8_t> chained(blocks, 0);

        for (std::size_t group = 0; group < cal.groups_.size(); ++group) {
            const auto& meta = cal.groups_[group];
            if ((meta.head == kNone) != (meta.tail == kNone)) {
                add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                    "group " + std::to_string(group) +
                        " has mismatched head/tail sentinels");
                continue;
            }
            std::uint32_t prev = kNone;
            std::uint32_t b = meta.head;
            std::size_t steps = 0;
            while (b != kNone) {
                if (b >= blocks || ++steps > blocks) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "group " + std::to_string(group) +
                            " chain is out of range or cyclic");
                    break;
                }
                if (chained[b]++ != 0) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "CAL block " + std::to_string(b) +
                            " appears in two chains");
                    break;
                }
                const auto& bm = cal.meta(b);
                if (bm.group != group) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "CAL block " + std::to_string(b) + " tagged group " +
                            std::to_string(bm.group) + " but chained in " +
                            std::to_string(group));
                }
                if (bm.prev != prev) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "CAL block " + std::to_string(b) +
                            " prev link broken");
                }
                if (bm.used > cal.block_edges_) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "CAL block " + std::to_string(b) +
                            " used count exceeds capacity");
                }
                if (bm.next == kNone && meta.tail != b) {
                    add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                        "group " + std::to_string(group) +
                            " tail does not terminate its chain");
                }
                ++report_.cal_blocks;
                audit_cal_block(b);
                prev = b;
                b = bm.next;
            }
            if (b == kNone && steps != meta.blocks) {
                add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                    "group " + std::to_string(group) + " chain holds " +
                        std::to_string(steps) + " blocks but its count says " +
                        std::to_string(meta.blocks));
            }
        }

        // Every pool block is either chained or free-listed, never both.
        std::vector<std::uint8_t> free_flag(blocks, 0);
        for (const std::uint32_t b : cal.free_) {
            if (b < blocks) {
                free_flag[b] = 1;
                audit_cal_free_block(b);
            }
        }
        for (std::uint32_t b = 0; b < blocks; ++b) {
            if (chained[b] != 0 && free_flag[b] != 0) {
                add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                    "CAL block " + std::to_string(b) +
                        " both chained and free-listed");
            } else if (chained[b] == 0 && free_flag[b] == 0) {
                add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                    "CAL block " + std::to_string(b) +
                        " neither chained nor free-listed");
            }
        }

        if (cal_live_ != cal.live_edges()) {
            add(AuditCheck::EdgeAccounting, kInvalidVertex, kInvalidVertex,
                "CAL live counter says " + std::to_string(cal.live_edges()) +
                    " but " + std::to_string(cal_live_) +
                    " live slots exist");
        }
    }

    /// Free-listed CAL blocks must be fully drained: a stale live slot in a
    /// recycled block would resurface as a phantom edge the next time the
    /// block is appended to a chain.
    void audit_cal_free_block(std::uint32_t block) {
        const CoarseAdjacencyList& cal = g_.cal_;
        if (cal.meta(block).used != 0) {
            add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                "free CAL block " + std::to_string(block) + " counts " +
                    std::to_string(cal.meta(block).used) + " used slots");
        }
        const auto* slots = cal.slots(block);
        for (std::uint32_t i = 0; i < cal.block_edges_; ++i) {
            if (slots[i].src != kInvalidVertex) {
                add(AuditCheck::CalChain, kInvalidVertex, kInvalidVertex,
                    "free CAL block " + std::to_string(block) +
                        " holds a live slot at offset " + std::to_string(i));
                break;
            }
        }
    }

    /// Reverse (CAL slot -> edge-cell) round-trip for one chained block.
    void audit_cal_block(std::uint32_t block) {
        const CoarseAdjacencyList& cal = g_.cal_;
        const auto* slots = cal.slots(block);
        for (std::uint32_t i = 0; i < cal.meta(block).used; ++i) {
            ++report_.cal_slots_audited;
            const auto& slot = slots[i];
            if (slot.src == kInvalidVertex) {
                continue;  // delete-only hole
            }
            ++cal_live_;
            const std::uint32_t pos = block * cal.block_edges_ + i;
            const std::uint32_t owner = slot.owner.block;
            const bool small = EdgeblockArray::is_small(owner);
            if ((small ? (owner & ~EdgeblockArray::kSmallTag) >=
                             eba_.small_count_
                       : owner >= eba_.block_count_) ||
                slot.owner.slot >= (small ? eba_.subblock_ : eba_.pagewidth_)) {
                add(AuditCheck::CalReverse, slot.src, slot.dst,
                    "CAL slot " + std::to_string(pos) +
                        " owner reference outside the arena");
                continue;
            }
            const EdgeCell& cell =
                eba_.cell(slot.owner.block, slot.owner.slot);
            if (cell.state != CellState::Occupied ||
                cell.cal_pos != pos || cell.dst != slot.dst ||
                cell.weight != slot.weight) {
                add(AuditCheck::CalReverse, slot.src, slot.dst,
                    "CAL slot " + std::to_string(pos) +
                        " owner cell does not point back");
            }
        }
    }

    // ---- pass 3: SGH bijection ------------------------------------------

    void audit_sgh() {
        const ScatterGatherHash& sgh = g_.sgh_;
        if (sgh.size() != g_.top_.size()) {
            add(AuditCheck::SghBijection, kInvalidVertex, kInvalidVertex,
                "SGH maps " + std::to_string(sgh.size()) +
                    " vertices but the top-parent table holds " +
                    std::to_string(g_.top_.size()));
        }
        if (sgh.map_.size() != sgh.dense_to_raw_.size()) {
            add(AuditCheck::SghBijection, kInvalidVertex, kInvalidVertex,
                "forward map holds " + std::to_string(sgh.map_.size()) +
                    " entries but reverse table holds " +
                    std::to_string(sgh.dense_to_raw_.size()));
        }
        const VertexId bound =
            static_cast<VertexId>(std::min(sgh.size(), g_.top_.size()));
        for (VertexId dense = 0; dense < bound; ++dense) {
            const VertexId raw = sgh.raw_of(dense);
            const auto round_trip = sgh.lookup(raw);
            if (!round_trip || *round_trip != dense) {
                add(AuditCheck::SghBijection, raw, kInvalidVertex,
                    "dense id " + std::to_string(dense) +
                        " does not round-trip (raw " + std::to_string(raw) +
                        " maps to " +
                        (round_trip ? std::to_string(*round_trip)
                                    : std::string("nothing")) +
                        ")");
                continue;
            }
            if (dense < g_.props_.size() &&
                g_.props_[dense].raw_id != raw) {
                add(AuditCheck::SghBijection, raw, kInvalidVertex,
                    "vertex property raw_id " +
                        std::to_string(g_.props_[dense].raw_id) +
                        " disagrees with SGH raw id " + std::to_string(raw));
            }
        }
    }

    // ---- pass 4: global accounting --------------------------------------

    void audit_edge_totals() {
        if (total_cells_ != g_.num_edges_) {
            add(AuditCheck::EdgeAccounting, kInvalidVertex, kInvalidVertex,
                "edge counter says " + std::to_string(g_.num_edges_) +
                    " but " + std::to_string(total_cells_) +
                    " live cells are stored");
        }
        if (g_.config_.enable_cal && cal_live_ != g_.num_edges_) {
            add(AuditCheck::EdgeAccounting, kInvalidVertex, kInvalidVertex,
                "edge counter says " + std::to_string(g_.num_edges_) +
                    " but the CAL holds " + std::to_string(cal_live_) +
                    " live copies");
        }
    }

    const GraphTinker& g_;
    const EdgeblockArray& eba_;
    AuditReport report_;
    // Per-tier walk state: reached counts and free-list membership.
    std::vector<std::uint8_t> reached_;
    std::vector<std::uint8_t> free_flag_;
    std::vector<std::uint8_t> small_reached_;
    std::vector<std::uint8_t> small_free_flag_;
    EdgeCount total_cells_ = 0;
    EdgeCount cal_live_ = 0;
};

AuditReport Auditor::run(const GraphTinker& graph) {
    return Run(graph).run();
}

std::uint64_t Auditor::arena_digest(const GraphTinker& graph) {
    std::uint64_t h = 0;
    const auto feed = [&h](std::uint64_t v) {
        h = mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
    };
    const EdgeblockArray& eba = graph.eba_;
    const auto feed_block = [&](std::uint32_t block) {
        const auto view = eba.view(block);
        for (std::uint32_t i = 0; i < view.ncells; ++i) {
            const EdgeCell& c = view.cells[i];
            feed(c.dst);
            feed(c.weight);
            feed(c.cal_pos);
            feed(c.probe);
            feed(static_cast<std::uint64_t>(c.state));
        }
        for (std::uint32_t s = 0; s < view.nchildren; ++s) {
            feed(view.children[s]);
        }
        feed(*view.occupied);
        for (std::uint32_t w = 0; w < EdgeblockArray::words(view); ++w) {
            feed(view.masks[w]);
            feed(view.tombs[w]);
        }
    };
    feed(eba.block_count_);
    for (const std::uint32_t b : eba.free_blocks_) {
        feed(b);
    }
    for (std::uint32_t block = 0; block < eba.block_count_; ++block) {
        feed_block(block);
    }
    feed(eba.small_count_);
    for (const std::uint32_t h : eba.small_free_) {
        feed(h);
    }
    for (std::uint32_t i = 0; i < eba.small_count_; ++i) {
        feed_block(i | EdgeblockArray::kSmallTag);
    }
    const CoarseAdjacencyList& cal = graph.cal_;
    feed(cal.block_count_);
    feed(cal.live_);
    feed(cal.used_);
    for (const std::uint32_t b : cal.free_) {
        feed(b);
    }
    for (const auto& group : cal.groups_) {
        feed(group.head);
        feed(group.tail);
        feed(group.blocks);
    }
    for (std::uint32_t block = 0; block < cal.block_count_; ++block) {
        const auto& meta = cal.meta(block);
        feed(meta.next);
        feed(meta.prev);
        feed(meta.group);
        feed(meta.used);
        const auto* slots = cal.slots(block);
        for (std::uint32_t i = 0; i < cal.block_edges_; ++i) {
            feed(slots[i].src);
            feed(slots[i].dst);
            feed(slots[i].weight);
            feed(slots[i].owner.block);
            feed(slots[i].owner.slot);
        }
    }
    return h;
}

AuditReport GraphTinker::audit() const { return Auditor::run(*this); }

std::string GraphTinker::validate() const {
    const AuditReport report = audit();
    if (report.ok()) {
        return {};
    }
    return report.violations.front().to_string();
}

// ---- test-only corruption hooks ----------------------------------------

EdgeCell* CorruptionInjector::locate_cell(GraphTinker& graph, VertexId src,
                                          VertexId dst) {
    const auto dense = graph.dense_of(src);
    if (!dense) {
        return nullptr;
    }
    const auto ref = graph.eba_.find_ref(graph.top_[*dense], dst);
    if (!ref) {
        return nullptr;
    }
    return &graph.eba_.cell(ref->block, ref->slot);
}

bool CorruptionInjector::break_cal_pointer(GraphTinker& graph, VertexId src,
                                           VertexId dst) {
    EdgeCell* cell = locate_cell(graph, src, dst);
    if (cell == nullptr || cell->cal_pos == kNoCalPos) {
        return false;
    }
    cell->cal_pos = kNoCalPos;
    return true;
}

bool CorruptionInjector::corrupt_probe(GraphTinker& graph, VertexId src,
                                       VertexId dst) {
    EdgeCell* cell = locate_cell(graph, src, dst);
    if (cell == nullptr) {
        return false;
    }
    cell->probe = static_cast<std::uint16_t>(cell->probe ^ 1U);
    return true;
}

std::uint32_t CorruptionInjector::full_top_of(const GraphTinker& graph,
                                              VertexId src) {
    const auto dense = graph.dense_of(src);
    if (!dense) {
        return EdgeblockArray::kNoBlock;
    }
    const std::uint32_t top = graph.top_[*dense];
    return EdgeblockArray::is_small(top) ? EdgeblockArray::kNoBlock : top;
}

bool CorruptionInjector::orphan_child(GraphTinker& graph, VertexId src) {
    const std::uint32_t top = full_top_of(graph, src);
    if (top == EdgeblockArray::kNoBlock) {
        return false;
    }
    EdgeblockArray& eba = graph.eba_;
    for (std::uint32_t s = 0; s < eba.spb_; ++s) {
        std::uint32_t& down = eba.child(top, s);
        if (down != EdgeblockArray::kNoBlock) {
            down = EdgeblockArray::kNoBlock;
            return true;
        }
    }
    return false;
}

bool CorruptionInjector::link_cycle(GraphTinker& graph, VertexId src) {
    const std::uint32_t top = full_top_of(graph, src);
    if (top == EdgeblockArray::kNoBlock) {
        return false;
    }
    EdgeblockArray& eba = graph.eba_;
    for (std::uint32_t s = 0; s < eba.spb_; ++s) {
        std::uint32_t& down = eba.child(top, s);
        if (down == EdgeblockArray::kNoBlock) {
            down = top;  // the top block becomes its own descendant
            return true;
        }
    }
    return false;
}

bool CorruptionInjector::hang_small_child(GraphTinker& graph, VertexId src) {
    const std::uint32_t top = full_top_of(graph, src);
    if (top == EdgeblockArray::kNoBlock) {
        return false;
    }
    EdgeblockArray& eba = graph.eba_;
    for (std::uint32_t s = 0; s < eba.spb_; ++s) {
        std::uint32_t& down = eba.child(top, s);
        if (down == EdgeblockArray::kNoBlock) {
            down = eba.allocate_small();  // empty, so no accounting drift
            return true;
        }
    }
    return false;
}

bool CorruptionInjector::corrupt_degree(GraphTinker& graph, VertexId src) {
    const auto dense = graph.dense_of(src);
    if (!dense || *dense >= graph.props_.size()) {
        return false;
    }
    ++graph.props_[*dense].degree;
    return true;
}

bool CorruptionInjector::corrupt_sgh(GraphTinker& graph) {
    auto& table = graph.sgh_.dense_to_raw_;
    if (table.size() < 2) {
        return false;
    }
    std::swap(table[0], table[1]);
    return true;
}

bool CorruptionInjector::corrupt_chain_count(GraphTinker& graph) {
    auto& groups = graph.cal_.groups_;
    if (groups.empty()) {
        return false;
    }
    ++groups.front().blocks;
    return true;
}

bool CorruptionInjector::vanish_cell(GraphTinker& graph, VertexId src,
                                     VertexId dst) {
    EdgeCell* cell = locate_cell(graph, src, dst);
    if (cell == nullptr) {
        return false;
    }
    *cell = EdgeCell{};  // blanked without touching counters or masks
    return true;
}

}  // namespace gt::core
