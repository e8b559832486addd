// The EdgeblockArray: Robin Hood + Tree-Based hashed edge storage
// (paper §III.B).
//
// Geometry: an *edgeblock* is PAGEWIDTH edge-cells; it is divided into
// Subblocks (branch-out granularity, default 8 cells) which are divided into
// Workblocks (retrieval granularity, default 4 cells). Every vertex that
// owns edges has a *top-parent* edgeblock; when a subblock congests, the
// Tree-Based Hashing scheme "branches out" a child edgeblock in the overflow
// pool and the insert continues in the child at the next hash level. Probe
// distance when following a vertex's edges is therefore O(log degree) rather
// than the O(degree) of adjacency-list chains.
//
// Within a subblock, insertion runs the Robin Hood Hashing algorithm: the
// destination id hashes to a home cell; on collision the probe distances of
// the incoming and resident edges compete and the "richer" edge is displaced
// and continues probing (wrapping within the subblock). In delete-and-
// compact mode RHH swapping is disabled (paper §III.C) and deletion holes
// are refilled by pulling the deepest descendant edge on the same hash path
// back up, freeing emptied edgeblocks.
//
// Blocks live in one pooled arena: callers (GraphTinker) hold a top-block
// handle per dense source vertex. The structure never stores source ids —
// ownership is implied by the handle, exactly as the paper's main-region
// indexing implies it. The arena is a util/chunked_arena.hpp store: chunks
// of doubling size, 64-byte aligned, so growth appends a chunk instead of
// copying the pool, blocks never move once handed out, and a default 8-cell
// subblock spans exactly two cache lines.
//
// Small-vertex tier (a departure from the paper's fixed top-parent block):
// a vertex's root starts as one *small block* — a single subblock-sized
// window with its own occupancy/tombstone masks and live count, and no
// children — held in a second arena. Small handles carry kSmallTag, so a
// top handle or CAL owner CellRef names either tier. When an absent edge
// finds the small window full, the vertex is *promoted*: a full block takes
// the residents and the new edge through the regular cascade and the small
// block is freed. A tombstone purge that leaves at most one subblock of
// live edges *demotes* the tree back to a small root. Only a root can be
// small. With pagewidth == subblock the tier is off: a small block would be
// a full block.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/cal.hpp"
#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "util/chunked_arena.hpp"
#include "util/hash.hpp"
#include "util/types.hpp"
#include "util/visit.hpp"

namespace gt::core {

/// Typed obs handles the EdgeblockArray records through — resolved once at
/// construction from the owning registry, so hot paths never touch the
/// registry's name map. Counter names: "eba.<field>"; the two histograms
/// ("eba.find_probe_cells", "eba.insert_probe_cells") sample per-operation
/// probe distance in cells.
struct EbaMetrics {
    obs::Counter* cells_probed = nullptr;
    obs::Counter* workblocks_fetched = nullptr;
    obs::Counter* rhh_swaps = nullptr;
    obs::Counter* branch_outs = nullptr;
    obs::Counter* compaction_moves = nullptr;
    obs::Counter* blocks_freed = nullptr;
    obs::Counter* trees_rebuilt = nullptr;
    obs::Counter* tombstones_purged = nullptr;
    obs::Counter* unbranch_moves = nullptr;
    obs::Counter* promotions = nullptr;
    obs::Counter* demotions = nullptr;
    obs::Histogram* find_probe_cells = nullptr;
    obs::Histogram* insert_probe_cells = nullptr;
};

enum class CellState : std::uint8_t { Empty, Occupied, Tombstone };

/// The most primitive unit of the EdgeblockArray (one edge-cell).
struct EdgeCell {
    VertexId dst = kInvalidVertex;
    Weight weight = 0;
    std::uint32_t cal_pos = kNoCalPos;
    std::uint16_t probe = 0;  // Robin Hood displacement from the home cell
    CellState state = CellState::Empty;
};

class EdgeblockArray {
public:
    static constexpr std::uint32_t kNoBlock = 0xffffffffU;
    /// Set on small-tier handles (kNoBlock excepted): the low bits index
    /// the small arena. Full blocks therefore number below kSmallTag.
    static constexpr std::uint32_t kSmallTag = 0x80000000U;
    [[nodiscard]] static constexpr bool is_small(std::uint32_t handle) noexcept {
        return (handle & kSmallTag) != 0 && handle != kNoBlock;
    }

    /// `cal` may be null (CAL feature disabled); when set, the array keeps
    /// CAL-pointers consistent whenever cells move. `registry` names where
    /// telemetry lands; null constructs a private registry (standalone /
    /// test use) so recording sites never branch on its presence.
    EdgeblockArray(const Config& config, CoarseAdjacencyList* cal,
                   obs::Registry* registry = nullptr);

    struct InsertResult {
        bool inserted = false;  // false: edge existed, weight updated
        std::uint32_t existing_cal_pos = kNoCalPos;  // when !inserted
    };

    /// FIND mode then INSERT mode (paper §III.C). `top` is the vertex's
    /// top-parent block handle; kNoBlock allocates one.
    ///
    /// `new_cal_pos` is the CAL position of the edge's freshly inserted CAL
    /// copy (kNoCalPos when CAL is off). The new edge *carries* this pointer
    /// through the Robin Hood cascade, so the CAL owner backreference is
    /// re-bound at every displacement — including displacements of the new
    /// edge itself later in the same cascade.
    InsertResult insert(std::uint32_t& top, VertexId dst, Weight weight,
                        std::uint32_t new_cal_pos = kNoCalPos);

    /// INSERT mode only — precondition: (…, dst) is absent under `top`
    /// (i.e. find_ref returned nothing). Used by callers that already ran
    /// the FIND stage themselves.
    /// `start_block`/`start_level` (optional) resume the cascade below the
    /// tree's top: probe_insert proves that every level above its Absent
    /// resume point is a full window with no tombstone and no Robin Hood
    /// swap opportunity, so the cascade would walk through them verbatim —
    /// starting at the resume point skips that re-walk.
    void insert_new(std::uint32_t& top, VertexId dst, Weight weight,
                    std::uint32_t new_cal_pos,
                    std::uint32_t start_block = kNoBlock,
                    std::uint32_t start_level = 0);

    /// Fused FIND/INSERT probe (the hot path). One walk of the hash path
    /// that either updates an existing edge in place (Duplicate), proves the
    /// key absent *and* pins a directly writable cell (PlaceAt — the first
    /// EMPTY on the probe path with no earlier reusable slot or Robin Hood
    /// swap point, which by the delete-only invariant also proves nothing
    /// lives deeper), or proves it absent but needs the full INSERT-mode
    /// cascade (Absent). Callers follow up with place_at or insert_new.
    struct ProbeResult {
        enum class Kind : std::uint8_t { Duplicate, PlaceAt, Absent };
        Kind kind = Kind::Absent;
        std::uint32_t cal_pos = kNoCalPos;  // Duplicate: the edge's CAL copy
        CellRef where{};                    // PlaceAt: the free cell
        std::uint16_t probe = 0;            // PlaceAt: its displacement
        // Absent: where the INSERT cascade must begin — the first level with
        // a tombstone or Robin Hood swap point (or the deepest block when
        // the walk fell off the tree). Levels above are full windows the
        // cascade would cross without effect, so insert_new skips them.
        std::uint32_t resume_block = kNoBlock;
        std::uint32_t resume_level = 0;
        // Duplicate: the weight the cell held before this probe overwrote
        // it — the transactional batch undo journal restores it on rollback.
        // Kept last: the Absent returns aggregate-initialize through
        // resume_level positionally.
        Weight prev_weight = 0;
    };
    ProbeResult probe_insert(std::uint32_t& top, VertexId dst, Weight weight);

    /// Growth pre-flight for an insert under `top`: guarantees that every
    /// block the insert can allocate is available without an arena having
    /// to grow, so the probe/cascade that follows cannot hit an allocation
    /// failure after it has started mutating cells. A fresh vertex needs
    /// one root; a full tree needs one block (a branch-out's fresh child
    /// absorbs the carried edge immediately); a small root whose window has
    /// no EMPTY cell may promote, which needs a full block plus the one
    /// child its re-placed edges can collide into, and a free-list slot for
    /// the small block it gives up.
    /// All throwing work (the "eba.grow" fail point and the chunk
    /// allocation) happens here, before any structural mutation, which is
    /// what makes a mid-batch allocation failure cleanly roll-backable.
    void ensure_block_available(std::uint32_t top);

    /// Erase-path counterpart: keeps both free lists able to absorb every
    /// block that exists, so the (possibly several) frees a compacting
    /// erase performs can never throw mid-mutation.
    void ensure_erase_headroom() {
        reserve_free_list(free_blocks_, block_count_);
        reserve_free_list(small_free_, small_count_);
    }

    /// Writes a new edge into the cell pinned by probe_insert (PlaceAt).
    void place_at(CellRef ref, VertexId dst, Weight weight,
                  std::uint16_t probe, std::uint32_t cal_pos) {
        const BlockView b = view(ref.block);
        b.cells[ref.slot] =
            EdgeCell{dst, weight, cal_pos, probe, CellState::Occupied};
        ++*b.occupied;
        set_bit(b.masks, ref.slot, true);
        set_bit(b.tombs, ref.slot, false);
    }

    /// Software-prefetches the state a FIND/INSERT probe of (`top`, `dst`)
    /// will touch first: the level-0 subblock's cells and the block's
    /// occupancy masks. The batched ingest path calls this for the *next*
    /// source run while the current one drains, hiding the arena miss.
    void prefetch_probe(std::uint32_t top, VertexId dst) const noexcept;

    /// Second prefetch stage: once prefetch_probe's lines have landed, the
    /// level-0 masks are cheap to read, so this peeks at them — if the
    /// level-0 subblock is full (the probe will descend) it prefetches the
    /// level-1 child's window too. Call it at a *shorter* lookahead distance
    /// than prefetch_probe so the stage-1 lines have arrived.
    void prefetch_probe_child(std::uint32_t top, VertexId dst) const noexcept;

    /// FIND mode, returning the cell location instead of the weight.
    [[nodiscard]] std::optional<CellRef> find_ref(std::uint32_t top,
                                                  VertexId dst) const {
        if (const auto loc = locate(top, dst)) {
            return CellRef{loc->block, loc->slot};
        }
        return std::nullopt;
    }

    [[nodiscard]] const EdgeCell& cell_at(CellRef ref) const {
        return cell(ref.block, ref.slot);
    }
    void set_weight(CellRef ref, Weight weight) {
        cell(ref.block, ref.slot).weight = weight;
    }

    struct EraseResult {
        bool found = false;
        std::uint32_t cal_pos = kNoCalPos;  // CAL copy to invalidate
        Weight weight = 0;  // the erased edge's weight (undo-journal redo)
    };

    /// Deletes (…, dst) under the configured deletion mode. In
    /// delete-and-compact mode, `top` may be reset to kNoBlock when the
    /// vertex's whole subtree empties.
    EraseResult erase(std::uint32_t& top, VertexId dst);

    // ---- maintenance primitives (policy lives in core/maintenance.hpp) ---

    /// Cell census of the tree under `top` (drives the purge policy).
    struct TreeLoad {
        std::uint32_t live = 0;
        std::uint32_t tombstones = 0;
        std::uint32_t blocks = 0;
    };
    [[nodiscard]] TreeLoad tree_load(std::uint32_t top) const;

    /// Tombstone purge: collects the live cells under `top`, frees the whole
    /// subtree and reinserts them into a fresh tree. Tombstones vanish, the
    /// Robin Hood placement returns to fresh-build probe distance, depth
    /// shrinks, and surplus blocks land on the free list. CAL pointers of
    /// moved cells are re-bound through the usual insert path. Returns the
    /// number of live cells reinserted; `top` is rewritten (kNoBlock when
    /// the tree held no live cells).
    std::uint32_t rebuild_tree(std::uint32_t& top);

    /// TBH un-branching: bottom-up, merges every child subtree whose live
    /// cells all fit into the free slots of the parent subblock window that
    /// branched to it, then frees the child's blocks. Any edge in the
    /// subtree hashes to that window at the parent's level, so the pull-up
    /// is placement-legal. Only valid when Robin Hood swapping is off
    /// (compact-delete or no-RHH mode): moved edges land out of probe order,
    /// which the full-window FIND tolerates but the RHH early-exit does not.
    /// Returns the number of edges pulled up; no-op (returns 0) in RHH mode.
    std::uint32_t unbranch(std::uint32_t& top);

    /// FIND mode only.
    [[nodiscard]] std::optional<Weight> find(std::uint32_t top,
                                             VertexId dst) const;

    /// Rewrites a cell's CAL pointer (used right after a CAL insert, and by
    /// CAL compaction when a CAL edge moves).
    void set_cal_pos(CellRef ref, std::uint32_t pos) {
        cell(ref.block, ref.slot).cal_pos = pos;
    }

    /// Visits every live out-edge under `top`: fn(dst, weight), where fn may
    /// return void (visit everything) or bool (false stops the traversal).
    /// Returns false when iteration was cut short. Iteration is driven by
    /// per-block occupancy bitmasks, so cost is proportional to live edges
    /// plus blocks — not to the arena's slack. Safe to call from concurrent
    /// readers and from inside another visit: the thread-local traversal
    /// scratch is segmented per nesting level.
    template <typename Fn>
    bool visit_edges_of(std::uint32_t top, Fn&& fn) const {
        if (top == kNoBlock) {
            return true;
        }
        static thread_local std::vector<std::uint32_t> visit_stack_;
        const std::size_t sbase = visit_stack_.size();
        visit_stack_.push_back(top);
        while (visit_stack_.size() > sbase) {
            const BlockView b = view(visit_stack_.back());
            visit_stack_.pop_back();
            for (std::uint32_t w = 0; w < words(b); ++w) {
                std::uint64_t bits = b.masks[w];
                while (bits != 0) {
                    const auto i = static_cast<std::uint32_t>(
                        std::countr_zero(bits));
                    bits &= bits - 1;
                    const EdgeCell& c = b.cells[w * 64 + i];
                    if (!visit_step(fn, c.dst, c.weight)) {
                        visit_stack_.resize(sbase);
                        return false;
                    }
                }
            }
            for (std::uint32_t s = 0; s < b.nchildren; ++s) {
                if (b.children[s] != kNoBlock) {
                    visit_stack_.push_back(b.children[s]);
                }
            }
        }
        return true;
    }

    /// Visits every live cell under `top` with its location:
    /// fn(CellRef, const EdgeCell&). Diagnostics/validation hook.
    template <typename Fn>
    void for_each_cell_of(std::uint32_t top, Fn&& fn) const {
        if (top == kNoBlock) {
            return;
        }
        std::vector<std::uint32_t> stack{top};
        while (!stack.empty()) {
            const std::uint32_t block = stack.back();
            stack.pop_back();
            const BlockView b = view(block);
            for (std::uint32_t i = 0; i < b.ncells; ++i) {
                const EdgeCell& c = b.cells[i];
                if (c.state == CellState::Occupied) {
                    fn(CellRef{block, i}, c);
                }
            }
            for (std::uint32_t s = 0; s < b.nchildren; ++s) {
                if (b.children[s] != kNoBlock) {
                    stack.push_back(b.children[s]);
                }
            }
        }
    }

    // ---- diagnostics / test hooks -------------------------------------

    /// Full edgeblocks in use (the small tier is counted separately).
    [[nodiscard]] std::size_t blocks_in_use() const noexcept {
        return block_count_ - free_blocks_.size();
    }
    [[nodiscard]] std::size_t blocks_allocated() const noexcept {
        return block_count_;
    }
    [[nodiscard]] std::size_t small_blocks_in_use() const noexcept {
        return small_count_ - small_free_.size();
    }
    [[nodiscard]] std::size_t small_blocks_allocated() const noexcept {
        return small_count_;
    }
    /// Bytes per full block: cells + child handles + occupancy and
    /// tombstone masks + the occupied counter.
    [[nodiscard]] std::size_t full_block_bytes() const noexcept {
        return static_cast<std::size_t>(pagewidth_) * sizeof(EdgeCell) +
               spb_ * sizeof(std::uint32_t) +
               2 * words_per_block_ * sizeof(std::uint64_t) +
               sizeof(std::uint32_t);
    }
    /// Bytes per small block: one subblock of cells plus a header of its
    /// two masks and its occupied counter (a word of its own); no child
    /// handles.
    [[nodiscard]] std::size_t small_block_bytes() const noexcept {
        return static_cast<std::size_t>(subblock_) * sizeof(EdgeCell) +
               (2 * small_words_ + 1) * sizeof(std::uint64_t);
    }
    /// Bytes held by in-use blocks of both tiers. Free-listed blocks are
    /// excluded — this is the footprint reclamation shrinks, not the
    /// arenas' high-water mark.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return blocks_in_use() * full_block_bytes() +
               small_blocks_in_use() * small_block_bytes();
    }
    /// Bytes of arena storage actually allocated in both tiers (the
    /// capacity high-water mark): in-use blocks plus free-listed blocks
    /// plus growth slack.
    [[nodiscard]] std::size_t memory_capacity_bytes() const noexcept {
        return static_cast<std::size_t>(arena_.capacity()) *
                   full_block_bytes() +
               static_cast<std::size_t>(small_.capacity()) *
                   small_block_bytes();
    }
    /// The registry this array records into (owned fallback when none was
    /// supplied at construction).
    [[nodiscard]] obs::Registry& registry() const noexcept {
        return *registry_;
    }
    /// Tombstone cells across both arenas (popcount of the tombstone
    /// masks). Free-listed blocks are scrubbed on free, so they contribute
    /// zero — this is the live tombstone census the auditor cross-checks.
    [[nodiscard]] std::uint64_t tombstones_in_arena() const noexcept;
    /// Opens / closes a thread-local stats-deferral scope: while open, this
    /// array's probe counters accumulate in plain thread-local integers and
    /// land in the shared relaxed atomics once at close. Batched ingest
    /// wraps its apply loop in one scope so the counter RMWs are paid per
    /// batch instead of per edge (2–4 atomic adds per insert otherwise).
    /// Scopes nest; concurrent readers on other threads simply observe the
    /// counters a batch late, which relaxed counters already permit.
    void begin_stats_batch() const noexcept;
    void end_stats_batch() const noexcept;
    /// RAII wrapper for begin/end_stats_batch.
    class [[nodiscard]] StatsBatchScope {
    public:
        explicit StatsBatchScope(const EdgeblockArray& eba) noexcept
            : eba_(eba) {
            eba_.begin_stats_batch();
        }
        ~StatsBatchScope() { eba_.end_stats_batch(); }
        StatsBatchScope(const StatsBatchScope&) = delete;
        StatsBatchScope& operator=(const StatsBatchScope&) = delete;

    private:
        const EdgeblockArray& eba_;
    };
    /// Depth (generations) of the block tree under `top`; 0 for kNoBlock.
    [[nodiscard]] std::uint32_t subtree_depth(std::uint32_t top) const;
    /// Live cells in one block (either tier).
    [[nodiscard]] std::uint32_t occupied_in(std::uint32_t block) const {
        return *view(block).occupied;
    }
    [[nodiscard]] std::uint32_t pagewidth() const noexcept { return pagewidth_; }

private:
    // Arena planes: the cells, then the per-block metadata (child handle
    // per subblock, occupied count, occupancy and tombstone mask words).
    enum Plane : std::size_t { kCells, kChildren, kOccupied, kMasks, kTombs };
    using Arena = ChunkedArena<EdgeCell, std::uint32_t, std::uint32_t,
                               std::uint64_t, std::uint64_t>;
    // Small-tier planes: one subblock of cells, then a packed header —
    // occupancy mask words, tombstone mask words and the occupied count in
    // one run of words, so a probe touches one header line instead of the
    // full tier's three metadata planes.
    enum SmallPlane : std::size_t { kSCells, kSHeader };
    using SmallArena = ChunkedArena<EdgeCell, std::uint64_t>;
    /// The first chunk's size (either tier) when no reserve_edges sizing is
    /// given.
    static constexpr std::uint32_t kFirstChunkBlocks = 64;

    /// One block's planes and geometry, resolved once; the hot paths resolve
    /// a block per probe level and index the planes directly. The pointers
    /// are mutable even from const members, which only read through them.
    /// A small root reads as a one-subblock block whose only child slot is
    /// the shared, always-empty no_children_, so a probe walk ends there
    /// without asking which tier it is in.
    struct BlockView {
        EdgeCell* cells;
        std::uint32_t* children;
        std::uint32_t* occupied;
        std::uint64_t* masks;
        std::uint64_t* tombs;
        std::uint32_t ncells;     // pagewidth_, or subblock_ when small
        std::uint32_t nchildren;  // spb_, or 0 when small
        std::uint32_t sb_mask;    // spb_ - 1, or 0 when small
    };
    /// Either tier, by handle tag.
    [[nodiscard]] BlockView view(std::uint32_t block) const noexcept {
        return is_small(block) ? small_view(block) : full_view(block);
    }
    /// A full block: every level below a root, which is never small.
    [[nodiscard]] BlockView full_view(std::uint32_t block) const noexcept {
        const Arena::Pos pos = arena_.locate(block);
        return BlockView{arena_.at<kCells>(pos),    arena_.at<kChildren>(pos),
                         arena_.at<kOccupied>(pos), arena_.at<kMasks>(pos),
                         arena_.at<kTombs>(pos),    pagewidth_,
                         spb_,                      spb_ - 1};
    }
    [[nodiscard]] BlockView small_view(std::uint32_t handle) const noexcept {
        const SmallArena::Pos pos = small_.locate(handle & ~kSmallTag);
        std::uint64_t* header = small_.at<kSHeader>(pos);
        // The count lives alone in the header's last word and is only ever
        // accessed as a 32-bit counter.
        return BlockView{small_.at<kSCells>(pos),
                         &no_children_,
                         reinterpret_cast<std::uint32_t*>(
                             header + 2 * small_words_),
                         header,
                         header + small_words_,
                         subblock_,
                         0,
                         0};
    }
    [[nodiscard]] static std::uint32_t words(const BlockView& b) noexcept {
        return (b.ncells + 63) / 64;
    }
    /// Subblock `dst` hashes to at `level` within `b` (0 in a small root).
    [[nodiscard]] static std::uint32_t sb_in(const BlockView& b, VertexId dst,
                                             std::uint32_t level) noexcept {
        return static_cast<std::uint32_t>(level_hash(dst, level)) & b.sb_mask;
    }

    [[nodiscard]] EdgeCell& cell(std::uint32_t block, std::uint32_t slot) {
        return view(block).cells[slot];
    }
    [[nodiscard]] const EdgeCell& cell(std::uint32_t block,
                                       std::uint32_t slot) const {
        return view(block).cells[slot];
    }
    // Child links exist on full blocks only.
    [[nodiscard]] std::uint32_t& child(std::uint32_t block, std::uint32_t sb) {
        return arena_.at<kChildren>(block)[sb];
    }
    [[nodiscard]] std::uint32_t child(std::uint32_t block,
                                      std::uint32_t sb) const {
        return arena_.at<kChildren>(block)[sb];
    }

    /// Tree-Based Hashing: one mixed hash per (dst, level) supplies both the
    /// subblock index (low bits) and the Robin Hood home offset within the
    /// subblock (high bits) — the two are independent because subblocks per
    /// block never exceed 2^16.
    [[nodiscard]] std::uint32_t sb_of(VertexId dst,
                                      std::uint32_t level) const noexcept {
        return static_cast<std::uint32_t>(level_hash(dst, level)) & (spb_ - 1);
    }
    /// Robin Hood home offset of `dst` within its subblock at `level`.
    [[nodiscard]] std::uint32_t home_of(VertexId dst,
                                        std::uint32_t level) const noexcept {
        return static_cast<std::uint32_t>(level_hash(dst, level) >> 32) &
               (subblock_ - 1);
    }

    struct Located {
        std::uint32_t block;
        std::uint32_t sb;    // subblock index within the block
        std::uint32_t slot;  // cell index within the block
        std::uint32_t level;
    };
    [[nodiscard]] std::optional<Located> locate(std::uint32_t top,
                                                VertexId dst) const;

    std::uint32_t allocate_block();
    /// A small block's handle (kSmallTag set).
    std::uint32_t allocate_small();
    /// A fresh vertex's root: small when the tier is on, else full.
    std::uint32_t allocate_root() {
        return tiered_ ? allocate_small() : allocate_block();
    }
    /// Appends one chunk to the full (`grow_storage`) or small arena. May
    /// throw (std::bad_alloc, or std::length_error once block ids run
    /// out), in which case no arena state has changed.
    void grow_storage();
    void grow_small();
    /// Resets a block of either tier to the free state: EMPTY cells, no
    /// children, zero counts and masks.
    void clear_block(std::uint32_t block) noexcept;
    void free_block(std::uint32_t block);
    void free_small(std::uint32_t handle);
    /// True when the small root's window has no EMPTY cell. Only such a
    /// root can promote: no EMPTY cell precedes a resident on its probe
    /// path, so the cascade always reaches an EMPTY one when there is one.
    [[nodiscard]] bool window_full(std::uint32_t small) const noexcept;
    /// Replaces the small root `top` with a full one holding its residents
    /// plus `carry` (the edge that found the window full). Kept out of line
    /// and `carry` by value: inlined into insert_new, it pinned the
    /// cascade's floating edge to memory and slowed every insert by ~15%.
    [[gnu::noinline]] void promote(std::uint32_t& top, EdgeCell carry);
    /// Grows `list` (geometrically) until it can hold `count` entries, so
    /// pushes up to that size cannot throw.
    static void reserve_free_list(std::vector<std::uint32_t>& list,
                                  std::size_t count) {
        if (list.capacity() < count) {
            list.reserve(std::max(count, 2 * list.capacity()));
        }
    }
    void free_subtree(std::uint32_t block);
    /// Total live cells under `block`'s subtree.
    [[nodiscard]] std::uint32_t subtree_live(std::uint32_t block) const;
    /// Bottom-up un-branch of one block's children at tree level `level`.
    std::uint32_t unbranch_block(std::uint32_t block, std::uint32_t level);
    [[nodiscard]] bool subtree_is_empty(std::uint32_t block) const;
    /// Removes and returns the deepest edge in `block`'s subtree; false when
    /// the subtree holds no edges. Prunes empty descendants as it unwinds.
    bool extract_deepest(std::uint32_t block, EdgeCell& out);
    void refill_hole(std::uint32_t block, std::uint32_t sb, std::uint32_t slot,
                     std::uint32_t level);
    void prune_path(std::uint32_t top, VertexId dst);

    /// Descent paths deeper than this are never pruned (bounded stack use);
    /// real trees stay far shallower than 64 generations.
    static constexpr std::size_t kMaxPruneDepth = 64;

    std::uint32_t pagewidth_;
    std::uint32_t subblock_;
    std::uint32_t workblock_;
    std::uint32_t spb_;  // subblocks per block
    bool rhh_;
    bool compact_delete_;
    bool kernel_ok_;  // subblock fits one mask word: bit-parallel probing
    std::uint32_t words_per_block_;  // occupancy-mask words per block
    std::uint32_t small_words_;      // occupancy-mask words per small block
    bool tiered_;  // small roots exist (pagewidth_ > subblock_)
    CoarseAdjacencyList* cal_;

    static void set_bit(std::uint64_t* words, std::uint32_t slot,
                        bool on) noexcept {
        std::uint64_t& word = words[slot / 64];
        if (on) {
            word |= 1ULL << (slot % 64);
        } else {
            word &= ~(1ULL << (slot % 64));
        }
    }

    /// Occupancy/tombstone bits of the subblock starting at cell `sb_base`.
    /// Precondition: kernel_ok_ (the window never straddles a mask word,
    /// because subblock_ is a power of two <= 64 and sb_base is a multiple
    /// of it).
    struct WindowBits {
        std::uint64_t occ;
        std::uint64_t tomb;
    };
    [[nodiscard]] WindowBits window_bits(const BlockView& b,
                                         std::uint32_t sb_base) const {
        const std::uint32_t word = sb_base / 64;
        const std::uint32_t shift = sb_base % 64;
        const std::uint64_t wmask =
            subblock_ >= 64 ? ~0ULL : (1ULL << subblock_) - 1;
        return WindowBits{(b.masks[word] >> shift) & wmask,
                          (b.tombs[word] >> shift) & wmask};
    }

    Arena arena_;
    std::vector<std::uint32_t> free_blocks_;
    /// Blocks handed out so far (in use or free-listed).
    std::uint32_t block_count_ = 0;
    /// Blocks below this index were cleared ahead of use (the reserve_edges
    /// pre-size); allocate_block clears every fresh block at or above it.
    std::uint64_t cleared_ = 0;
    // The small tier, kept like the full one.
    SmallArena small_;
    std::vector<std::uint32_t> small_free_;  // handles, tag set
    std::uint32_t small_count_ = 0;
    std::uint64_t small_cleared_ = 0;
    /// The child row every small view points at: never written.
    inline static std::uint32_t no_children_ = kNoBlock;
    // Telemetry: counters/histograms live in the registry (relaxed atomics,
    // so const FIND paths may be shared by concurrent readers); metrics_
    // caches the typed handles resolved once at construction.
    obs::Registry* registry_ = nullptr;
    std::unique_ptr<obs::Registry> owned_registry_;
    EbaMetrics metrics_{};

    // The structural auditor (src/core/audit.hpp) reads the raw arena, and
    // its test-only corruption hook writes it.
    friend class Auditor;
    friend class CorruptionInjector;
};

}  // namespace gt::core
