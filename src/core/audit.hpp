// Deep structural auditor for GraphTinker (correctness-tooling layer).
//
// GraphTinker's performance story rests on invariants that ordinary unit
// tests cannot see from the public API: Robin Hood probe-distance bookkeeping
// inside every subblock, the Tree-Based Hashing parent/child links that make
// probe cost O(log degree), the per-edge CAL back-pointers that keep the
// compact secondary copy in sync in O(1), and the SGH dense-index bijection
// that keeps scans proportional to non-empty vertices. The auditor walks the
// raw arenas of all four components and cross-checks every one of those
// invariants, returning a *typed* report of violations rather than a single
// string — so tests can assert that a deliberately seeded corruption is
// detected as exactly the violation class it belongs to.
//
// Invariant classes checked (one AuditCheck per class):
//   TBH structure     every reachable block handle is a live arena block,
//                     reached through exactly one parent link (no cycles, no
//                     shared children), and free-listed blocks are detached
//   TBH orphans       every allocated, non-free block is reachable from some
//                     vertex's top-parent handle (no leaked subtrees)
//   small tier        small blocks appear only as roots, never hold more
//                     than one subblock of cells, and are scrubbed when
//                     free-listed
//   occupancy         per-block occupied counters and the occupancy bitmasks
//                     agree with the cell states they summarize
//   RHH placement     every occupied cell sits in the subblock its (dst,
//                     level) hash selects, and its stored probe distance is
//                     exactly its displacement from the Robin Hood home slot
//   RHH probe path    in delete-only (RHH) mode no EMPTY cell interrupts the
//                     probe window before a stored edge — the invariant that
//                     makes the FIND early-exit sound
//   FIND              every stored cell is reachable through the public FIND
//                     walk (end-to-end retrieval check)
//   CAL forward       every occupied edge-cell points at a live CAL slot
//                     carrying the same (src, dst, weight) and owner
//   CAL reverse       every live CAL slot's owner back-pointer leads to the
//                     edge-cell that points back at it (the round-trip)
//   CAL chains        group chains are well-linked doubly linked lists and
//                     chained + free blocks account for the whole pool
//   SGH bijection     dense->raw->dense round-trips for every dense id, and
//                     table sizes agree (the mapping is a bijection)
//   degree accounting per-vertex degree counters equal the live cells stored
//                     under the vertex's tree
//   edge accounting   the global edge counter, the per-vertex sum and the
//                     CAL live count all agree
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace gt::core {

class GraphTinker;
struct EdgeCell;

/// Invariant class an AuditViolation belongs to.
enum class AuditCheck : std::uint8_t {
    TbhStructure,      // bad handle, cycle, shared child, free-list overlap
    TbhOrphan,         // allocated block unreachable from every top parent
    SmallTier,         // small block below a root, overfull, or dirty free
    Occupancy,         // occupied counter / occupancy bitmask drift
    RhhPlacement,      // cell outside its hashed subblock or wrong probe
    RhhProbePath,      // EMPTY cell inside a live cell's probe window
    FindReachability,  // stored cell not retrievable via FIND
    CalForward,        // edge-cell -> CAL slot mismatch
    CalReverse,        // CAL slot -> edge-cell back-pointer mismatch
    CalChain,          // group chain linkage broken or pool unaccounted
    SghBijection,      // dense<->raw mapping fails to round-trip
    DegreeAccounting,  // per-vertex degree counter drift
    EdgeAccounting,    // global edge counters disagree
};

[[nodiscard]] std::string_view to_string(AuditCheck check) noexcept;

/// One detected invariant violation.
struct AuditViolation {
    AuditCheck check;
    VertexId src = kInvalidVertex;  // raw source id when applicable
    VertexId dst = kInvalidVertex;  // destination id when applicable
    std::string detail;             // human-readable specifics

    [[nodiscard]] std::string to_string() const;
};

/// Result of a full structural audit.
struct AuditReport {
    /// Reporting stops (and `truncated` is set) after this many violations;
    /// a corrupted structure tends to trip thousands of downstream checks.
    static constexpr std::size_t kMaxViolations = 64;

    std::vector<AuditViolation> violations;
    bool truncated = false;

    // Coverage counters: what the audit actually inspected.
    std::size_t vertices_audited = 0;
    std::size_t blocks_audited = 0;
    std::size_t cells_audited = 0;
    std::size_t cal_slots_audited = 0;

    // Independent census from the walk itself — the ground truth the
    // telemetry parity test compares gt.obs gauges against. Counted cell by
    // cell during the sweep, never read from the structures' own counters.
    EdgeCount live_edges = 0;    // occupied cells across reachable trees
    EdgeCount tombstones = 0;    // tombstone cells across reachable trees
    std::size_t cal_blocks = 0;  // CAL blocks reached via group chains
    std::size_t small_blocks = 0;  // small roots reached via top handles

    [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
    /// True when the report contains at least one violation of `check`.
    [[nodiscard]] bool has(AuditCheck check) const noexcept;
    /// Multi-line human-readable rendering (empty string when ok()).
    [[nodiscard]] std::string to_string() const;
};

/// Runs the full invariant sweep over a GraphTinker instance. Read-only:
/// safe to run concurrently with other readers of the same instance.
class Auditor {
public:
    [[nodiscard]] static AuditReport run(const GraphTinker& graph);

    /// Content digest of the raw arenas: every handed-out edgeblock of
    /// either tier (cells field by field, child links, occupied count,
    /// masks) and CAL block (slots, chain metadata), all free lists and the
    /// CAL group table.
    /// Equal digests mean the arenas hold the same contents at the same
    /// block indices — tests use it to show a failed operation left the
    /// storage untouched, which an edge-set comparison cannot.
    [[nodiscard]] static std::uint64_t arena_digest(const GraphTinker& graph);

private:
    class Run;  // stateful single-run walk (audit.cpp)
};

/// TEST-ONLY: deliberately corrupts a live GraphTinker so the test suite can
/// prove audit() detects each violation class. Every injector returns true
/// when the corruption was applied (false when the targeted structure does
/// not exist, e.g. no overflow child to orphan). Never use outside tests —
/// the corrupted instance is unusable afterwards.
class CorruptionInjector {
public:
    /// Clears the CAL pointer of the (src, dst) edge-cell -> CalForward (and
    /// the stranded CAL slot additionally trips CalReverse).
    static bool break_cal_pointer(GraphTinker& graph, VertexId src,
                                  VertexId dst);
    /// Rewrites the stored Robin Hood probe distance of (src, dst)
    /// -> RhhPlacement.
    static bool corrupt_probe(GraphTinker& graph, VertexId src, VertexId dst);
    /// Detaches the first parent->child edgeblock link under `src`'s tree,
    /// stranding the child subtree -> TbhOrphan (+ accounting drift).
    static bool orphan_child(GraphTinker& graph, VertexId src);
    /// Points an unused child slot of `src`'s top block back at the top
    /// block itself, creating a cycle -> TbhStructure.
    static bool link_cycle(GraphTinker& graph, VertexId src);
    /// Bumps the stored degree counter of `src` -> DegreeAccounting.
    static bool corrupt_degree(GraphTinker& graph, VertexId src);
    /// Swaps the first two dense->raw entries of the SGH without updating
    /// the forward map -> SghBijection.
    static bool corrupt_sgh(GraphTinker& graph);
    /// Blanks an occupied cell without updating the occupancy bookkeeping
    /// -> Occupancy (+ accounting drift).
    static bool vanish_cell(GraphTinker& graph, VertexId src, VertexId dst);
    /// Bumps the first CAL group's chain-length count -> CalChain.
    static bool corrupt_chain_count(GraphTinker& graph);
    /// Hangs a fresh small block under an unused child slot of `src`'s
    /// (full) top block, so a small block sits below a root -> SmallTier.
    static bool hang_small_child(GraphTinker& graph, VertexId src);

private:
    /// The full top block of `src` (its child slots are what the TBH
    /// injectors rewrite); kNoBlock when `src` has no tree or a small root.
    static std::uint32_t full_top_of(const GraphTinker& graph, VertexId src);
    /// Locates the mutable edge-cell of (src, dst); nullptr when absent.
    static EdgeCell* locate_cell(GraphTinker& graph, VertexId src,
                                 VertexId dst);
};

}  // namespace gt::core
