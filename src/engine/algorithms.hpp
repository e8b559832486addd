// Edge-centric GAS algorithm plugins (paper §IV.A).
//
// An algorithm conforming to the engine's edge-centric paradigm defines
// `process_edge` (scatter a message from a source property across an edge),
// `reduce` (combine messages arriving at a vertex) and `apply` (commit the
// reduced message into the vertex property, reporting whether the vertex
// activates for the next iteration).
//
// BFS, SSSP and CC are *monotone* (properties only decrease), so after each
// batch update the engine seeds from the batch's edges alone (DESIGN.md
// §3.6), and incremental execution over an insert-only stream converges to
// the same fixed point as a from-scratch run — the property the engine's
// tests check against the static reference implementations. `reads_weight`
// tells the seeding pass whether process_edge depends on the edge weight.
// PageRank is not monotone and keeps a vertex-seeding rule, `seed_batch`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>

#include "util/types.hpp"

namespace gt::engine {

/// Breadth-first search: property = hop count from the root.
struct Bfs {
    using Property = std::uint32_t;
    static constexpr const char* name = "BFS";
    static constexpr bool reads_weight = false;
    static constexpr bool needs_root = true;

    [[nodiscard]] Property initial(VertexId) const { return kInfDistance; }

    [[nodiscard]] std::optional<Property> process_edge(VertexId /*src*/,
                                                       Property src_prop,
                                                       Weight) const {
        if (src_prop == kInfDistance) {
            return std::nullopt;  // unreached sources emit nothing
        }
        return src_prop + 1;
    }

    [[nodiscard]] Property reduce(Property a, Property b) const {
        return std::min(a, b);
    }

    /// Commits `incoming` when it improves `current`; true activates the
    /// vertex for the next iteration.
    bool apply(Property& current, Property incoming) const {
        if (incoming < current) {
            current = incoming;
            return true;
        }
        return false;
    }
};

/// Single-source shortest paths (non-negative weights): property = distance.
struct Sssp {
    using Property = std::uint32_t;
    static constexpr const char* name = "SSSP";
    static constexpr bool reads_weight = true;
    static constexpr bool needs_root = true;

    [[nodiscard]] Property initial(VertexId) const { return kInfDistance; }

    [[nodiscard]] std::optional<Property> process_edge(VertexId /*src*/,
                                                       Property src_prop,
                                                       Weight w) const {
        if (src_prop == kInfDistance) {
            return std::nullopt;
        }
        const std::uint64_t sum = static_cast<std::uint64_t>(src_prop) + w;
        // Saturate below infinity so reachable distances stay distinguishable.
        return static_cast<Property>(
            std::min<std::uint64_t>(sum, kInfDistance - 1));
    }

    [[nodiscard]] Property reduce(Property a, Property b) const {
        return std::min(a, b);
    }

    bool apply(Property& current, Property incoming) const {
        if (incoming < current) {
            current = incoming;
            return true;
        }
        return false;
    }
};

/// Connected components via min-label propagation: property = component
/// label (smallest vertex id in the component). Graphs must be symmetrized
/// at ingest for this to compute *weakly* connected components — the
/// analytics benches do so (DESIGN.md §3.6).
struct Cc {
    using Property = std::uint32_t;
    static constexpr const char* name = "CC";
    static constexpr bool reads_weight = false;
    static constexpr bool needs_root = false;

    [[nodiscard]] Property initial(VertexId v) const { return v; }

    [[nodiscard]] std::optional<Property> process_edge(VertexId /*src*/,
                                                       Property src_prop,
                                                       Weight) const {
        return src_prop;  // labels always propagate
    }

    [[nodiscard]] Property reduce(Property a, Property b) const {
        return std::min(a, b);
    }

    bool apply(Property& current, Property incoming) const {
        if (incoming < current) {
            current = incoming;
            return true;
        }
        return false;
    }
};

/// PageRank state: committed rank plus residual mass not yet propagated.
struct PageRankState {
    double rank = 0.0;
    double residual = 0.0;
};

/// Forward-push PageRank (extension beyond the paper's three algorithms).
///
/// Property fixed point: rank_v = (1-d) + d * Σ_{u->v} rank_u / deg(u).
/// Each iteration, every active vertex scatters d * residual / deg(u) along
/// its out-edges, then folds the pushed residual into its committed rank
/// (the engine's post-scatter hook). Vertices whose accumulated residual
/// exceeds `tolerance` reactivate; total residual decays geometrically, so
/// the run terminates with per-vertex error bounded by the residual left
/// behind. Dangling vertices absorb their residual (push-style semantics).
///
/// Unlike BFS/SSSP/CC this algorithm activates nearly every vertex each
/// iteration, so the paper's inference unit correctly converges on full
/// processing — the opposite end of the hybrid decision space. It is exact
/// for from-scratch runs; after structural updates, re-run from scratch
/// (the push invariant does not survive out-degree changes).
template <typename Store>
struct PageRank {
    using Property = PageRankState;
    static constexpr const char* name = "PageRank";
    static constexpr bool needs_root = false;

    const Store* store = nullptr;
    double damping = 0.85;
    double tolerance = 1e-9;

    [[nodiscard]] Property initial(VertexId) const {
        return PageRankState{0.0, 1.0 - damping};
    }

    [[nodiscard]] std::optional<Property> process_edge(VertexId src,
                                                       Property src_prop,
                                                       Weight) const {
        const std::uint32_t degree = store->degree(src);
        if (degree == 0 || src_prop.residual <= 0.0) {
            return std::nullopt;
        }
        return PageRankState{
            0.0, damping * src_prop.residual / static_cast<double>(degree)};
    }

    [[nodiscard]] Property reduce(Property a, Property b) const {
        return PageRankState{0.0, a.residual + b.residual};
    }

    /// Folds pushed residual into committed rank after the scatter phase.
    void on_scattered(Property& prop) const {
        prop.rank += prop.residual;
        prop.residual = 0.0;
    }

    bool apply(Property& current, Property incoming) const {
        current.residual += incoming.residual;
        return current.residual > tolerance;
    }

    /// Set-inconsistency rule after a batch (paper §IV.C): activate both
    /// endpoints. Approximate — out-degree changes break the push
    /// invariant, so exact ranks need run_from_scratch (see above).
    template <typename Activate>
    void seed_batch(std::span<const Edge> batch, Activate&& activate) const {
        for (const Edge& e : batch) {
            activate(e.src);
            activate(e.dst);
        }
    }
};

}  // namespace gt::engine
