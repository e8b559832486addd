// The hybrid edge-centric graph engine (paper §IV).
//
// Per iteration, the inference unit predicts whether full processing (FP —
// stream *all* edges contiguously, here from the CAL; messages from inactive
// sources are simply skipped) or incremental processing (IP — walk the
// out-edges of each active vertex through the EdgeblockArray) is cheaper,
// using the paper's rule:
//
//     T = A / E,     mode = FP when T > threshold (0.02), else IP
//
// where A is the number of active vertices for the upcoming iteration and E
// is the number of edges loaded so far. Both modes compute identical
// per-iteration results; only the memory access pattern differs — which is
// the whole point. EngineState::infer_mode is the one decision point: the
// serial engine here and the shard-parallel engine (parallel_engine.hpp)
// both call it, so every ModePolicy means the same on either.
//
// The engine is generic over the store: any type providing
//   visit_out_edges(v, fn(dst, w)) / visit_edges(fn(src, dst, w)) /
//   num_edges() / num_vertices() / degree(v)
// can drive it, so GraphTinker and the STINGER baseline are exercised by
// byte-for-byte the same engine code.
//
// After a batch, the set-inconsistency step (paper §IV.C) is a seeding pass
// over the batch's own edges rather than over the adjacency of its
// endpoints: BFS, SSSP and CC are monotone under inserts, so before a batch
// every vertex is at its fixpoint with respect to the old edges and a new
// edge u->v can only improve v, through u's current property. The pass
// scatters each batch edge once, applies the reduced messages, and hands the
// improved vertices to the FP/IP loop (DESIGN.md §3.6).
//
// Telemetry goes through gt::obs: point EngineOptions::registry at a
// MetricsRegistry and the engine appends one row per iteration to the
// "engine.trace" series (mode, decision ratio, edges streamed/walked, wall
// time) and bumps the aggregate "engine.*" counters. No registry, no
// recording — there is no private trace vector any more.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/active_set.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace gt::engine {

/// Load path of one iteration.
enum class Mode : std::uint8_t { Full, Incremental };

/// Engine-level policy for choosing the load path.
///
/// `Hybrid` is the paper's inference rule: T = A/E against a fixed
/// threshold, where A counts active vertices. `HybridDegreeAware`
/// implements the paper's stated future-work heuristic: it weighs the
/// active set by its total degree (L = Σ degree(active)), i.e. the exact
/// number of edges an incremental iteration would walk, and compares L/E
/// against `degree_threshold` — the measured cost ratio between streaming
/// one edge from the CAL and walking one edge through the EdgeblockArray.
/// On graphs whose average degree is so high that A/E can never reach the
/// fixed threshold (e.g. hollywood-2009), the degree-aware rule still finds
/// the FP/IP crossover.
enum class ModePolicy : std::uint8_t {
    ForceFull,
    ForceIncremental,
    Hybrid,
    HybridDegreeAware,
};

struct EngineOptions {
    ModePolicy policy = ModePolicy::Hybrid;
    /// The paper's empirically chosen decision threshold (§IV.B).
    double threshold = 0.02;
    /// Crossover for HybridDegreeAware: choose FP when the incremental walk
    /// would touch more than this fraction of all edges.
    double degree_threshold = 0.3;
    /// Telemetry sink. When set, every iteration appends a row to the
    /// "engine.trace" series (fields kTraceFields below) and bumps the
    /// aggregate "engine.*" counters. Typically `&store.obs()` so engine
    /// and store telemetry land in one snapshot; null disables recording.
    obs::Registry* registry = nullptr;
};

/// Field schema of the "engine.trace" series, one row per iteration:
/// `iteration` is a monotonically increasing sequence number across runs,
/// `mode_full` is 1.0 for FP / 0.0 for IP, `ratio` is the value the
/// inference unit compared against its threshold (A/E, or L/E for the
/// degree-aware policy). The batch seeding pass reports as an IP row whose
/// `active` is the number of batch edges and whose `ratio` is 0 (no
/// decision is made for it).
inline constexpr std::array<std::string_view, 7> kTraceFields = {
    "iteration",     "mode_full",     "active", "ratio",
    "edges_streamed", "logical_edges", "seconds"};

/// Aggregated statistics for one analytics run (one convergence to
/// fixpoint). `logical_edges` is mode-independent, so
/// logical_edges / seconds is the throughput metric used to compare FP, IP,
/// hybrid and the STINGER baseline on equal footing (EXPERIMENTS.md).
struct RunStats {
    std::size_t iterations = 0;
    std::size_t full_iterations = 0;
    std::size_t incremental_iterations = 0;
    std::uint64_t edges_streamed = 0;
    std::uint64_t logical_edges = 0;
    double seconds = 0.0;

    void accumulate(const RunStats& other) {
        iterations += other.iterations;
        full_iterations += other.full_iterations;
        incremental_iterations += other.incremental_iterations;
        edges_streamed += other.edges_streamed;
        logical_edges += other.logical_edges;
        seconds += other.seconds;
    }

    [[nodiscard]] double throughput_meps() const noexcept {
        return mops(logical_edges, seconds);
    }
};

/// Mode plus the ratio the inference unit compared (published to the
/// "engine.trace" series so threshold crossings are visible post hoc).
struct ModeDecision {
    Mode mode;
    double ratio;
};

/// State shared by the serial and the shard-parallel engine: the options,
/// vertex properties, the frontier, the pending messages of the iteration
/// in flight, the registered roots and the telemetry handles. Both engines
/// seed batches, decide modes, commit iterations and publish trace rows
/// through it.
template <typename Alg>
class EngineState {
public:
    using Property = typename Alg::Property;

    EngineState(Alg algorithm, EngineOptions opts)
        : alg(algorithm), opts_(opts) {
        if (opts.registry != nullptr) {
            obs::Registry& r = *opts.registry;
            trace_ = &r.series("engine.trace",
                               {kTraceFields.begin(), kTraceFields.end()});
            iterations_m_ = &r.counter("engine.iterations");
            full_m_ = &r.counter("engine.full_iterations");
            incremental_m_ = &r.counter("engine.incremental_iterations");
            streamed_m_ = &r.counter("engine.edges_streamed");
            logical_m_ = &r.counter("engine.logical_edges");
        }
    }

    void set_root(VertexId root) {
        roots_.push_back(root);
        grow(root + 1);
        props[root] = Property{0};
        active.insert(root);
    }

    void grow(VertexId bound) {
        const auto old = static_cast<VertexId>(props.size());
        if (bound <= old) {
            return;
        }
        props.resize(bound);
        temp.resize(bound);
        for (VertexId v = old; v < bound; ++v) {
            props[v] = alg.initial(v);
        }
        active.resize(bound);
        next.resize(bound);
        touched.resize(bound);
    }

    /// Discards every property and seeds a from-scratch run over `bound`
    /// vertices: the roots, or every vertex for label propagation.
    void reset(VertexId bound) {
        active.clear();
        next.clear();
        touched.clear();
        props.clear();
        grow(bound);
        if constexpr (Alg::needs_root) {
            for (VertexId root : roots_) {
                grow(root + 1);
                props[root] = Property{0};
                active.insert(root);
            }
        } else {
            for (VertexId v = 0; v < bound; ++v) {
                active.insert(v);
            }
        }
    }

    [[nodiscard]] Property property(VertexId v) const {
        return v < props.size() ? props[v] : alg.initial(v);
    }

    /// The inference unit (paper §IV.B): the load path of the upcoming
    /// iteration over a graph of `edges` edges, where `degree_of(v)` is v's
    /// out-degree. Only HybridDegreeAware walks the frontier's degrees;
    /// every other policy decides in O(1).
    template <typename DegreeFn>
    [[nodiscard]] ModeDecision infer_mode(EdgeCount edges,
                                          DegreeFn degree_of) const {
        const double e = static_cast<double>(std::max<EdgeCount>(edges, 1));
        const double a_over_e = static_cast<double>(active.size()) / e;
        switch (opts_.policy) {
            case ModePolicy::ForceFull:
                return {Mode::Full, a_over_e};
            case ModePolicy::ForceIncremental:
                return {Mode::Incremental, a_over_e};
            case ModePolicy::Hybrid:
                return {a_over_e > opts_.threshold ? Mode::Full
                                                   : Mode::Incremental,
                        a_over_e};
            case ModePolicy::HybridDegreeAware:
                break;
        }
        const double l_over_e =
            static_cast<double>(active_degree(degree_of)) / e;
        return {l_over_e > opts_.degree_threshold ? Mode::Full
                                                  : Mode::Incremental,
                l_over_e};
    }

    /// L = Σ degree(active): the edges an IP iteration walks, and the
    /// logical work of an FP iteration.
    template <typename DegreeFn>
    [[nodiscard]] std::uint64_t active_degree(DegreeFn degree_of) const {
        std::uint64_t sum = 0;
        for (VertexId u : active.vertices()) {
            sum += degree_of(u);
        }
        return sum;
    }

    /// Reduces `msg` into dst's pending message.
    void scatter(VertexId dst, Property msg) {
        if (dst >= temp.size()) {
            grow(dst + 1);
        }
        if (touched.insert(dst)) {
            temp[dst] = msg;
        } else {
            temp[dst] = alg.reduce(temp[dst], msg);
        }
    }

    /// The set-inconsistency step after `batch` (paper §IV.C): one pass
    /// that scatters every batch edge from its source's current property
    /// and applies the result into the frontier, next to whatever is
    /// already active (a root registered before its first edge). Returns
    /// the pass as one IP iteration; an empty batch is no iteration.
    /// Algorithms whose invariant is not monotone (PageRank) define
    /// `seed_batch` and activate vertices instead.
    RunStats seed(std::span<const Edge> batch) {
        RunStats stats;
        if constexpr (requires { alg.seed_batch(batch, [](VertexId) {}); }) {
            alg.seed_batch(batch, [&](VertexId v) { active.insert(v); });
        } else if (!batch.empty()) {
            Timer timer;
            touched.clear();
            const auto seed_edge = [&](const Edge& e) {
                grow(std::max(e.src, e.dst) + 1);
                if (const auto msg =
                        alg.process_edge(e.src, props[e.src], e.weight)) {
                    scatter(e.dst, *msg);
                }
            };
            if constexpr (Alg::reads_weight) {
                // The store keeps the last weight of a pair repeated within
                // a batch, so only a pair's last occurrence is seeded.
                seen_.assign(std::bit_ceil(batch.size() * 2), kNoPair);
                for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
                    if (first_sighting((static_cast<std::uint64_t>(it->src)
                                        << 32) |
                                       it->dst)) {
                        seed_edge(*it);
                    }
                }
            } else {
                for (const Edge& e : batch) {
                    seed_edge(e);
                }
            }
            for (VertexId v : touched.vertices()) {
                if (alg.apply(props[v], temp[v])) {
                    active.insert(v);
                }
            }
            record(stats, {Mode::Incremental, 0.0}, batch.size(),
                   batch.size(), batch.size(), timer.seconds());
        }
        return stats;
    }

    /// Ends an iteration's scatter: runs the post-scatter hook, commits the
    /// pending messages, and makes the improved vertices the frontier.
    void commit() {
        // Algorithms like forward-push PageRank fold the mass they just
        // pushed into their own committed state.
        if constexpr (requires(Property& p) { alg.on_scattered(p); }) {
            for (VertexId u : active.vertices()) {
                alg.on_scattered(props[u]);
            }
        }
        next.clear();
        for (VertexId v : touched.vertices()) {
            if (alg.apply(props[v], temp[v])) {
                next.insert(v);
            }
        }
        active.swap(next);
    }

    /// Counts one finished iteration into `stats` and, with a registry,
    /// into the "engine.*" counters and one "engine.trace" row.
    void record(RunStats& stats, ModeDecision decision, std::size_t processed,
                std::uint64_t streamed, std::uint64_t logical, double secs) {
        ++stats.iterations;
        ++(decision.mode == Mode::Full ? stats.full_iterations
                                       : stats.incremental_iterations);
        stats.edges_streamed += streamed;
        stats.logical_edges += logical;
        stats.seconds += secs;
        if (trace_ == nullptr) {
            return;
        }
        iterations_m_->inc();
        (decision.mode == Mode::Full ? full_m_ : incremental_m_)->inc();
        streamed_m_->add(streamed);
        logical_m_->add(logical);
        const double row[] = {static_cast<double>(++iteration_seq_),
                              decision.mode == Mode::Full ? 1.0 : 0.0,
                              static_cast<double>(processed),
                              decision.ratio,
                              static_cast<double>(streamed),
                              static_cast<double>(logical),
                              secs};
        trace_->append(row);
    }

    Alg alg;
    std::vector<Property> props;
    std::vector<Property> temp;  // pending message of each touched vertex
    ActiveSet active;
    ActiveSet next;
    ActiveSet touched;

private:
    // kInvalidVertex endpoints never reach a store, so this is no real pair.
    static constexpr std::uint64_t kNoPair = ~std::uint64_t{0};

    /// Inserts `pair` into the open-addressing set `seen_` (at most half
    /// full); true when it was not there yet. Flat and reused across
    /// batches so it stays in cache: a RobinHoodMap built per batch cost
    /// ~80 ns per batch edge (4-vCPU x86 VM, 31 k-edge batches).
    bool first_sighting(std::uint64_t pair) {
        const std::size_t mask = seen_.size() - 1;
        for (std::size_t i = mix64(pair) & mask;; i = (i + 1) & mask) {
            if (seen_[i] == kNoPair) {
                seen_[i] = pair;
                return true;
            }
            if (seen_[i] == pair) {
                return false;
            }
        }
    }

    EngineOptions opts_;
    std::vector<std::uint64_t> seen_;  // batch pairs already seeded
    std::vector<VertexId> roots_;
    // Telemetry handles, resolved once in the constructor; all null without
    // a registry (trace_ doubles as the gate).
    obs::Series* trace_ = nullptr;
    obs::Counter* iterations_m_ = nullptr;
    obs::Counter* full_m_ = nullptr;
    obs::Counter* incremental_m_ = nullptr;
    obs::Counter* streamed_m_ = nullptr;
    obs::Counter* logical_m_ = nullptr;
    std::uint64_t iteration_seq_ = 0;  // trace row ids, monotone across runs
};

/// A persistent dynamic analysis: vertex properties survive across batch
/// updates so the incremental-compute model can refine the previous result
/// instead of recomputing it (paper §II.B).
template <typename Store, typename Alg>
class DynamicAnalysis {
public:
    using Property = typename Alg::Property;

    explicit DynamicAnalysis(const Store& store, EngineOptions opts = {},
                             Alg alg = {})
        : store_(store), st_(alg, opts) {}

    /// Registers the analysis root (BFS/SSSP); its property becomes 0 and it
    /// seeds from-scratch runs. May be called before the vertex exists.
    void set_root(VertexId root) { st_.set_root(root); }

    /// Batch seeding pass + run to fixpoint. Call *after* the store
    /// ingested `batch`.
    RunStats on_batch(std::span<const Edge> batch) {
        st_.grow(static_cast<VertexId>(store_.num_vertices()));
        RunStats stats = st_.seed(batch);
        stats.accumulate(run());
        return stats;
    }

    /// Store-and-static-compute model: discard prior state and recompute the
    /// whole analysis on the graph as it currently stands.
    RunStats run_from_scratch() {
        st_.reset(static_cast<VertexId>(store_.num_vertices()));
        return run();
    }

    [[nodiscard]] const std::vector<Property>& properties() const noexcept {
        return st_.props;
    }
    [[nodiscard]] Property property(VertexId v) const {
        return st_.property(v);
    }
    [[nodiscard]] const Alg& algorithm() const noexcept { return st_.alg; }

private:
    RunStats run() {
        RunStats stats;
        const auto degree_of = [this](VertexId v) { return store_.degree(v); };
        while (!st_.active.empty()) {
            Timer timer;
            const ModeDecision decision =
                st_.infer_mode(store_.num_edges(), degree_of);
            const std::size_t processed = st_.active.size();
            std::uint64_t streamed = 0;
            std::uint64_t logical = 0;
            st_.touched.clear();

            // --- processing phase (scatter + reduce) --------------------
            if (decision.mode == Mode::Incremental) {
                for (VertexId u : st_.active.vertices()) {
                    const Property up = st_.props[u];
                    store_.visit_out_edges(u, [&](VertexId v, Weight w) {
                        ++streamed;
                        if (const auto msg = st_.alg.process_edge(u, up, w)) {
                            st_.scatter(v, *msg);
                        }
                    });
                }
                logical = streamed;
            } else {
                store_.visit_edges([&](VertexId u, VertexId v, Weight w) {
                    ++streamed;
                    if (st_.active.contains(u)) {
                        if (const auto msg =
                                st_.alg.process_edge(u, st_.props[u], w)) {
                            st_.scatter(v, *msg);
                        }
                    }
                });
                logical = st_.active_degree(degree_of);
            }

            // --- apply phase (commit + next frontier) --------------------
            st_.commit();
            st_.record(stats, decision, processed, streamed, logical,
                       timer.seconds());
        }
        return stats;
    }

    const Store& store_;
    EngineState<Alg> st_;
};

}  // namespace gt::engine
