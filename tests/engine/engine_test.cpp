// Hybrid engine tests: algorithm correctness on both stores under every
// mode policy, dynamic (batched) convergence to the static fixed point, and
// inference-unit behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include "core/graphtinker.hpp"
#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "engine/reference.hpp"
#include "common/test_util.hpp"
#include "gen/batcher.hpp"
#include "gen/rmat.hpp"
#include "stinger/stinger.hpp"

namespace gt::engine {
namespace {

std::vector<Edge> tiny() {
    return {{0, 1, 1}, {0, 2, 5}, {1, 2, 1}, {2, 3, 2}, {4, 5, 1}};
}

TEST(Engine, BfsOnTinyGraph) {
    core::GraphTinker g;
    (void)g.insert_batch(tiny());
    DynamicAnalysis<core::GraphTinker, Bfs> bfs(g);
    bfs.set_root(0);
    const auto stats = bfs.run_from_scratch();
    EXPECT_GT(stats.iterations, 0u);
    EXPECT_EQ(bfs.property(0), 0u);
    EXPECT_EQ(bfs.property(1), 1u);
    EXPECT_EQ(bfs.property(3), 2u);
    EXPECT_EQ(bfs.property(4), kInfDistance);
    EXPECT_EQ(bfs.property(12345), kInfDistance);  // out of range => initial
}

TEST(Engine, SsspRelaxesThroughCheaperPath) {
    core::GraphTinker g;
    (void)g.insert_batch(tiny());
    DynamicAnalysis<core::GraphTinker, Sssp> sssp(g);
    sssp.set_root(0);
    sssp.run_from_scratch();
    EXPECT_EQ(sssp.property(2), 2u);  // via 0->1->2, not the direct 5
    EXPECT_EQ(sssp.property(3), 4u);
}

TEST(Engine, CcFindsComponentsOnSymmetrizedGraph) {
    core::GraphTinker g;
    (void)g.insert_batch(symmetrize(tiny()));
    DynamicAnalysis<core::GraphTinker, Cc> cc(g);
    cc.run_from_scratch();
    EXPECT_EQ(cc.property(3), 0u);
    EXPECT_EQ(cc.property(5), 4u);
}

TEST(Engine, ForcedPoliciesUseOnlyTheirMode) {
    core::GraphTinker g;
    (void)g.insert_batch(symmetrize(rmat_edges(200, 1500, 2)));
    {
        DynamicAnalysis<core::GraphTinker, Bfs> bfs(
            g, EngineOptions{.policy = ModePolicy::ForceFull});
        bfs.set_root(0);
        const auto stats = bfs.run_from_scratch();
        EXPECT_EQ(stats.incremental_iterations, 0u);
        EXPECT_EQ(stats.full_iterations, stats.iterations);
    }
    {
        DynamicAnalysis<core::GraphTinker, Bfs> bfs(
            g, EngineOptions{.policy = ModePolicy::ForceIncremental});
        bfs.set_root(0);
        const auto stats = bfs.run_from_scratch();
        EXPECT_EQ(stats.full_iterations, 0u);
    }
}

TEST(Engine, AllPoliciesProduceIdenticalProperties) {
    core::GraphTinker g;
    const auto edges = symmetrize(rmat_edges(300, 4000, 3));
    (void)g.insert_batch(edges);
    const CsrSnapshot csr(edges, g.num_vertices());
    const auto want = reference_bfs(csr, 1);
    for (const ModePolicy policy :
         {ModePolicy::ForceFull, ModePolicy::ForceIncremental,
          ModePolicy::Hybrid}) {
        DynamicAnalysis<core::GraphTinker, Bfs> bfs(
            g, EngineOptions{.policy = policy});
        bfs.set_root(1);
        bfs.run_from_scratch();
        for (VertexId v = 0; v < csr.num_vertices(); ++v) {
            ASSERT_EQ(bfs.property(v), want[v])
                << "policy " << static_cast<int>(policy) << " vertex " << v;
        }
    }
}

TEST(Engine, HybridThresholdExtremesForceTheMode) {
    core::GraphTinker g;
    (void)g.insert_batch(symmetrize(rmat_edges(200, 2000, 4)));
    {
        // threshold 0: any activity => T > 0 => always full processing.
        DynamicAnalysis<core::GraphTinker, Bfs> bfs(
            g, EngineOptions{.policy = ModePolicy::Hybrid, .threshold = 0.0});
        bfs.set_root(0);
        const auto stats = bfs.run_from_scratch();
        EXPECT_EQ(stats.incremental_iterations, 0u);
    }
    {
        // threshold > 1: T = A/E can never exceed it => always incremental.
        DynamicAnalysis<core::GraphTinker, Bfs> bfs(
            g, EngineOptions{.policy = ModePolicy::Hybrid, .threshold = 1e9});
        bfs.set_root(0);
        const auto stats = bfs.run_from_scratch();
        EXPECT_EQ(stats.full_iterations, 0u);
    }
}

TEST(Engine, RegistryTraceAccountingAddsUp) {
    core::GraphTinker g;
    (void)g.insert_batch(symmetrize(rmat_edges(100, 1000, 5)));
    // Point the engine at the store's registry: iteration telemetry lands
    // in the "engine.trace" series next to the store's own metrics.
    DynamicAnalysis<core::GraphTinker, Bfs> bfs(
        g, EngineOptions{.registry = &g.obs()});
    bfs.set_root(0);
    auto stats = bfs.run_from_scratch();
    const std::size_t scratch_rows = stats.iterations;
    // A batch adds the seeding pass's row, then the iterations it caused.
    const std::vector<Edge> batch{{0, 150, 1}, {150, 151, 1}, {7, 0, 1}};
    (void)g.insert_batch(batch);
    stats.accumulate(bfs.on_batch(batch));
    ASSERT_GT(stats.iterations, scratch_rows + 1);
    const auto snap = g.obs().snapshot();
    const auto* trace = snap.find_series("engine.trace");
    ASSERT_NE(trace, nullptr);
    ASSERT_EQ(trace->fields.size(), kTraceFields.size());
    ASSERT_EQ(trace->rows.size(), stats.iterations);
    std::uint64_t streamed = 0;
    std::uint64_t logical = 0;
    std::size_t full = 0;
    for (std::size_t i = 0; i < trace->rows.size(); ++i) {
        const auto& row = trace->rows[i];
        full += row[1] == 1.0 ? 1 : 0;      // mode_full
        EXPECT_GT(row[2], 0.0);             // active vertices
        if (i == scratch_rows) {            // the seeding pass
            EXPECT_EQ(row[1], 0.0);
            EXPECT_EQ(row[2], static_cast<double>(batch.size()));
            EXPECT_EQ(row[3], 0.0);         // no decision made
            EXPECT_EQ(row[4], static_cast<double>(batch.size()));
        } else {
            EXPECT_GT(row[3], 0.0);         // decision ratio A/E
        }
        streamed += static_cast<std::uint64_t>(row[4]);
        logical += static_cast<std::uint64_t>(row[5]);
    }
    EXPECT_EQ(streamed, stats.edges_streamed);
    EXPECT_EQ(logical, stats.logical_edges);
    EXPECT_EQ(full, stats.full_iterations);
    // Aggregate counters published through the same registry agree.
    EXPECT_EQ(snap.counter_value("engine.iterations"), stats.iterations);
    EXPECT_EQ(snap.counter_value("engine.edges_streamed"),
              stats.edges_streamed);
    EXPECT_EQ(snap.counter_value("engine.full_iterations"),
              stats.full_iterations);
    EXPECT_EQ(snap.counter_value("engine.incremental_iterations"),
              stats.incremental_iterations);
    EXPECT_EQ(snap.counter_value("engine.logical_edges"),
              stats.logical_edges);
}

TEST(Engine, RootMayPredateItsVertex) {
    core::GraphTinker g;
    DynamicAnalysis<core::GraphTinker, Bfs> bfs(g);
    bfs.set_root(42);  // store is still empty
    const std::vector<Edge> batch{{42, 1, 1}, {1, 2, 1}};
    (void)g.insert_batch(batch);
    bfs.on_batch(batch);
    EXPECT_EQ(bfs.property(42), 0u);
    EXPECT_EQ(bfs.property(2), 2u);
}

// ---- dynamic convergence property: engine after N batches == oracle -----

enum class StoreKind { Tinker, Stinger };

using DynParam = std::tuple<StoreKind, ModePolicy, std::string>;

class DynamicConvergenceTest : public ::testing::TestWithParam<DynParam> {};

template <typename Store, typename Alg>
void run_dynamic(const Store& store, std::vector<Edge> const& all,
                 std::size_t batch_size, ModePolicy policy, Store& mut) {
    DynamicAnalysis<Store, Alg> analysis(store,
                                         EngineOptions{.policy = policy});
    if constexpr (Alg::needs_root) {
        analysis.set_root(0);
    }
    EdgeBatcher batches(all, batch_size);
    EdgeCount ingested = 0;
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        const auto batch = batches.batch(b);
        for (const Edge& e : batch) {
            (void)mut.insert_edge(e.src, e.dst, e.weight);
        }
        ingested += batch.size();
        analysis.on_batch(batch);

        // Oracle over the prefix ingested so far.
        const CsrSnapshot csr(
            std::span<const Edge>(all.data(), ingested), store.num_vertices());
        std::vector<std::uint32_t> want;
        if constexpr (std::is_same_v<Alg, Bfs>) {
            want = reference_bfs(csr, 0);
        } else if constexpr (std::is_same_v<Alg, Sssp>) {
            want = reference_sssp(csr, 0);
        } else {
            want = reference_cc(csr);
        }
        for (VertexId v = 0; v < csr.num_vertices(); ++v) {
            ASSERT_EQ(analysis.property(v), want[v])
                << Alg::name << " batch " << b << " vertex " << v;
        }
    }
}

TEST_P(DynamicConvergenceTest, IncrementalStateMatchesOracleAfterEveryBatch) {
    const auto [kind, policy, alg] = GetParam();
    const auto all =
        test::stabilize_weights(symmetrize(rmat_edges(256, 3000, 77)));
    constexpr std::size_t kBatch = 500;
    if (kind == StoreKind::Tinker) {
        core::GraphTinker store;
        if (alg == "bfs") {
            run_dynamic<core::GraphTinker, Bfs>(store, all, kBatch, policy,
                                                store);
        } else if (alg == "sssp") {
            run_dynamic<core::GraphTinker, Sssp>(store, all, kBatch, policy,
                                                 store);
        } else {
            run_dynamic<core::GraphTinker, Cc>(store, all, kBatch, policy,
                                               store);
        }
    } else {
        stinger::Stinger store;
        if (alg == "bfs") {
            run_dynamic<stinger::Stinger, Bfs>(store, all, kBatch, policy,
                                               store);
        } else if (alg == "sssp") {
            run_dynamic<stinger::Stinger, Sssp>(store, all, kBatch, policy,
                                                store);
        } else {
            run_dynamic<stinger::Stinger, Cc>(store, all, kBatch, policy,
                                              store);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DynamicConvergenceTest,
    ::testing::Combine(::testing::Values(StoreKind::Tinker,
                                         StoreKind::Stinger),
                       ::testing::Values(ModePolicy::ForceFull,
                                         ModePolicy::ForceIncremental,
                                         ModePolicy::Hybrid),
                       ::testing::Values("bfs", "sssp", "cc")),
    [](const ::testing::TestParamInfo<DynParam>& info) {
        // NB: no structured bindings here — the commas inside [a, b, c]
        // would split the surrounding macro's arguments.
        const StoreKind kind = std::get<0>(info.param);
        const ModePolicy policy = std::get<1>(info.param);
        const std::string alg = std::get<2>(info.param);
        std::string name =
            kind == StoreKind::Tinker ? "tinker_" : "stinger_";
        switch (policy) {
            case ModePolicy::ForceFull:
                name += "full_";
                break;
            case ModePolicy::ForceIncremental:
                name += "incr_";
                break;
            case ModePolicy::Hybrid:
                name += "hybrid_";
                break;
            case ModePolicy::HybridDegreeAware:
                name += "hybriddeg_";
                break;
        }
        return name + alg;
    });

TEST(Engine, RecomputeAfterDeletionsMatchesOracle) {
    core::GraphTinker g;
    // Build a clean undirected edge set (unique canonical pairs, no self
    // loops) so a deleted pair vanishes from both the store and the oracle.
    std::vector<Edge> edges;
    {
        std::set<std::pair<VertexId, VertexId>> seen;
        for (const Edge& e : rmat_edges(128, 1500, 9)) {
            const auto canon = std::minmax(e.src, e.dst);
            if (e.src != e.dst && seen.insert(canon).second) {
                edges.push_back(Edge{canon.first, canon.second, e.weight});
                edges.push_back(Edge{canon.second, canon.first, e.weight});
            }
        }
    }
    ASSERT_EQ(edges.size() % 2, 0u);
    (void)g.insert_batch(edges);
    DynamicAnalysis<core::GraphTinker, Bfs> bfs(g);
    bfs.set_root(0);
    bfs.run_from_scratch();

    // Delete a third of the stream (both directions to stay symmetric),
    // then a from-scratch run must match the oracle on the survivor set.
    std::vector<Edge> kept;
    for (std::size_t i = 0; i < edges.size(); i += 2) {  // symmetric pairs
        if (i % 6 == 0) {
            (void)g.delete_edge(edges[i].src, edges[i].dst);
            (void)g.delete_edge(edges[i + 1].src, edges[i + 1].dst);
        } else {
            kept.push_back(edges[i]);
            kept.push_back(edges[i + 1]);
        }
    }
    bfs.run_from_scratch();
    const CsrSnapshot csr(kept, g.num_vertices());
    const auto want = reference_bfs(csr, 0);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
        ASSERT_EQ(bfs.property(v), want[v]) << v;
    }
}

}  // namespace
}  // namespace gt::engine
