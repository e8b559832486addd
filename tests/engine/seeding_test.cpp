// Tests for the batch seeding pass (DESIGN.md §3.6): after a batch, BFS, SSSP
// and CC seed from the batch's own edges. Covers the weight a repeated pair
// seeds with, what the pass streams, batches that improve nothing, vertex ids
// above the old bound, and PageRank's separate vertex-seeding rule — on the
// serial and the shard-parallel engine, over GraphTinker and STINGER.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/test_util.hpp"
#include "core/graphtinker.hpp"
#include "core/sharded.hpp"
#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "engine/parallel_engine.hpp"
#include "engine/reference.hpp"
#include "gen/rmat.hpp"
#include "stinger/stinger.hpp"
#include "util/rng.hpp"

namespace gt::engine {
namespace {

template <typename Store>
void ingest(Store& store, std::span<const Edge> batch) {
    if constexpr (requires { store.insert_batch(batch); }) {
        (void)store.insert_batch(batch);
    } else {
        for (const Edge& e : batch) {
            (void)store.insert_edge(e.src, e.dst, e.weight);
        }
    }
}

VertexId bound_of(const std::vector<Edge>& edges) {
    VertexId bound = 0;
    for (const Edge& e : edges) {
        bound = std::max({bound, e.src + 1, e.dst + 1});
    }
    return bound;
}

/// Streams `batches` into `store` and `analysis`, then checks the SSSP
/// distances from vertex 0 against the oracle over the deduplicated stream
/// (last weight wins, as in the stores).
template <typename Analysis, typename Store>
void expect_sssp_matches_oracle(Store& store, Analysis& sssp,
                                const std::vector<std::vector<Edge>>& batches,
                                const char* what) {
    sssp.set_root(0);
    std::vector<Edge> stream;
    for (const auto& batch : batches) {
        ingest(store, std::span<const Edge>(batch));
        sssp.on_batch(batch);
        stream.insert(stream.end(), batch.begin(), batch.end());
        const CsrSnapshot csr(test::dedup_edges(stream), bound_of(stream));
        const auto want = reference_sssp(csr, 0);
        for (VertexId v = 0; v < csr.num_vertices(); ++v) {
            ASSERT_EQ(sssp.property(v), want[v]) << what << " vertex " << v;
        }
    }
}

/// Batches whose pairs never repeat across batches but do repeat inside
/// one, with unrelated weights: {1,2,3} ahead of {1,2,12}, plus RMAT
/// batches where a third of the edges reappear later in their own batch.
std::vector<std::vector<Edge>> repeated_pair_batches() {
    std::vector<std::vector<Edge>> batches{
        {{0, 1, 1}, {2, 3, 1}},
        {{1, 2, 3}, {0, 3, 40}, {1, 2, 12}},
    };
    std::set<std::pair<VertexId, VertexId>> used{{0, 1}, {2, 3}, {1, 2},
                                                 {0, 3}};
    std::vector<Edge> unique;
    for (const Edge& e : symmetrize(rmat_edges(200, 2500, 13))) {
        if (used.emplace(e.src, e.dst).second) {
            unique.push_back(e);
        }
    }
    Rng rng(29);
    for (std::size_t off = 0; off < unique.size(); off += 400) {
        std::vector<Edge> batch(
            unique.begin() + static_cast<std::ptrdiff_t>(off),
            unique.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(off + 400, unique.size())));
        const std::size_t n = batch.size();
        for (std::size_t i = 0; i < n; i += 3) {
            Edge again = batch[i];
            again.weight = 1 + static_cast<Weight>(rng.next_below(100));
            batch.push_back(again);
        }
        batches.push_back(std::move(batch));
    }
    return batches;
}

TEST(Seeding, SsspSeedsARepeatedPairWithItsStoredWeight) {
    const auto batches = repeated_pair_batches();
    {
        core::GraphTinker store;
        DynamicAnalysis<core::GraphTinker, Sssp> sssp(store);
        expect_sssp_matches_oracle(store, sssp, batches, "serial tinker");
        EXPECT_EQ(sssp.property(2), 13u);  // 1 + 12, not 1 + 3
        EXPECT_EQ(sssp.property(3), 14u);
    }
    {
        stinger::Stinger store;
        DynamicAnalysis<stinger::Stinger, Sssp> sssp(store);
        expect_sssp_matches_oracle(store, sssp, batches, "serial stinger");
    }
    {
        core::ShardedStore<core::GraphTinker> store(
            3, [] { return core::Config{}; });
        ParallelDynamicAnalysis<core::GraphTinker, Sssp> sssp(store);
        expect_sssp_matches_oracle(store, sssp, batches, "parallel tinker");
    }
    {
        core::ShardedStore<stinger::Stinger> store(
            3, [] { return stinger::StingerConfig{}; });
        ParallelDynamicAnalysis<stinger::Stinger, Sssp> sssp(store);
        expect_sssp_matches_oracle(store, sssp, batches, "parallel stinger");
    }
}

TEST(Seeding, PassStreamsExactlyTheBatch) {
    core::GraphTinker g;
    const auto base = symmetrize(rmat_edges(300, 3000, 3));
    (void)g.insert_batch(base);
    DynamicAnalysis<core::GraphTinker, Bfs> bfs(
        g, EngineOptions{.registry = &g.obs()});
    bfs.set_root(0);
    const auto scratch = bfs.run_from_scratch();

    // Hub sources: seeding their whole adjacency would stream far more.
    const std::vector<Edge> batch{{0, 400, 1}, {0, 401, 1}, {400, 402, 1}};
    (void)g.insert_batch(batch);
    const auto stats = bfs.on_batch(batch);
    ASSERT_GT(g.degree(0), batch.size());

    const auto snap = g.obs().snapshot();
    const auto* trace = snap.find_series("engine.trace");
    ASSERT_NE(trace, nullptr);
    ASSERT_EQ(trace->rows.size(), scratch.iterations + stats.iterations);
    const auto& seed = trace->rows[scratch.iterations];
    EXPECT_EQ(seed[1], 0.0);                                  // mode_full
    EXPECT_EQ(seed[2], static_cast<double>(batch.size()));    // active
    EXPECT_EQ(seed[3], 0.0);                                  // no decision
    EXPECT_EQ(seed[4], static_cast<double>(batch.size()));    // streamed
    EXPECT_EQ(seed[5], static_cast<double>(batch.size()));    // logical
    EXPECT_EQ(bfs.property(402), bfs.property(0) + 2);
}

TEST(Seeding, BatchThatImprovesNothingEndsAfterThePass) {
    core::GraphTinker g;
    const auto base = symmetrize(rmat_edges(300, 3000, 4));
    (void)g.insert_batch(base);
    DynamicAnalysis<core::GraphTinker, Bfs> bfs(g);
    DynamicAnalysis<core::GraphTinker, Cc> cc(g);
    bfs.set_root(0);
    bfs.run_from_scratch();
    cc.run_from_scratch();

    // Edges pointing at the root, and between vertices CC already joined.
    std::vector<Edge> batch;
    for (const Edge& e : base) {
        if (e.src != 0 && bfs.property(e.src) != kInfDistance &&
            batch.size() < 8) {
            batch.push_back(Edge{e.src, 0, 1});
        }
    }
    ASSERT_FALSE(batch.empty());
    (void)g.insert_batch(batch);
    for (const RunStats& stats : {bfs.on_batch(batch), cc.on_batch(batch)}) {
        EXPECT_EQ(stats.iterations, 1u);
        EXPECT_EQ(stats.incremental_iterations, 1u);
        EXPECT_EQ(stats.edges_streamed, batch.size());
    }
}

TEST(Seeding, NewVertexIdsAboveTheOldBoundConverge) {
    const std::vector<Edge> base = symmetrize(rmat_edges(100, 800, 6));
    const std::vector<Edge> batch = symmetrize(std::vector<Edge>{
        {0, 5000, 2}, {5000, 9000, 2}, {9000, 7000, 2}, {7000, 1, 2}});
    std::vector<Edge> all = base;
    all.insert(all.end(), batch.begin(), batch.end());
    const CsrSnapshot csr(all, bound_of(all));
    const auto want_bfs = reference_bfs(csr, 0);
    const auto want_cc = reference_cc(csr);

    core::GraphTinker serial;
    core::ShardedStore<core::GraphTinker> sharded(
        3, [] { return core::Config{}; });
    DynamicAnalysis<core::GraphTinker, Bfs> bfs(serial);
    DynamicAnalysis<core::GraphTinker, Cc> cc(serial);
    ParallelDynamicAnalysis<core::GraphTinker, Bfs> par_bfs(sharded);
    ParallelDynamicAnalysis<core::GraphTinker, Cc> par_cc(sharded);
    bfs.set_root(0);
    par_bfs.set_root(0);
    for (const auto* b : {&base, &batch}) {
        (void)serial.insert_batch(*b);
        (void)sharded.insert_batch(*b);
        bfs.on_batch(*b);
        cc.on_batch(*b);
        par_bfs.on_batch(*b);
        par_cc.on_batch(*b);
    }
    ASSERT_NE(want_bfs[9000], kInfDistance);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
        ASSERT_EQ(bfs.property(v), want_bfs[v]) << v;
        ASSERT_EQ(cc.property(v), want_cc[v]) << v;
        ASSERT_EQ(par_bfs.property(v), want_bfs[v]) << v;
        ASSERT_EQ(par_cc.property(v), want_cc[v]) << v;
    }
}

TEST(Seeding, PageRankKeepsVertexSeeding) {
    core::GraphTinker g;
    (void)g.insert_batch(rmat_edges(200, 1500, 8));
    using Pr = PageRank<core::GraphTinker>;
    DynamicAnalysis<core::GraphTinker, Pr> pr(
        g, EngineOptions{.registry = &g.obs()}, Pr{&g});
    const auto scratch = pr.run_from_scratch();
    const std::vector<Edge> batch{{1, 2, 1}, {1, 3, 1}};
    (void)g.insert_batch(batch);
    const auto stats = pr.on_batch(batch);
    ASSERT_GT(stats.iterations, 0u);
    // The first row after the batch is a decided iteration over the three
    // activated endpoints, not a seeding pass over the two edges.
    const auto snap = g.obs().snapshot();
    const auto& first = snap.find_series("engine.trace")->rows.at(
        scratch.iterations);
    EXPECT_EQ(first[2], 3.0);
    EXPECT_GT(first[3], 0.0);
}

}  // namespace
}  // namespace gt::engine
