// TSan race-stress for the shard-parallel analytics engine: repeated
// incremental batches with per-batch equivalence against the serial engine,
// plus back-to-back from-scratch runs reusing the same worker state. The
// engine's merge/apply phases are serial by design; this proves the parallel
// compute phase keeps worker-local state actually local.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "core/sharded.hpp"
#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "engine/parallel_engine.hpp"
#include "engine/reference.hpp"
#include "gen/batcher.hpp"
#include "gen/rmat.hpp"

namespace gt::engine {
namespace {

TEST(ParallelEngineStress, IncrementalBfsStaysBitEqualUnderManyBatches) {
    const auto edges = symmetrize(rmat_edges(300, 5000, 61));
    core::ShardedStore<core::GraphTinker> sharded(4, [] {
        return core::Config{};
    });
    core::GraphTinker serial;

    ParallelDynamicAnalysis<core::GraphTinker, Bfs> par(sharded);
    DynamicAnalysis<core::GraphTinker, Bfs> ser(serial);
    par.set_root(0);
    ser.set_root(0);

    EdgeBatcher batches(edges, 200);
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        const auto batch = batches.batch(b);
        (void)sharded.insert_batch(batch);
        (void)serial.insert_batch(batch);
        const RunStats par_stats = par.on_batch(batch);
        const RunStats ser_stats = ser.on_batch(batch);
        // One seeding path: the same pass, then the same iterations.
        EXPECT_EQ(par_stats.iterations, ser_stats.iterations) << b;
        EXPECT_EQ(par_stats.edges_streamed, ser_stats.edges_streamed) << b;
        EXPECT_EQ(par_stats.logical_edges, ser_stats.logical_edges) << b;
        for (VertexId v = 0; v < serial.num_vertices(); ++v) {
            ASSERT_EQ(par.property(v), ser.property(v))
                << "batch " << b << " vertex " << v;
        }
    }
    // The stores behind the engine must still be structurally sound.
    for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
        EXPECT_TRUE(core::Auditor::run(sharded.shard(s)).ok())
            << "shard " << s;
    }
}

TEST(ParallelEngineStress, SeededSsspStaysBitEqualWithRepeatedPairs) {
    // Every batch repeats some of its own pairs with fresh weights, and new
    // vertex ids keep appearing above the previous bound.
    const auto edges = symmetrize(rmat_edges(400, 6000, 67));
    core::ShardedStore<core::GraphTinker> sharded(4, [] {
        return core::Config{};
    });
    core::GraphTinker serial;
    ParallelDynamicAnalysis<core::GraphTinker, Sssp> par(sharded);
    DynamicAnalysis<core::GraphTinker, Sssp> ser(serial);
    par.set_root(0);
    ser.set_root(0);

    EdgeBatcher batches(edges, 300);
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        const auto slice = batches.batch(b);
        std::vector<Edge> batch(slice.begin(), slice.end());
        for (std::size_t i = 0; i < slice.size(); i += 4) {
            const Edge& e = slice[i];
            batch.push_back(Edge{e.src, e.dst, 1 + (e.weight * 7) % 90});
        }
        (void)sharded.insert_batch(batch);
        (void)serial.insert_batch(batch);
        const RunStats par_stats = par.on_batch(batch);
        const RunStats ser_stats = ser.on_batch(batch);
        EXPECT_EQ(par_stats.iterations, ser_stats.iterations) << b;
        EXPECT_EQ(par_stats.edges_streamed, ser_stats.edges_streamed) << b;
        for (VertexId v = 0; v < serial.num_vertices(); ++v) {
            ASSERT_EQ(par.property(v), ser.property(v))
                << "batch " << b << " vertex " << v;
        }
    }
}

TEST(ParallelEngineStress, RepeatedFromScratchRunsAreStable) {
    const auto edges = symmetrize(rmat_edges(250, 4000, 71));
    core::ShardedStore<core::GraphTinker> store(3, [] {
        return core::Config{};
    });
    (void)store.insert_batch(edges);

    VertexId bound = 0;
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
        bound = std::max(bound, store.shard(s).num_vertices());
    }
    const CsrSnapshot csr(edges, bound);
    const auto want = reference_bfs(csr, 0);

    ParallelDynamicAnalysis<core::GraphTinker, Bfs> bfs(store);
    bfs.set_root(0);
    for (int run = 0; run < 5; ++run) {
        const auto stats = bfs.run_from_scratch();
        ASSERT_GT(stats.iterations, 0u) << "run " << run;
        for (VertexId v = 0; v < csr.num_vertices(); ++v) {
            ASSERT_EQ(bfs.property(v), want[v])
                << "run " << run << " vertex " << v;
        }
    }
}

TEST(ParallelEngineStress, TwoAlgorithmsShareTheStore) {
    // Two engines driving parallel compute phases over the same sharded
    // store back to back: readers of shared graph state, writers only of
    // their own property arrays.
    const auto edges = symmetrize(rmat_edges(200, 3000, 81));
    core::ShardedStore<core::GraphTinker> store(4, [] {
        return core::Config{};
    });
    core::GraphTinker serial;

    ParallelDynamicAnalysis<core::GraphTinker, Cc> cc(store);
    ParallelDynamicAnalysis<core::GraphTinker, Bfs> bfs(store);
    DynamicAnalysis<core::GraphTinker, Cc> ser_cc(serial);
    DynamicAnalysis<core::GraphTinker, Bfs> ser_bfs(serial);
    bfs.set_root(0);
    ser_bfs.set_root(0);

    EdgeBatcher batches(edges, 500);
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        const auto batch = batches.batch(b);
        (void)store.insert_batch(batch);
        (void)serial.insert_batch(batch);
        cc.on_batch(batch);
        bfs.on_batch(batch);
        ser_cc.on_batch(batch);
        ser_bfs.on_batch(batch);
    }
    for (VertexId v = 0; v < serial.num_vertices(); ++v) {
        ASSERT_EQ(cc.property(v), ser_cc.property(v)) << "CC vertex " << v;
        ASSERT_EQ(bfs.property(v), ser_bfs.property(v)) << "BFS vertex " << v;
    }
}

}  // namespace
}  // namespace gt::engine
