// Tests for the shard-parallel analytics engine: bit-equivalence with the
// serial engine and with the static references, across algorithms, modes and
// shard counts.
#include <gtest/gtest.h>

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

/// Both engines seed a batch through the same pass and decide modes through
/// the same inference unit, so everything but wall time agrees.
void expect_same_run(const RunStats& par, const RunStats& ser) {
    EXPECT_EQ(par.iterations, ser.iterations);
    EXPECT_EQ(par.full_iterations, ser.full_iterations);
    EXPECT_EQ(par.incremental_iterations, ser.incremental_iterations);
    EXPECT_EQ(par.edges_streamed, ser.edges_streamed);
    EXPECT_EQ(par.logical_edges, ser.logical_edges);
}

class ParallelEngineTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelEngineTest, BfsMatchesReferenceAcrossShardCounts) {
    const std::size_t shards = GetParam();
    const auto edges = symmetrize(rmat_edges(400, 6000, 21));
    core::ShardedStore<core::GraphTinker> store(shards, [] {
        return core::Config{};
    });
    (void)store.insert_batch(edges);

    ParallelDynamicAnalysis<core::GraphTinker, Bfs> bfs(store);
    bfs.set_root(0);
    const auto stats = bfs.run_from_scratch();
    EXPECT_GT(stats.iterations, 0u);
    EXPECT_EQ(bfs.num_workers(), shards);

    VertexId bound = 0;
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
        bound = std::max(bound, store.shard(s).num_vertices());
    }
    const CsrSnapshot csr(edges, bound);
    const auto want = reference_bfs(csr, 0);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
        ASSERT_EQ(bfs.property(v), want[v]) << "shards=" << shards << " v=" << v;
    }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ParallelEngineTest,
                         ::testing::Values(1, 2, 4, 7));

TEST(ParallelEngine, CcAndSsspMatchSerialEngineDynamically) {
    const auto edges = symmetrize(rmat_edges(300, 5000, 31));
    // Stabilize weights so serial/parallel/oracle all agree under dups.
    std::vector<Edge> stable = edges;
    for (Edge& e : stable) {
        e.weight = 1 + (e.src * 7 + e.dst * 13) % 50;
    }

    core::ShardedStore<core::GraphTinker> sharded(3, [] {
        return core::Config{};
    });
    core::GraphTinker serial;

    ParallelDynamicAnalysis<core::GraphTinker, Cc> par_cc(sharded);
    DynamicAnalysis<core::GraphTinker, Cc> ser_cc(serial);
    ParallelDynamicAnalysis<core::GraphTinker, Sssp> par_sssp(sharded);
    DynamicAnalysis<core::GraphTinker, Sssp> ser_sssp(serial);
    par_sssp.set_root(1);
    ser_sssp.set_root(1);

    EdgeBatcher batches(stable, 1000);
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        const auto batch = batches.batch(b);
        (void)sharded.insert_batch(batch);
        (void)serial.insert_batch(batch);
        expect_same_run(par_cc.on_batch(batch), ser_cc.on_batch(batch));
        expect_same_run(par_sssp.on_batch(batch), ser_sssp.on_batch(batch));
        for (VertexId v = 0; v < serial.num_vertices(); ++v) {
            ASSERT_EQ(par_cc.property(v), ser_cc.property(v))
                << "CC batch " << b << " vertex " << v;
            ASSERT_EQ(par_sssp.property(v), ser_sssp.property(v))
                << "SSSP batch " << b << " vertex " << v;
        }
    }
}

TEST(ParallelEngine, SeedingPassMatchesSerialEngineOnRawWeights) {
    // Raw RMAT weights: pairs repeat within and across batches with
    // different weights. Both engines must seed each pair with the weight
    // the store kept and publish the same seeding row.
    const auto edges = symmetrize(rmat_edges(300, 5000, 37));
    core::ShardedStore<core::GraphTinker> sharded(4, [] {
        return core::Config{};
    });
    core::GraphTinker serial;
    obs::Registry par_registry;
    obs::Registry ser_registry;
    ParallelDynamicAnalysis<core::GraphTinker, Sssp> par(
        sharded, EngineOptions{.registry = &par_registry});
    DynamicAnalysis<core::GraphTinker, Sssp> ser(
        serial, EngineOptions{.registry = &ser_registry});
    par.set_root(0);
    ser.set_root(0);

    EdgeBatcher batches(edges, 700);
    std::size_t rows = 0;
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        const auto batch = batches.batch(b);
        (void)sharded.insert_batch(batch);
        (void)serial.insert_batch(batch);
        const RunStats par_stats = par.on_batch(batch);
        expect_same_run(par_stats, ser.on_batch(batch));
        const auto snap = par_registry.snapshot();
        const auto* trace = snap.find_series("engine.trace");
        ASSERT_NE(trace, nullptr);
        EXPECT_EQ(trace->rows.at(rows)[4],
                  static_cast<double>(batch.size()));
        rows += par_stats.iterations;
        for (VertexId v = 0; v < serial.num_vertices(); ++v) {
            ASSERT_EQ(par.property(v), ser.property(v))
                << "batch " << b << " vertex " << v;
        }
    }
    EXPECT_EQ(par_registry.snapshot().counter_value("engine.iterations"),
              ser_registry.snapshot().counter_value("engine.iterations"));
}

/// Both engines decide through one inference unit, so under every policy
/// each "engine.trace" row reports the same mode and the same ratio.
class ParallelEnginePolicyTest : public ::testing::TestWithParam<ModePolicy> {
};

TEST_P(ParallelEnginePolicyTest, TraceModesAndRatiosMatchSerialEngine) {
    const ModePolicy policy = GetParam();
    const auto edges = symmetrize(rmat_edges(300, 5000, 43));
    core::ShardedStore<core::GraphTinker> sharded(4, [] {
        return core::Config{};
    });
    core::GraphTinker serial;
    obs::Registry par_registry;
    obs::Registry ser_registry;
    // A frontier walking more than 5% of the edges streams them instead,
    // so the degree-aware rule picks both modes on these batches.
    const EngineOptions opts{.policy = policy, .degree_threshold = 0.05};
    EngineOptions par_opts = opts;
    par_opts.registry = &par_registry;
    EngineOptions ser_opts = opts;
    ser_opts.registry = &ser_registry;
    ParallelDynamicAnalysis<core::GraphTinker, Bfs> par(sharded, par_opts);
    DynamicAnalysis<core::GraphTinker, Bfs> ser(serial, ser_opts);
    par.set_root(0);
    ser.set_root(0);

    RunStats total;
    EdgeBatcher batches(edges, 1000);
    for (std::size_t b = 0; b < batches.num_batches(); ++b) {
        const auto batch = batches.batch(b);
        (void)sharded.insert_batch(batch);
        (void)serial.insert_batch(batch);
        const RunStats par_stats = par.on_batch(batch);
        expect_same_run(par_stats, ser.on_batch(batch));
        total.accumulate(par_stats);
        for (VertexId v = 0; v < serial.num_vertices(); ++v) {
            ASSERT_EQ(par.property(v), ser.property(v))
                << "batch " << b << " vertex " << v;
        }
    }

    const auto par_snap = par_registry.snapshot();
    const auto ser_snap = ser_registry.snapshot();
    const auto* par_trace = par_snap.find_series("engine.trace");
    const auto* ser_trace = ser_snap.find_series("engine.trace");
    ASSERT_NE(par_trace, nullptr);
    ASSERT_NE(ser_trace, nullptr);
    ASSERT_EQ(par_trace->rows.size(), ser_trace->rows.size());
    for (std::size_t i = 0; i < par_trace->rows.size(); ++i) {
        EXPECT_EQ(par_trace->rows[i][1], ser_trace->rows[i][1])
            << "mode_full, row " << i;
        EXPECT_EQ(par_trace->rows[i][3], ser_trace->rows[i][3])
            << "ratio, row " << i;
    }
    if (policy == ModePolicy::HybridDegreeAware) {
        EXPECT_GT(total.full_iterations, 0u);
        EXPECT_GT(total.incremental_iterations, 0u);
    }
}

std::string policy_name(const ::testing::TestParamInfo<ModePolicy>& info) {
    constexpr const char* kNames[] = {"ForceFull", "ForceIncremental",
                                      "Hybrid", "HybridDegreeAware"};
    return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(Policies, ParallelEnginePolicyTest,
                         ::testing::Values(ModePolicy::ForceFull,
                                           ModePolicy::ForceIncremental,
                                           ModePolicy::Hybrid,
                                           ModePolicy::HybridDegreeAware),
                         policy_name);

TEST(ParallelEngine, ForcedModesRespected) {
    const auto edges = symmetrize(rmat_edges(200, 2000, 41));
    core::ShardedStore<core::GraphTinker> store(2, [] {
        return core::Config{};
    });
    (void)store.insert_batch(edges);
    {
        ParallelDynamicAnalysis<core::GraphTinker, Bfs> bfs(
            store, EngineOptions{.policy = ModePolicy::ForceFull});
        bfs.set_root(0);
        const auto stats = bfs.run_from_scratch();
        EXPECT_EQ(stats.incremental_iterations, 0u);
    }
    {
        ParallelDynamicAnalysis<core::GraphTinker, Bfs> bfs(
            store, EngineOptions{.policy = ModePolicy::ForceIncremental});
        bfs.set_root(0);
        const auto stats = bfs.run_from_scratch();
        EXPECT_EQ(stats.full_iterations, 0u);
    }
}

TEST(ParallelEngine, TraceAndCountsAddUp) {
    const auto edges = symmetrize(rmat_edges(250, 3000, 51));
    core::ShardedStore<core::GraphTinker> store(4, [] {
        return core::Config{};
    });
    (void)store.insert_batch(edges);
    // The sharded store has per-shard registries; a standalone registry
    // collects the engine-level telemetry instead.
    obs::Registry registry;
    ParallelDynamicAnalysis<core::GraphTinker, Bfs> bfs(
        store, EngineOptions{.registry = &registry});
    bfs.set_root(0);
    const auto stats = bfs.run_from_scratch();
    const auto snap = registry.snapshot();
    const auto* trace = snap.find_series("engine.trace");
    ASSERT_NE(trace, nullptr);
    ASSERT_EQ(trace->rows.size(), stats.iterations);
    std::uint64_t streamed = 0;
    for (const auto& row : trace->rows) {
        streamed += static_cast<std::uint64_t>(row[4]);
    }
    EXPECT_EQ(streamed, stats.edges_streamed);
    EXPECT_EQ(snap.counter_value("engine.iterations"), stats.iterations);
    EXPECT_GT(stats.logical_edges, 0u);
}

}  // namespace
}  // namespace gt::engine
