// Tests for the chunked block arena (util/chunked_arena.hpp) and the
// EdgeblockArray / CAL storage built on it: O(1) block addressing, 64-byte
// alignment, blocks that never move across growth, in-use accounting, and
// growth failure at an exact chunk boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/scoped_audit.hpp"
#include "core/audit.hpp"
#include "core/edgeblock_array.hpp"
#include "core/graphtinker.hpp"
#include "util/chunked_arena.hpp"
#include "util/failpoint.hpp"

namespace gt::core {
namespace {

std::uintptr_t addr(const void* p) {
    return reinterpret_cast<std::uintptr_t>(p);
}

TEST(ChunkedArena, LocateWalksChunksOfDoublingSize) {
    ChunkedArena<std::uint32_t> arena({3}, 4);
    EXPECT_EQ(arena.capacity(), 0u);
    for (int c = 0; c < 4; ++c) {
        const std::uint64_t next = arena.capacity_after_grow();
        arena.grow();
        EXPECT_EQ(arena.capacity(), next);
    }
    EXPECT_EQ(arena.capacity(), 4u + 8u + 16u + 32u);
    // Chunk c holds 4 << c blocks and starts where the previous one ended.
    std::uint32_t block = 0;
    for (std::uint32_t chunk = 0; chunk < 4; ++chunk) {
        for (std::uint32_t off = 0; off < (4U << chunk); ++off, ++block) {
            const auto pos = arena.locate(block);
            EXPECT_EQ(pos.chunk, chunk) << block;
            EXPECT_EQ(pos.offset, off) << block;
        }
    }
}

TEST(ChunkedArena, PlanesAreAlignedAndBlocksDisjoint) {
    ChunkedArena<std::uint64_t, std::uint8_t> arena({5, 3}, 1);
    for (int c = 0; c < 5; ++c) {
        arena.grow();
    }
    std::set<std::uintptr_t> starts;
    for (std::uint32_t b = 0; b < arena.capacity(); ++b) {
        const auto pos = arena.locate(b);
        if (pos.offset == 0) {
            EXPECT_EQ(addr(arena.at<0>(pos)) % 64, 0u) << b;
            EXPECT_EQ(addr(arena.at<1>(pos)) % 64, 0u) << b;
        }
        // Writing one block's elements never lands in another block.
        for (std::uint32_t i = 0; i < 5; ++i) {
            EXPECT_TRUE(starts.insert(addr(arena.at<0>(b) + i)).second);
        }
    }
}

Config eba_config() {
    Config cfg;  // paper geometry: 64-cell blocks, 8-cell subblocks
    cfg.enable_cal = false;
    return cfg;
}

TEST(EdgeblockArena, EveryCellBaseIsCacheLineAligned) {
    EdgeblockArray eba(eba_config(), nullptr);
    std::vector<std::uint32_t> tops(300, EdgeblockArray::kNoBlock);
    for (VertexId v = 0; v < tops.size(); ++v) {
        for (VertexId d = 0; d < 3 * v; ++d) {
            eba.insert(tops[v], d, 1);
        }
    }
    ASSERT_GT(eba.blocks_allocated(), 1000u);  // several chunks
    for (std::uint32_t b = 0; b < eba.blocks_allocated(); ++b) {
        EXPECT_EQ(addr(&eba.cell_at(CellRef{b, 0})) % 64, 0u) << b;
        // So a default 8-cell (128 B) subblock is exactly two lines.
        EXPECT_EQ(addr(&eba.cell_at(CellRef{b, 8})) % 64, 0u) << b;
    }
}

TEST(EdgeblockArena, CellsStayPutWhileTheArenaGrows) {
    EdgeblockArray eba(eba_config(), nullptr);
    std::uint32_t pinned_top = EdgeblockArray::kNoBlock;
    for (VertexId d = 0; d < 40; ++d) {
        eba.insert(pinned_top, d, d + 1);
    }
    std::vector<std::pair<CellRef, const EdgeCell*>> before;
    for (VertexId d = 0; d < 40; ++d) {
        const auto ref = eba.find_ref(pinned_top, d);
        ASSERT_TRUE(ref.has_value());
        before.emplace_back(*ref, &eba.cell_at(*ref));
    }
    // Grow through several chunk boundaries without touching the pinned
    // tree: every other vertex gets its own blocks.
    std::set<std::size_t> capacities{eba.memory_capacity_bytes()};
    std::vector<std::uint32_t> tops(2000, EdgeblockArray::kNoBlock);
    for (VertexId v = 0; v < tops.size(); ++v) {
        for (VertexId d = 0; d < 16; ++d) {
            eba.insert(tops[v], d, 1);
        }
        capacities.insert(eba.memory_capacity_bytes());
    }
    EXPECT_GE(capacities.size(), 4u) << "arena did not cross 3 boundaries";
    for (VertexId d = 0; d < 40; ++d) {
        const auto ref = eba.find_ref(pinned_top, d);
        ASSERT_TRUE(ref.has_value());
        EXPECT_EQ(ref->block, before[d].first.block);
        EXPECT_EQ(ref->slot, before[d].first.slot);
        // Same address, and the old pointer still reads the live cell.
        EXPECT_EQ(&eba.cell_at(*ref), before[d].second);
        EXPECT_EQ(before[d].second->dst, d);
        EXPECT_EQ(before[d].second->weight, d + 1);
    }
}

/// True when `blocks` is a whole number of arena chunks: 64, 128, 256, ...
bool whole_chunks(std::size_t blocks) {
    std::size_t total = 0;
    for (std::size_t chunk = 64; total < blocks; chunk *= 2) {
        total += chunk;
    }
    return total == blocks;
}

TEST(EdgeblockArena, MemoryBytesKeepTheInUseFormula) {
    const Config cfg = eba_config();
    EdgeblockArray eba(cfg, nullptr);
    std::vector<std::uint32_t> tops(50, EdgeblockArray::kNoBlock);
    for (VertexId v = 0; v < tops.size(); ++v) {
        for (VertexId d = 0; d < 7 * v; ++d) {
            eba.insert(tops[v], d, 1);
        }
    }
    // Full blocks: cells + child handles + occupancy and tombstone masks +
    // the occupied counter. Small roots: one subblock of cells and a
    // three-word header (masks, counter). Vertex 1 (7 edges) keeps a small root; the rest promoted.
    const std::size_t per_block = 64 * sizeof(EdgeCell) + 8 * 4 + 2 * 8 + 4;
    const std::size_t per_small = 8 * sizeof(EdgeCell) + 3 * 8;
    EXPECT_EQ(per_block, 1076u);
    EXPECT_EQ(per_small, 152u);
    EXPECT_EQ(eba.full_block_bytes(), per_block);
    EXPECT_EQ(eba.small_block_bytes(), per_small);
    EXPECT_EQ(eba.small_blocks_in_use(), 1u);
    const auto in_use = [&] {
        return eba.blocks_in_use() * per_block +
               eba.small_blocks_in_use() * per_small;
    };
    EXPECT_EQ(eba.memory_bytes(), in_use());
    EXPECT_GE(eba.memory_capacity_bytes(), eba.memory_bytes());
    // Capacity is whole chunks of each tier: 64, 128, 256, ... blocks.
    bool chunked = false;
    for (std::size_t small = 0; small * per_small <= eba.memory_capacity_bytes();
         small += 64) {
        const std::size_t rest = eba.memory_capacity_bytes() - small * per_small;
        if (whole_chunks(small) && rest % per_block == 0 &&
            whole_chunks(rest / per_block) &&
            small >= eba.small_blocks_allocated() &&
            rest / per_block >= eba.blocks_allocated()) {
            chunked = true;
        }
    }
    EXPECT_TRUE(chunked) << eba.memory_capacity_bytes();

    // Freed blocks leave the in-use figure but not the capacity.
    const std::size_t capacity = eba.memory_capacity_bytes();
    for (VertexId d = 0; d < 7 * 49; ++d) {
        eba.erase(tops[49], d);
    }
    EXPECT_EQ(eba.memory_bytes(), in_use());
    EXPECT_EQ(eba.memory_capacity_bytes(), capacity);
}

TEST(EdgeblockArena, EmptyStoreAllocatesNoArena) {
    const GraphTinker g;
    const auto mem = g.memory_footprint();
    EXPECT_EQ(mem.edgeblock_capacity_bytes, 0u);
    EXPECT_EQ(mem.cal_capacity_bytes, 0u);
}

TEST(EdgeblockArena, GrowthFailureAtChunkBoundaryLeavesArenaUntouched) {
    // Compact-delete mode so a rolled-back insert returns its block to the
    // free list instead of leaving a tombstone behind.
    Config cfg;
    cfg.deletion_mode = DeletionMode::DeleteAndCompact;
    GraphTinker g(cfg);
    const test::ScopedAudit audit(g, "chunk-boundary rollback");
    const EdgeblockArray& eba = g.edgeblock_array();
    // One edge per vertex: each vertex holds exactly one small root and no
    // full block exists. Fill until the small arena is exactly full, past
    // its first chunk boundary.
    VertexId next = 0;
    const auto full = [&] {
        return eba.small_blocks_allocated() * eba.small_block_bytes() ==
               eba.memory_capacity_bytes();
    };
    do {
        ASSERT_TRUE(g.insert_edge(next++, 0, 1));
    } while (!full() || eba.small_blocks_allocated() < 100);
    ASSERT_EQ(eba.small_blocks_allocated(), 64u + 128u);
    ASSERT_EQ(eba.blocks_allocated(), 0u);
    // Free exactly one block: the batch below may use it, and the insert
    // after that needs a new chunk.
    ASSERT_TRUE(g.delete_edge(0, 0));
    ASSERT_EQ(eba.small_blocks_in_use(), eba.small_blocks_allocated() - 1);

    const std::uint64_t digest = Auditor::arena_digest(g);
    const auto edges = g.num_edges();
    // Weight updates apply first (sources sort ahead), then vertex `next`
    // takes the free-listed block, then vertex `next + 1` needs growth.
    std::vector<Edge> batch;
    for (VertexId v = 1; v < 60; ++v) {
        batch.push_back(Edge{v, 0, 7});
    }
    batch.push_back(Edge{next, 1, 1});
    batch.push_back(Edge{next + 1, 1, 1});
    {
        fail::ScopedFailPoint fp("eba.grow", 1);
        const Status st = g.insert_batch(batch);
        ASSERT_EQ(st.code, StatusCode::FaultInjected);
        EXPECT_EQ(st.detail, 60u);  // journaled: 59 updates + one insert
    }
    EXPECT_EQ(Auditor::arena_digest(g), digest);
    EXPECT_EQ(g.num_edges(), edges);
    EXPECT_EQ(g.find_edge(1, 0), std::optional<Weight>(1));
    audit.check();

    // With the fault gone the same batch grows the arena and succeeds.
    ASSERT_TRUE(g.insert_batch(batch).ok());
    EXPECT_EQ(eba.small_blocks_allocated(), 64u + 128u + 1u);
    EXPECT_NE(Auditor::arena_digest(g), digest);
    EXPECT_EQ(g.find_edge(1, 0), std::optional<Weight>(7));
    EXPECT_EQ(g.num_edges(), edges + 2);
}

}  // namespace
}  // namespace gt::core
