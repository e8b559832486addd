// Tests for the EdgeblockArray's small-vertex tier: a vertex's root starts
// as one subblock-sized small block, is promoted to a full edgeblock when
// an absent edge finds its window full, and is demoted back by a tombstone
// purge once its live edges fit one subblock. Covers the exact promotion
// point, demotion, the transactional growth contract at a promotion, a
// seeded differential run against a std::map reference, the audit's
// small-tier invariant and the telemetry that reports both tiers.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/scoped_audit.hpp"
#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace gt::core {
namespace {

std::uint64_t counter(const GraphTinker& g, const char* name) {
    return g.telemetry().counter_value(name);
}

TEST(SmallTier, PromotesAtSubblockPlusOneDistinctDestinations) {
    GraphTinker g;  // paper geometry: 64-cell blocks, 8-cell subblocks
    const test::ScopedAudit audit(g, "promotion");
    const EdgeblockArray& eba = g.edgeblock_array();
    const std::uint32_t subblock = g.config().subblock;
    for (VertexId d = 0; d < subblock; ++d) {
        ASSERT_TRUE(g.insert_edge(7, 100 + d, d + 1));
        EXPECT_EQ(eba.small_blocks_in_use(), 1u) << d;
        EXPECT_EQ(eba.blocks_in_use(), 0u) << d;
    }
    // Weight updates on the full window change nothing structural.
    for (VertexId d = 0; d < subblock; ++d) {
        EXPECT_FALSE(g.insert_edge(7, 100 + d, 50 + d));
    }
    EXPECT_EQ(counter(g, "eba.promotions"), 0u);
    EXPECT_EQ(g.tree_depth(7), 1u);

    ASSERT_TRUE(g.insert_edge(7, 100 + subblock, 99));
    EXPECT_EQ(counter(g, "eba.promotions"), 1u);
    EXPECT_EQ(eba.small_blocks_in_use(), 0u);
    EXPECT_GE(eba.blocks_in_use(), 1u);
    for (VertexId d = 0; d < subblock; ++d) {
        EXPECT_EQ(g.find_edge(7, 100 + d), std::optional<Weight>(50 + d));
    }
    EXPECT_EQ(g.find_edge(7, 100 + subblock), std::optional<Weight>(99));
    EXPECT_EQ(g.degree(7), subblock + 1);
    // The audit walks every cell's CAL copy and every CAL slot's owner
    // back to its cell, so moved residents must have been re-bound.
    const AuditReport report = g.audit();
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_EQ(report.cal_slots_audited, subblock + 1);
}

TEST(SmallTier, ReusableCellsAbsorbInsertsWithoutPromoting) {
    for (const DeletionMode mode :
         {DeletionMode::DeleteOnly, DeletionMode::DeleteAndCompact}) {
        Config cfg;
        cfg.deletion_mode = mode;
        GraphTinker g(cfg);
        const test::ScopedAudit audit(g, "reuse");
        for (VertexId d = 0; d < cfg.subblock; ++d) {
            ASSERT_TRUE(g.insert_edge(1, d, 1));
        }
        // A tombstone (delete-only) or a hole (compact) takes the next edge.
        ASSERT_TRUE(g.delete_edge(1, 3));
        ASSERT_TRUE(g.insert_edge(1, 1000, 2));
        EXPECT_EQ(counter(g, "eba.promotions"), 0u)
            << "mode " << static_cast<int>(mode);
        EXPECT_EQ(g.edgeblock_array().blocks_in_use(), 0u);
        EXPECT_EQ(g.find_edge(1, 1000), std::optional<Weight>(2));
        EXPECT_FALSE(g.find_edge(1, 3).has_value());
    }
}

TEST(SmallTier, CompactEraseOfTheLastEdgeFreesTheSmallRoot) {
    Config cfg;
    cfg.deletion_mode = DeletionMode::DeleteAndCompact;
    GraphTinker g(cfg);
    const test::ScopedAudit audit(g, "compact erase");
    ASSERT_TRUE(g.insert_edge(4, 1, 1));
    ASSERT_TRUE(g.insert_edge(4, 2, 1));
    ASSERT_TRUE(g.delete_edge(4, 1));
    EXPECT_EQ(g.edgeblock_array().small_blocks_in_use(), 1u);
    ASSERT_TRUE(g.delete_edge(4, 2));
    EXPECT_EQ(g.edgeblock_array().small_blocks_in_use(), 0u);
    EXPECT_EQ(g.tree_depth(4), 0u);
    ASSERT_TRUE(g.insert_edge(4, 3, 5));
    EXPECT_EQ(g.find_edge(4, 3), std::optional<Weight>(5));
}

TEST(SmallTier, PurgeDemotesTreesThatFitOneSubblock) {
    GraphTinker g;  // delete-only: erase leaves tombstones for the purge
    const test::ScopedAudit audit(g, "demotion");
    const EdgeblockArray& eba = g.edgeblock_array();
    const std::uint32_t subblock = g.config().subblock;
    // Vertex 1 falls to exactly one subblock of live edges, vertex 2 to one
    // more than that.
    for (VertexId d = 0; d < 40; ++d) {
        ASSERT_TRUE(g.insert_edge(1, d, d + 1));
        ASSERT_TRUE(g.insert_edge(2, d, d + 1));
    }
    for (VertexId d = subblock; d < 40; ++d) {
        ASSERT_TRUE(g.delete_edge(1, d));
    }
    for (VertexId d = subblock + 1; d < 40; ++d) {
        ASSERT_TRUE(g.delete_edge(2, d));
    }
    EXPECT_EQ(eba.small_blocks_in_use(), 0u);
    const MaintenanceReport report = g.maintain();
    EXPECT_EQ(report.trees_purged, 2u);
    EXPECT_EQ(counter(g, "eba.demotions"), 1u);
    EXPECT_EQ(eba.small_blocks_in_use(), 1u);
    EXPECT_EQ(g.tree_depth(1), 1u);
    EXPECT_GE(g.tree_depth(2), 1u);
    EXPECT_GE(eba.blocks_in_use(), 1u);  // vertex 2 keeps a full root
    EXPECT_EQ(eba.tombstones_in_arena(), 0u);
    for (VertexId d = 0; d < 40; ++d) {
        EXPECT_EQ(g.find_edge(1, d).has_value(), d < subblock) << d;
        EXPECT_EQ(g.find_edge(2, d).has_value(), d <= subblock) << d;
    }
    // The demoted root still promotes on the next distinct destination.
    ASSERT_TRUE(g.insert_edge(1, 500, 1));
    EXPECT_EQ(counter(g, "eba.promotions"), 3u);  // 1, 2, then 1 again
}

TEST(SmallTier, GrowthFailureAtPromotionLeavesArenaUntouched) {
    GraphTinker g;
    const test::ScopedAudit audit(g, "promotion rollback");
    const EdgeblockArray& eba = g.edgeblock_array();
    const std::uint32_t subblock = g.config().subblock;
    // Vertex kFull holds a full small window: its next distinct edge
    // promotes.
    constexpr VertexId kFull = 1000;
    for (VertexId d = 0; d < subblock; ++d) {
        ASSERT_TRUE(g.insert_edge(kFull, d, 1));
    }
    // Promote vertices until one full block is left in the first 64-block
    // chunk: enough for a weight update under a full root, one short of a
    // promotion (its block plus a possible branch-out child).
    VertexId next = 0;
    while (eba.blocks_allocated() < 63) {
        for (VertexId d = 0; d <= subblock; ++d) {
            ASSERT_TRUE(g.insert_edge(next, d, 1));
        }
        ++next;
    }
    ASSERT_EQ(eba.blocks_allocated(), 63u);
    ASSERT_EQ(eba.blocks_in_use(), 63u);

    const std::uint64_t digest = Auditor::arena_digest(g);
    const auto edges = g.num_edges();
    const auto promotions = counter(g, "eba.promotions");
    const std::size_t capacity = eba.memory_capacity_bytes();
    // Weight updates apply first (sources sort ahead), then kFull promotes.
    std::vector<Edge> batch;
    for (VertexId v = 0; v < 40; ++v) {
        batch.push_back(Edge{v, 0, 7});
    }
    batch.push_back(Edge{kFull, subblock, 3});
    {
        fail::ScopedFailPoint fp("eba.grow", 1);
        const Status st = g.insert_batch(batch);
        ASSERT_EQ(st.code, StatusCode::FaultInjected);
        EXPECT_EQ(st.detail, 40u);  // journaled: the 40 weight updates
    }
    EXPECT_EQ(Auditor::arena_digest(g), digest);
    EXPECT_EQ(g.num_edges(), edges);
    EXPECT_EQ(counter(g, "eba.promotions"), promotions);
    EXPECT_EQ(g.find_edge(0, 0), std::optional<Weight>(1));
    EXPECT_FALSE(g.find_edge(kFull, subblock).has_value());
    audit.check();

    // With the fault gone the same batch grows the arena and promotes.
    ASSERT_TRUE(g.insert_batch(batch).ok());
    EXPECT_EQ(counter(g, "eba.promotions"), promotions + 1);
    EXPECT_GT(eba.memory_capacity_bytes(), capacity);
    EXPECT_EQ(g.find_edge(kFull, subblock), std::optional<Weight>(3));
    EXPECT_EQ(g.find_edge(0, 0), std::optional<Weight>(7));
    EXPECT_EQ(g.num_edges(), edges + 1);
}

TEST(SmallTier, OffWhenPagewidthEqualsSubblock) {
    Config cfg;
    cfg.pagewidth = 8;
    cfg.subblock = 8;
    GraphTinker g(cfg);
    const test::ScopedAudit audit(g, "no tier");
    for (VertexId d = 0; d < 100; ++d) {
        ASSERT_TRUE(g.insert_edge(3, d, 1));
        ASSERT_TRUE(g.insert_edge(d + 10, 3, 1));
    }
    EXPECT_EQ(g.edgeblock_array().small_blocks_allocated(), 0u);
    EXPECT_EQ(counter(g, "eba.promotions"), 0u);
    EXPECT_GT(g.edgeblock_array().blocks_in_use(), 100u);
}

TEST(SmallTier, AuditFlagsSmallBlockBelowRoot) {
    GraphTinker g;
    for (VertexId d = 0; d < 20; ++d) {
        ASSERT_TRUE(g.insert_edge(5, d, 1));  // promoted: a full root
    }
    ASSERT_TRUE(g.insert_edge(6, 1, 1));  // a small root
    ASSERT_TRUE(g.audit().ok());
    EXPECT_FALSE(CorruptionInjector::hang_small_child(g, 6));
    ASSERT_TRUE(CorruptionInjector::hang_small_child(g, 5));
    const AuditReport report = g.audit();
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(AuditCheck::SmallTier)) << report.to_string();
}

TEST(SmallTier, TelemetryCountsBothTiers) {
    GraphTinker g;
    for (VertexId v = 0; v < 30; ++v) {
        for (VertexId d = 0; d < v; ++d) {
            ASSERT_TRUE(g.insert_edge(v, d, 1));
        }
    }
    const EdgeblockArray& eba = g.edgeblock_array();
    ASSERT_GT(eba.small_blocks_in_use(), 0u);
    ASSERT_GT(eba.blocks_in_use(), 0u);
    const obs::Snapshot snap = g.telemetry();
    EXPECT_DOUBLE_EQ(snap.gauge_value("eba.small_blocks_in_use"),
                     static_cast<double>(eba.small_blocks_in_use()));
    EXPECT_DOUBLE_EQ(snap.gauge_value("eba.blocks_in_use"),
                     static_cast<double>(eba.blocks_in_use()));
    EXPECT_EQ(eba.memory_bytes(),
              eba.blocks_in_use() * eba.full_block_bytes() +
                  eba.small_blocks_in_use() * eba.small_block_bytes());
    EXPECT_DOUBLE_EQ(snap.gauge_value("mem.edgeblock_bytes"),
                     static_cast<double>(
                         g.memory_footprint().edgeblock_bytes));
    EXPECT_EQ(g.memory_footprint().edgeblock_bytes,
              eba.memory_bytes() +
                  g.num_nonempty_vertices() * sizeof(std::uint32_t));
    EXPECT_EQ(snap.counter_value("eba.promotions"), 30u - 9u);
}

struct DiffParam {
    DeletionMode mode;
    bool sgh;
};

class SmallTierDifferential : public ::testing::TestWithParam<DiffParam> {};

TEST_P(SmallTierDifferential, OscillatingDegreesMatchReference) {
    Config cfg;
    cfg.deletion_mode = GetParam().mode;
    cfg.enable_sgh = GetParam().sgh;
    GraphTinker g(cfg);
    const test::ScopedAudit audit(g, "differential");
    std::map<std::pair<VertexId, VertexId>, Weight> ref;
    std::map<VertexId, std::uint32_t> degree;

    // Each vertex climbs to a degree above the subblock, falls back below
    // it, and climbs again, so roots promote and (after purges) demote
    // repeatedly. Destinations come from a small range so repeats update
    // weights and deletes of absent edges happen too.
    constexpr VertexId kVertices = 40;
    constexpr VertexId kDsts = 48;
    std::vector<bool> rising(kVertices, true);
    Rng rng(0x5eedULL + static_cast<std::uint64_t>(GetParam().mode) * 2 +
            (GetParam().sgh ? 1 : 0));
    for (int round = 0; round < 300; ++round) {
        std::vector<Edge> inserts;
        std::vector<Edge> deletes;
        for (int i = 0; i < 40; ++i) {
            const auto v = static_cast<VertexId>(rng.next_below(kVertices));
            const VertexId src = v * 3 + 1;  // sparse ids exercise SGH
            const auto dst = static_cast<VertexId>(rng.next_below(kDsts));
            if (rising[v]) {
                inserts.push_back(
                    Edge{src, dst, static_cast<Weight>(1 + rng.next_below(90))});
            } else {
                deletes.push_back(Edge{src, dst, 0});
            }
        }
        // Alternate solo and batched application.
        if (round % 2 == 0) {
            for (const Edge& e : inserts) {
                (void)g.insert_edge(e.src, e.dst, e.weight);
            }
            for (const Edge& e : deletes) {
                (void)g.delete_edge(e.src, e.dst);
            }
        } else {
            ASSERT_TRUE(g.insert_batch(inserts).ok());
            ASSERT_TRUE(g.delete_batch(deletes).ok());
        }
        for (const Edge& e : inserts) {
            if (ref.insert_or_assign({e.src, e.dst}, e.weight).second) {
                ++degree[e.src];
            }
        }
        for (const Edge& e : deletes) {
            if (ref.erase({e.src, e.dst}) != 0) {
                --degree[e.src];
            }
        }
        for (VertexId v = 0; v < kVertices; ++v) {
            const std::uint32_t d = degree[v * 3 + 1];
            if (d >= cfg.subblock + 6) {
                rising[v] = false;
            } else if (d <= cfg.subblock / 2) {
                rising[v] = true;
            }
        }
        if (round % 25 == 24) {
            (void)g.maintain();
            audit.check();
        } else if (round % 5 == 4) {
            (void)g.maintain_some(512);
        }
    }
    ASSERT_EQ(g.num_edges(), ref.size());
    std::map<std::pair<VertexId, VertexId>, Weight> seen;
    for (VertexId v = 0; v < kVertices; ++v) {
        const VertexId src = v * 3 + 1;
        EXPECT_EQ(g.degree(src), degree[src]) << src;
        g.visit_out_edges(src, [&](VertexId dst, Weight w) {
            EXPECT_TRUE(seen.emplace(std::pair{src, dst}, w).second);
        });
        for (VertexId dst = 0; dst < kDsts; ++dst) {
            const auto it = ref.find({src, dst});
            const auto got = g.find_edge(src, dst);
            ASSERT_EQ(got.has_value(), it != ref.end()) << src << "->" << dst;
            if (got) {
                EXPECT_EQ(*got, it->second);
            }
        }
    }
    EXPECT_EQ(seen, ref);
    EXPECT_GT(counter(g, "eba.promotions"), 0u);
    if (GetParam().mode == DeletionMode::DeleteOnly) {
        EXPECT_GT(counter(g, "eba.demotions"), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSgh, SmallTierDifferential,
    ::testing::Values(DiffParam{DeletionMode::DeleteOnly, true},
                      DiffParam{DeletionMode::DeleteOnly, false},
                      DiffParam{DeletionMode::DeleteAndCompact, true},
                      DiffParam{DeletionMode::DeleteAndCompact, false}),
    [](const auto& info) {
        return std::string(info.param.mode == DeletionMode::DeleteOnly
                               ? "delete_only"
                               : "delete_and_compact") +
               (info.param.sgh ? "_sgh" : "_nosgh");
    });

}  // namespace
}  // namespace gt::core
