// Shard-parallel analytics over ShardedStore (extension).
//
// The paper parallelizes *updates* by loading hash-partitioned intervals of
// the edge stream into independent GraphTinker instances (Fig. 6). This
// engine extends the same decomposition to the analytics side: each shard
// scatters its own edges on its own worker, reducing into per-worker message
// buffers that are merged before the (serial) apply phase. Results are
// bit-identical to the serial engine because reduce is associative and
// commutative for every shipped algorithm.
//
// Modes mirror the serial hybrid engine: full processing streams each
// shard's compact CAL; incremental processing walks the out-edges of the
// active vertices owned by each shard.
//
// Batch seeding, the mode decision, the apply phase and telemetry are the
// serial engine's own (EngineState in hybrid_engine.hpp), so both engines
// seed a batch the same way, honour every ModePolicy through one
// infer_mode, and publish the same "engine.trace" rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/sharded.hpp"
#include "engine/hybrid_engine.hpp"
#include "util/active_set.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace gt::engine {

template <typename Store, typename Alg>
class ParallelDynamicAnalysis {
public:
    using Property = typename Alg::Property;
    using Sharded = core::ShardedStore<Store>;

    explicit ParallelDynamicAnalysis(const Sharded& store,
                                     EngineOptions opts = {}, Alg alg = {})
        : store_(store),
          st_(alg, opts),
          pool_(store.num_shards()),
          locals_(store.num_shards()) {}

    void set_root(VertexId root) { st_.set_root(root); }

    RunStats on_batch(std::span<const Edge> batch) {
        st_.grow(bound_from_store());
        RunStats stats = st_.seed(batch);
        stats.accumulate(run());
        return stats;
    }

    RunStats run_from_scratch() {
        st_.reset(bound_from_store());
        return run();
    }

    [[nodiscard]] Property property(VertexId v) const {
        return st_.property(v);
    }
    [[nodiscard]] std::size_t num_workers() const noexcept {
        return pool_.size();
    }

private:
    /// Per-worker scatter buffer: dense message array plus touched list.
    struct Local {
        std::vector<Property> temp;
        ActiveSet touched;
        std::uint64_t streamed = 0;
    };

    [[nodiscard]] VertexId bound_from_store() const {
        VertexId bound = 0;
        for (std::size_t s = 0; s < store_.num_shards(); ++s) {
            bound = std::max(bound, store_.shard(s).num_vertices());
        }
        return bound;
    }

    RunStats run() {
        RunStats stats;
        const std::size_t shards = store_.num_shards();
        const auto degree_of = [&](VertexId v) {
            return store_.shard(Sharded::shard_of(v, shards)).degree(v);
        };
        for (Local& local : locals_) {
            local.temp.resize(st_.props.size());
        }
        // Active vertices grouped by owning shard (incremental mode).
        std::vector<std::vector<VertexId>> by_shard(shards);
        while (!st_.active.empty()) {
            Timer timer;
            const ModeDecision decision =
                st_.infer_mode(store_.num_edges(), degree_of);
            const Mode mode = decision.mode;
            const std::size_t processed = st_.active.size();

            // --- parallel scatter phase ------------------------------
            if (mode == Mode::Incremental) {
                for (auto& bucket : by_shard) {
                    bucket.clear();
                }
                for (VertexId u : st_.active.vertices()) {
                    by_shard[Sharded::shard_of(u, shards)].push_back(u);
                }
            }
            pool_.for_each_worker([&](std::size_t s) {
                Local& local = locals_[s];
                local.touched.clear();
                local.streamed = 0;
                auto scatter = [&](VertexId u, VertexId v, Weight w) {
                    if (const auto msg =
                            st_.alg.process_edge(u, st_.props[u], w)) {
                        if (local.touched.insert(v)) {
                            local.temp[v] = *msg;
                        } else {
                            local.temp[v] =
                                st_.alg.reduce(local.temp[v], *msg);
                        }
                    }
                };
                if (mode == Mode::Incremental) {
                    for (VertexId u : by_shard[s]) {
                        store_.shard(s).visit_out_edges(
                            u, [&](VertexId v, Weight w) {
                                ++local.streamed;
                                scatter(u, v, w);
                            });
                    }
                } else {
                    store_.shard(s).visit_edges(
                        [&](VertexId u, VertexId v, Weight w) {
                            ++local.streamed;
                            if (st_.active.contains(u)) {
                                scatter(u, v, w);
                            }
                        });
                }
            });

            // --- merge worker buffers (serial, associative reduce) ----
            st_.touched.clear();
            std::uint64_t streamed = 0;
            for (Local& local : locals_) {
                streamed += local.streamed;
                for (VertexId v : local.touched.vertices()) {
                    st_.scatter(v, local.temp[v]);
                }
            }

            const std::uint64_t logical = mode == Mode::Incremental
                                              ? streamed
                                              : st_.active_degree(degree_of);

            // --- post-scatter hook + apply phase ----------------------
            st_.commit();
            st_.record(stats, decision, processed, streamed, logical,
                       timer.seconds());
        }
        return stats;
    }

    const Sharded& store_;
    EngineState<Alg> st_;
    ThreadPool pool_;
    std::vector<Local> locals_;
};

}  // namespace gt::engine
