// Shared driver for Figs 11/12/13: per-dataset analytics throughput with the
// hybrid engine over GraphTinker (FP / IP / hybrid) and STINGER (FP).
//
// Protocol (§V.B): edges load in batches; after every batch the analysis
// runs to fixpoint on the current graph. Graphs are symmetrized at ingest
// (DESIGN.md §3.6). Throughput is logical edges per engine second, a
// mode-independent work measure, so columns are directly comparable.
// `logical(M)` is that work and `GT-hyb(s)` the hybrid run's engine seconds,
// so throughput can be compared across engine versions whose work differs.
//
// Expected shapes (paper): GT-FP up to ~10x STINGER-FP; hybrid >= both pure
// GT modes on every dataset; IP occasionally loses to FP (e.g. CC on
// RMAT_500K_8M) when iterations activate very many vertices.
#pragma once

#include <iostream>

#include "common/drivers.hpp"
#include "common/harness.hpp"
#include "core/graphtinker.hpp"
#include "engine/reference.hpp"
#include "stinger/stinger.hpp"
#include "util/table.hpp"

namespace gt::bench {

template <typename Alg>
int run_analytics_figure(const std::string& figure,
                         const std::string& description) {
    banner(figure, description);

    Table table({"dataset", "GT-FP(Meps)", "GT-IP(Meps)", "GT-hybrid(Meps)",
                 "GT-hybDeg(Meps)", "STINGER-FP(Meps)", "GTFP/ST",
                 "hyb/best", "hybDeg/best", "logical(M)", "GT-hyb(s)"});
    for (const DatasetSpec& spec : scaled_datasets()) {
        const auto edges = engine::symmetrize(spec.generate());
        const std::size_t batch = batch_size() * 2;  // symmetrized stream
        const VertexId root = max_degree_vertex(edges);

        auto gt_run = [&](engine::ModePolicy policy) {
            core::GraphTinker store(
                gt_config(spec.num_vertices, edges.size()));
            return dynamic_analytics<Alg>(store, edges, batch, policy, root);
        };
        const auto full = gt_run(engine::ModePolicy::ForceFull);
        const auto incr = gt_run(engine::ModePolicy::ForceIncremental);
        const auto hybrid = gt_run(engine::ModePolicy::Hybrid);
        const auto hybrid_deg = gt_run(engine::ModePolicy::HybridDegreeAware);
        stinger::Stinger baseline(
            st_config(spec.num_vertices, edges.size()));
        const auto st_full = dynamic_analytics<Alg>(
            baseline, edges, batch, engine::ModePolicy::ForceFull, root);

        const double f = full.throughput_meps();
        const double i = incr.throughput_meps();
        const double h = hybrid.throughput_meps();
        const double hd = hybrid_deg.throughput_meps();
        const double s = st_full.throughput_meps();
        table.add_row({spec.name, Table::fmt(f, 2), Table::fmt(i, 2),
                       Table::fmt(h, 2), Table::fmt(hd, 2), Table::fmt(s, 2),
                       Table::fmt(s > 0 ? f / s : 0, 2) + "x",
                       Table::fmt(h / std::max(f, i), 2) + "x",
                       Table::fmt(hd / std::max(f, i), 2) + "x",
                       Table::fmt(static_cast<double>(hybrid.logical_edges) /
                                      1e6, 2),
                       Table::fmt(hybrid.seconds, 3)});
    }
    table.print(std::cout);
    return 0;
}

}  // namespace gt::bench
