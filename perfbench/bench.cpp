// gt_perfbench — runs the workloads of the repository benchmark.
//
// Runs one workload for a fixed measurement window, built only from the
// public APIs in src/, and writes what it measured to <out>/result.json
// (raw samples, counters, correctness checks and run metadata). With
// --trace 1 it records bench-side spans around every call into a layer,
// runs the side passes the per-layer metrics need, and writes the spans to
// --spans. run.py turns both files into the reported metrics; README.md
// explains the workloads and layers.
//
//   gt_perfbench --workload rmat_analytics|uniform_churn|served_ingest
//                --seed N --seconds S --trace 0|1 --scale full|tiny
//                --out DIR [--spans FILE]
//
// Every workload generates its whole input from --seed before any timing
// starts; input generation is never timed.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "core/audit.hpp"
#include "core/graphtinker.hpp"
#include "core/sharded.hpp"
#include "engine/algorithms.hpp"
#include "engine/hybrid_engine.hpp"
#include "engine/reference.hpp"
#include "gen/datasets.hpp"
#include "gen/rmat.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "recover/durable.hpp"
#include "util/types.hpp"

namespace {

using namespace gt;
namespace fs = std::filesystem;

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double seconds_since(std::uint64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---- spans -----------------------------------------------------------------

/// One timed call into a layer. `parent` indexes the enclosing span of the
/// same tracer (-1 for a root); `op` ties together spans of one logical
/// operation, including side-pass spans that replay it later.
struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;
    std::uint64_t op;
};

/// In-memory span buffer for one thread. A disabled tracer records nothing,
/// so the untraced run pays one branch per call site. A traced run switches
/// recording off for every other unit of work (batch, round or cycle), so
/// the tracing overhead is measured inside one process.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled), recording_(enabled) {
        if (enabled_) {
            spans_.reserve(1 << 16);
        }
    }

    [[nodiscard]] bool enabled() const { return enabled_; }
    [[nodiscard]] bool recording() const { return recording_; }
    void set_recording(bool on) { recording_ = enabled_ && on; }

    [[nodiscard]] std::int64_t open(const char* name, std::uint64_t op,
                                    std::int64_t parent = -1) {
        if (!recording_) {
            return -1;
        }
        spans_.push_back(Span{name, now_ns(), 0, parent, op});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }
    void close(std::int64_t id) {
        if (id >= 0) {
            spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
        }
    }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    bool enabled_;
    bool recording_;
    std::vector<Span> spans_;
};

class Scope {
public:
    Scope(Tracer& t, const char* name, std::uint64_t op,
          std::int64_t parent = -1)
        : t_(t), id_(t.open(name, op, parent)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int64_t id() const { return id_; }

private:
    Tracer& t_;
    std::int64_t id_;
};

/// Writes the spans of several tracers as JSON lines, renumbering parent
/// indexes into one id space.
void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
    std::ofstream out(path);
    std::int64_t base = 0;
    for (const Tracer* t : tracers) {
        for (std::size_t i = 0; i < t->spans().size(); ++i) {
            const Span& s = t->spans()[i];
            out << "{\"id\":" << base + static_cast<std::int64_t>(i)
                << ",\"name\":\"" << s.name << "\",\"start_ns\":"
                << s.start_ns << ",\"end_ns\":" << s.end_ns
                << ",\"parent\":" << (s.parent < 0 ? -1 : base + s.parent)
                << ",\"op\":" << s.op << "}\n";
        }
        base += static_cast<std::int64_t>(t->spans().size());
    }
}

// ---- results ---------------------------------------------------------------

struct Check {
    std::string name;
    bool ok;
    std::string detail;
};

/// Everything one workload run hands to run.py.
struct Result {
    std::map<std::string, std::string> meta;
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> scalars;
    std::vector<Check> checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void check(std::string name, bool ok, std::string detail = {}) {
        if (!ok) {
            std::fprintf(stderr, "check FAILED: %s %s\n", name.c_str(),
                         detail.c_str());
        }
        checks.push_back(Check{std::move(name), ok, std::move(detail)});
    }

    /// In a traced run, files the time of one root unit of work under the
    /// half it ran in (spans recorded or not), for trace.overhead_pct.
    void root_sample(const Tracer& tr, double ms) {
        if (tr.enabled()) {
            samples[tr.recording() ? "root_ms_traced" : "root_ms_untraced"]
                .push_back(ms);
        }
    }
};

void write_result(const std::string& path, const Result& r) {
    std::ofstream out(path);
    obs::JsonWriter w(out);
    w.begin_object();
    w.key("meta").begin_object();
    for (const auto& [k, v] : r.meta) {
        w.member(k, v);
    }
    w.end_object();
    w.key("samples").begin_object();
    for (const auto& [k, vs] : r.samples) {
        w.key(k).begin_array();
        for (const double v : vs) {
            w.value(v);
        }
        w.end_array();
    }
    w.end_object();
    w.key("scalars").begin_object();
    for (const auto& [k, v] : r.scalars) {
        w.member(k, v);
    }
    w.end_object();
    w.key("checks").begin_array();
    for (const Check& c : r.checks) {
        w.begin_object()
            .member("name", c.name)
            .member("ok", c.ok)
            .member("detail", c.detail)
            .end_object();
    }
    w.end_array();
    w.member("attempted", r.attempted).member("failed", r.failed);
    w.end_object();
    w.finish();
}

// ---- shared helpers --------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string out_dir;
    std::string spans_path;
};

double live_bytes_per_edge(const core::GraphTinker& g) {
    return g.memory_footprint().bytes_per_edge(g.num_edges());
}

std::uint64_t counter(const core::GraphTinker& g, const char* name) {
    return g.telemetry().counter_value(name);
}

std::uint64_t edge_key(const Edge& e) {
    return (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
}

/// Sorted distinct (src, dst) keys of `edges`.
std::vector<std::uint64_t> distinct_keys(std::span<const Edge> edges) {
    std::vector<std::uint64_t> keys;
    keys.reserve(edges.size());
    for (const Edge& e : edges) {
        keys.push_back(edge_key(e));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
}

// ---- rmat_analytics --------------------------------------------------------
//
// The paper's §V.B protocol: one thread streams an RMAT graph in batches
// through GraphTinker::insert_batch and brings BFS and CC current after
// every batch with DynamicAnalysis (default EngineOptions). One pass ingests
// the whole stream into a fresh store; passes repeat while another one fits
// in the window.

using Bfs = engine::DynamicAnalysis<core::GraphTinker, engine::Bfs>;
using Cc = engine::DynamicAnalysis<core::GraphTinker, engine::Cc>;

void run_rmat(const Args& a, Result& r, Tracer& tr) {
    const VertexId n = a.tiny ? (1U << 10) : (1U << 18);
    const EdgeCount generated = a.tiny ? 8'000 : 1'500'000;
    const std::size_t num_batches = a.tiny ? 10 : 100;
    // Symmetrized so CC computes weakly connected components and BFS
    // follows undirected reachability, as the analytics figures do.
    const std::vector<Edge> stream =
        engine::symmetrize(rmat_edges(n, generated, a.seed));
    const std::size_t batch = (stream.size() + num_batches - 1) / num_batches;

    std::vector<std::uint32_t> degree(n, 0);
    for (const Edge& e : stream) {
        ++degree[e.src];
    }
    const auto root = static_cast<VertexId>(
        std::max_element(degree.begin(), degree.end()) - degree.begin());

    std::vector<double> setup_s;
    std::vector<double> batch_ms;
    double measured_s = 0.0;
    std::uint64_t applied = 0;
    std::uint64_t op = 0;
    engine::RunStats engine_stats;
    // Set-up builds the store and both analyses. Members are destroyed in
    // reverse order, so the analyses go before the store they read.
    struct Instance {
        std::unique_ptr<core::GraphTinker> g;
        std::unique_ptr<Bfs> bfs;
        std::unique_ptr<Cc> cc;
    };
    const auto set_up = [&] {
        const std::uint64_t start = now_ns();
        Instance in;
        in.g = std::make_unique<core::GraphTinker>();
        in.bfs = std::make_unique<Bfs>(*in.g);
        in.bfs->set_root(root);
        in.cc = std::make_unique<Cc>(*in.g);
        setup_s.push_back(seconds_since(start));
        return in;
    };
    std::optional<Instance> cur;

    // Whole passes only, so every pass contributes the same batch-size
    // mix; another pass starts only if it should end inside the window.
    const std::uint64_t window_start = now_ns();
    std::size_t passes = 0;
    double pass_s = 0.0;
    while (passes == 0 ||
           seconds_since(window_start) + pass_s <= a.seconds) {
        const std::uint64_t pass_start = now_ns();
        cur.reset();
        cur.emplace(set_up());
        for (std::size_t off = 0; off < stream.size(); off += batch, ++op) {
            const std::span<const Edge> b = std::span<const Edge>(stream).subspan(
                off, std::min(batch, stream.size() - off));
            // Every other batch is traced; the parity flips each pass so
            // both halves cover every batch position.
            tr.set_recording((off / batch + passes) % 2 == 0);
            const std::uint64_t start = now_ns();
            Scope s(tr, "batch", op);
            Status st;
            {
                Scope c(tr, "core.insert_batch", op, s.id());
                st = cur->g->insert_batch(b);
            }
            ++r.attempted;
            if (!st.ok()) {
                ++r.failed;
                continue;
            }
            {
                Scope e(tr, "engine.bfs", op, s.id());
                engine_stats.accumulate(cur->bfs->on_batch(b));
            }
            {
                Scope e(tr, "engine.cc", op, s.id());
                engine_stats.accumulate(cur->cc->on_batch(b));
            }
            const double secs = seconds_since(start);
            batch_ms.push_back(secs * 1e3);
            r.root_sample(tr, secs * 1e3);
            measured_s += secs;
            applied += b.size();
            // Set-up takes microseconds, and on a shared host its time
            // follows the host's state, which changes every few seconds. A
            // throwaway set-up after every batch spreads the samples over
            // the whole window, as the batch samples are.
            (void)set_up();
        }
        ++passes;
        pass_s = seconds_since(pass_start);
    }
    // Correctness: the last pass ingested the whole stream; its analytics
    // must equal the textbook oracles on a CSR snapshot of that stream.
    const engine::CsrSnapshot csr(stream, cur->g->num_vertices());
    const std::vector<std::uint32_t> want_bfs = engine::reference_bfs(csr, root);
    const std::vector<std::uint32_t> want_cc = engine::reference_cc(csr);
    std::size_t bfs_bad = 0;
    std::size_t cc_bad = 0;
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
        bfs_bad += cur->bfs->property(v) != want_bfs[v] ? 1 : 0;
        cc_bad += cur->cc->property(v) != want_cc[v] ? 1 : 0;
    }
    r.check("rmat.bfs_matches_reference", bfs_bad == 0,
            std::to_string(bfs_bad) + " vertices differ");
    r.check("rmat.cc_matches_reference", cc_bad == 0,
            std::to_string(cc_bad) + " vertices differ");
    r.check("rmat.edge_count_matches_reference",
            cur->g->num_edges() == csr.num_edges(),
            std::to_string(cur->g->num_edges()) + " vs " +
                std::to_string(csr.num_edges()));

    r.samples["setup_s"] = setup_s;
    r.samples["batch_ms"] = batch_ms;
    r.scalars["update_eps"] = static_cast<double>(applied) / measured_s;
    r.scalars["bytes_per_edge"] = live_bytes_per_edge(*cur->g);
    r.scalars["core.cells_probed_per_update"] =
        static_cast<double>(counter(*cur->g, "eba.cells_probed")) /
        static_cast<double>(counter(*cur->g, "gt.updates"));
    r.scalars["engine.fp_share"] =
        static_cast<double>(engine_stats.full_iterations) /
        static_cast<double>(engine_stats.iterations);
    r.scalars["engine.streamed_per_logical"] =
        static_cast<double>(engine_stats.edges_streamed) /
        static_cast<double>(engine_stats.logical_edges);
    r.meta["passes"] = std::to_string(passes);
    r.meta["edges_per_pass"] = std::to_string(stream.size());
    r.meta["batch_edges"] = std::to_string(batch);
    r.meta["vertices"] = std::to_string(n);
    r.meta["threads"] = "1";
}

// ---- uniform_churn ---------------------------------------------------------
//
// A sliding window over a uniform stream on ShardedStore<GraphTinker> with
// two shard workers: every round inserts the next kRound edges, deletes the
// oldest kRound and drains. The pool holds distinct edges cut into
// round-sized slices, so the live set after round i is exactly the window of
// slices ending at i and a slice re-enters only after it left the window.

/// Amortized maintenance at the budget bench/micro_churn uses by default.
core::Config churn_config() {
    core::Config cfg;
    cfg.maintenance_budget_cells = 65536;
    return cfg;
}

struct ChurnInput {
    std::vector<Edge> pool;
    std::size_t round = 0;   // edges per insert (and per delete) slice
    std::size_t window = 0;  // live edges, a whole number of slices
};

ChurnInput make_churn_input(const Args& a) {
    ChurnInput in;
    const VertexId n = a.tiny ? (1U << 12) : (1U << 20);
    in.round = a.tiny ? 500 : 50'000;
    in.window = 40 * in.round;
    const std::size_t pool = 80 * in.round;
    std::vector<Edge> raw = uniform_edges(n, pool + pool / 8, a.seed);
    // Distinct pairs only, then a seeded shuffle back into stream order.
    std::sort(raw.begin(), raw.end(), [](const Edge& x, const Edge& y) {
        return edge_key(x) < edge_key(y);
    });
    raw.erase(std::unique(raw.begin(), raw.end(),
                          [](const Edge& x, const Edge& y) {
                              return edge_key(x) == edge_key(y);
                          }),
              raw.end());
    raw = deletion_stream(std::move(raw), a.seed ^ 0x9e3779b97f4a7c15ULL);
    raw.resize(pool);
    in.pool = std::move(raw);
    return in;
}

std::span<const Edge> slice(const ChurnInput& in, std::size_t index) {
    const std::size_t slices = in.pool.size() / in.round;
    return std::span<const Edge>(in.pool).subspan(
        (index % slices) * in.round, in.round);
}

using Sharded = core::ShardedStore<core::GraphTinker>;

std::unique_ptr<Sharded> preload_sharded(const ChurnInput& in) {
    auto store =
        std::make_unique<Sharded>(2, [] { return churn_config(); });
    for (std::size_t i = 0; i < in.window / in.round; ++i) {
        (void)store->insert_batch(slice(in, i));
    }
    if (!store->flush().ok()) {
        return nullptr;
    }
    return store;
}

/// The same rounds on one GraphTinker, traced: the per-shard work without
/// the pipeline, for core.delete_batch_us and sharded.vs_single.
void churn_single_pass(const ChurnInput& in, std::size_t rounds,
                       Tracer& tr) {
    core::GraphTinker g(churn_config());
    const std::size_t first = in.window / in.round;
    for (std::size_t i = 0; i < first; ++i) {
        (void)g.insert_batch(slice(in, i));
    }
    for (std::size_t i = 0; i < rounds; ++i) {
        Scope s(tr, "single.round", i);
        {
            Scope c(tr, "core.insert_batch", i, s.id());
            (void)g.insert_batch(slice(in, first + i));
        }
        Scope c(tr, "core.delete_batch", i, s.id());
        (void)g.delete_batch(slice(in, i));
    }
}

void run_churn(const Args& a, Result& r, Tracer& tr) {
    const ChurnInput in = make_churn_input(a);
    const std::size_t first = in.window / in.round;

    // Set-up (store construction plus the window preload) runs three times;
    // the last store is the one measured.
    std::vector<double> setup_s;
    std::unique_ptr<Sharded> store;
    for (int rep = 0; rep < 3; ++rep) {
        store.reset();
        const std::uint64_t start = now_ns();
        store = preload_sharded(in);
        setup_s.push_back(seconds_since(start));
        if (store == nullptr) {
            r.check("churn.preload", false, "preload flush failed");
            return;
        }
    }

    // Memory per live edge is sampled once the window has turned over (every
    // preloaded edge deleted once), so it does not depend on how many
    // rounds fit in the time window.
    const auto footprint_per_edge = [&] {
        const auto pin = store->read_snapshot_all();
        std::size_t bytes = 0;
        for (std::size_t s = 0; s < pin.num_shards(); ++s) {
            bytes += pin.store(s).memory_footprint().total();
        }
        return static_cast<double>(bytes) /
               static_cast<double>(pin.edge_total());
    };
    double bytes_per_edge = 0.0;

    std::vector<double> round_ms;
    std::size_t rounds = 0;
    double measured_s = 0.0;
    const std::uint64_t window_start = now_ns();
    while (rounds == 0 || seconds_since(window_start) < a.seconds) {
        tr.set_recording(rounds % 2 == 0);
        const std::uint64_t start = now_ns();
        Scope s(tr, "round", rounds, -1);
        {
            Scope c(tr, "sharded.insert_batch", rounds, s.id());
            (void)store->insert_batch(slice(in, first + rounds));
        }
        {
            Scope c(tr, "sharded.delete_batch", rounds, s.id());
            (void)store->delete_batch(slice(in, rounds));
        }
        Status st;
        {
            Scope c(tr, "sharded.flush", rounds, s.id());
            st = store->flush();
        }
        r.attempted += 2;
        r.failed += st.ok() ? 0 : 2;
        const double secs = seconds_since(start);
        round_ms.push_back(secs * 1e3);
        r.root_sample(tr, secs * 1e3);
        measured_s += secs;
        if (++rounds == first) {
            bytes_per_edge = footprint_per_edge();
        }
    }
    if (rounds < first) {
        bytes_per_edge = footprint_per_edge();
    }

    // Correctness: the live set is exactly the window of slices
    // [rounds, rounds + first).
    r.check("churn.live_edges_equal_window",
            store->num_edges() == in.window,
            std::to_string(store->num_edges()) + " vs " +
                std::to_string(in.window));
    std::size_t missing = 0;
    std::size_t resurrected = 0;
    for (std::size_t k = 0; k < 8; ++k) {
        const std::span<const Edge> live =
            slice(in, rounds + (k * (first - 1)) / 7);
        const std::span<const Edge> gone = slice(in, rounds - 1 - k % rounds);
        for (std::size_t i = 0; i < live.size(); i += live.size() / 125) {
            const auto w = store->find_edge(live[i].src, live[i].dst);
            missing += (!w || *w != live[i].weight) ? 1 : 0;
            resurrected +=
                store->find_edge(gone[i].src, gone[i].dst) ? 1 : 0;
        }
    }
    r.check("churn.find_edge_hits_live", missing == 0,
            std::to_string(missing) + " sampled live edges missing");
    r.check("churn.find_edge_misses_deleted", resurrected == 0,
            std::to_string(resurrected) + " sampled deleted edges found");

    std::uint64_t probed = 0;
    std::uint64_t updates = 0;
    std::uint64_t maintenance_runs = 0;
    std::uint64_t maintenance_cells = 0;
    {
        const auto pin = store->read_snapshot_all();
        for (std::size_t s = 0; s < pin.num_shards(); ++s) {
            const core::GraphTinker& g = pin.store(s);
            const core::AuditReport rep = g.audit();
            r.check("churn.audit_shard" + std::to_string(s), rep.ok(),
                    rep.ok() ? "" : "violations");
            const obs::Snapshot t = g.telemetry();
            probed += t.counter_value("eba.cells_probed");
            updates += t.counter_value("gt.updates");
            maintenance_runs += t.counter_value("maintenance.runs");
            if (const auto* h = t.histogram("maintenance.cells_touched")) {
                maintenance_cells += h->sum;
            }
        }
    }

    r.samples["setup_s"] = setup_s;
    r.samples["batch_ms"] = round_ms;
    r.scalars["update_eps"] =
        static_cast<double>(2 * in.round * rounds) / measured_s;
    r.scalars["bytes_per_edge"] = bytes_per_edge;
    r.scalars["core.cells_probed_per_update"] =
        static_cast<double>(probed) / static_cast<double>(updates);
    r.scalars["core.maintenance_cells_per_update"] =
        static_cast<double>(maintenance_cells) /
        static_cast<double>(updates);
    r.meta["maintenance_runs"] = std::to_string(maintenance_runs);
    r.meta["rounds"] = std::to_string(rounds);
    r.meta["round_edges"] = std::to_string(in.round);
    r.meta["window_edges"] = std::to_string(in.window);
    r.meta["shards"] = "2";
    r.meta["threads"] = "3";
    r.meta["maintenance_budget_cells"] =
        std::to_string(churn_config().maintenance_budget_cells);
    store.reset();

    if (!tr.enabled()) {
        return;
    }
    tr.set_recording(true);
    churn_single_pass(in, std::min<std::size_t>(rounds, 40), tr);
}

// ---- served_ingest ---------------------------------------------------------
//
// An in-process gt serve (2 event loops, 0 readers, buffered WAL) on
// loopback and two closed-loop clients on one graph. Each client cycle is
// three RemoteGraph::insert_edges of a 1k-edge RMAT batch followed by one
// degree_of of a vertex the cycle just wrote. One pass starts a server on a
// fresh root and has each client send its own pool of batches once, so
// every pass does the same work whatever the speed; passes repeat while
// another one fits in the window. After the last server stops, its graph
// directory is reopened with DurableStore::open.
//
// The server and both clients share one CPU. The graph is owned by one
// loop, so its requests run one at a time anyway; on one CPU every hand-off
// between client and loop is a context switch, not a wake-up of another
// virtual CPU, whose latency on a shared host changes several-fold from
// one minute to the next.

/// Confines the calling thread, and every thread it starts from then on,
/// to the CPU it runs on. Returns whether it did.
bool pin_to_current_cpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0) {
        return false;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
}

constexpr std::size_t kClients = 2;
constexpr std::size_t kServedBatch = 1000;
constexpr std::size_t kInsertsPerCycle = 3;
constexpr std::uint8_t kWireBuffered = 1;  // OpenGraph durability byte

struct Acked {
    std::uint64_t op;
    std::uint64_t end_ns;
    std::size_t batch;  // index into the client's stream
};

struct ClientLog {
    std::vector<Acked> acked;
    std::vector<std::pair<std::uint64_t, VertexId>> reads;  // (op, vertex)
    std::vector<double> cycle_ms;
    std::vector<bool> cycle_traced;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t bad_reads = 0;
};

struct Served {
    net::Server server;
    std::thread acceptor;
    net::Client clients[kClients];
    net::RemoteGraph graphs[kClients];

    Served() = default;
    ~Served() { stop(); }
    Served(const Served&) = delete;
    Served& operator=(const Served&) = delete;
    void stop() {
        if (acceptor.joinable()) {
            server.stop();
            acceptor.join();
        }
    }
};

Status start_served(Served& s, const std::string& root) {
    net::ServerOptions opts;
    opts.root = root;
    opts.loop_threads = 2;
    opts.reader_threads = 0;
    opts.durability = recover::DurabilityMode::Buffered;
    if (Status st = s.server.start(opts); !st.ok()) {
        return st;
    }
    s.acceptor = std::thread([&s] { (void)s.server.run(); });
    for (std::size_t c = 0; c < kClients; ++c) {
        if (Status st = s.clients[c].connect("127.0.0.1", s.server.port());
            !st.ok()) {
            return st;
        }
        if (Status st = s.clients[c].open("g", s.graphs[c], kWireBuffered);
            !st.ok()) {
            return st;
        }
    }
    return Status::success();
}

/// Sends the client's whole pool once, kInsertsPerCycle batches and one
/// read per cycle. Op ids are op_base plus a per-client sequence number.
void client_loop(net::RemoteGraph& remote, std::span<const Edge> stream,
                 std::uint64_t op_base, Tracer& tr, ClientLog& log) {
    const std::size_t batches = stream.size() / kServedBatch;
    std::uint64_t op = op_base;
    for (std::size_t next = 0; next < batches;) {
        tr.set_recording((next / kInsertsPerCycle) % 2 == 0);
        const std::uint64_t cycle_start = now_ns();
        Scope cycle(tr, "net.cycle", op);
        VertexId probe = kInvalidVertex;
        for (std::size_t i = 0; i < kInsertsPerCycle && next < batches;
             ++i, ++next, ++op) {
            const auto edges = stream.subspan(next * kServedBatch, kServedBatch);
            Status st;
            {
                Scope s(tr, "net.insert_edges", op, cycle.id());
                st = remote.insert_edges(edges, nullptr);
            }
            ++log.attempted;
            if (st.ok()) {
                log.acked.push_back(Acked{op, now_ns(), next});
                probe = edges.back().src;
            } else {
                ++log.failed;
            }
        }
        if (probe != kInvalidVertex) {
            std::uint64_t degree = 0;
            Status st;
            {
                Scope s(tr, "net.degree_of", op, cycle.id());
                st = remote.degree_of(probe, degree);
            }
            ++log.attempted;
            if (!st.ok()) {
                ++log.failed;
            } else {
                // Read-your-writes: the acked insert gave `probe` an edge.
                log.bad_reads += degree == 0 ? 1 : 0;
                log.reads.emplace_back(op, probe);
            }
            ++op;
        }
        log.cycle_ms.push_back(seconds_since(cycle_start) * 1e3);
        log.cycle_traced.push_back(tr.recording());
    }
}

void run_served(const Args& a, Result& r, Tracer& tr0, Tracer& tr1) {
    const VertexId n = a.tiny ? (1U << 12) : (1U << 18);
    const std::size_t cycles_per_pass = a.tiny ? 20 : 200;
    const std::size_t per_client =
        cycles_per_pass * kInsertsPerCycle * kServedBatch;
    std::vector<std::vector<Edge>> streams;
    for (std::size_t c = 0; c < kClients; ++c) {
        streams.push_back(rmat_edges(n, per_client, a.seed * 31 + c));
    }
    // Before the first server starts: its threads inherit the CPU set.
    const bool pinned = pin_to_current_cpu();
    const fs::path work = fs::path(a.out_dir) / "served";
    fs::remove_all(work);
    fs::create_directories(work);

    // Set-up: server start on a fresh root plus both client connections and
    // graph opens.
    std::vector<double> setup_s;
    const auto set_up = [&](Served& s, const std::string& dir) {
        const std::uint64_t start = now_ns();
        const Status st = start_served(s, dir);
        setup_s.push_back(seconds_since(start));
        if (!st.ok()) {
            r.check("served.start", false, st.to_string());
        }
        return st.ok();
    };

    ClientLog logs[kClients];  // of the last pass
    Tracer* tracers[kClients] = {&tr0, &tr1};
    std::vector<double> cycle_ms;
    std::uint64_t acked_edges = 0;
    std::uint64_t bad_reads = 0;
    double busy_shed = 0.0;
    double frames = 0.0;
    double measured_s = 0.0;
    std::unique_ptr<Served> s;
    std::string root;
    std::size_t passes = 0;
    double pass_s = 0.0;
    const std::uint64_t window_start = now_ns();
    while (passes == 0 ||
           seconds_since(window_start) + pass_s <= a.seconds) {
        if (s != nullptr) {
            s.reset();
            fs::remove_all(root);
        }
        // Set-up takes about a millisecond and follows the shared host's
        // state, which changes every few seconds, so two throwaway starts
        // precede each measured one and the samples span the whole window.
        for (int rep = 0; rep < 2; ++rep) {
            const std::string spare = (work / "spare").string();
            if (Served t; !set_up(t, spare)) {
                return;
            }
            fs::remove_all(spare);
        }
        root = (work / ("pass" + std::to_string(passes))).string();
        s = std::make_unique<Served>();
        if (!set_up(*s, root)) {
            return;
        }
        const std::uint64_t pass_start = now_ns();
        {
            std::vector<std::thread> threads;
            for (std::size_t c = 0; c < kClients; ++c) {
                logs[c] = ClientLog{};
                threads.emplace_back([&, c] {
                    client_loop(s->graphs[c], streams[c],
                                (passes * kClients + c) << 32, *tracers[c],
                                logs[c]);
                });
            }
            for (std::thread& t : threads) {
                t.join();
            }
        }
        pass_s = seconds_since(pass_start);
        measured_s += pass_s;
        ++passes;
        for (const ClientLog& log : logs) {
            cycle_ms.insert(cycle_ms.end(), log.cycle_ms.begin(),
                            log.cycle_ms.end());
            for (std::size_t i = 0; i < log.cycle_ms.size(); ++i) {
                if (tr0.enabled()) {
                    r.samples[log.cycle_traced[i] ? "root_ms_traced"
                                                  : "root_ms_untraced"]
                        .push_back(log.cycle_ms[i]);
                }
            }
            r.attempted += log.attempted;
            r.failed += log.failed;
            bad_reads += log.bad_reads;
            acked_edges += log.acked.size() * kServedBatch;
        }
        busy_shed += static_cast<double>(
            s->server.obs().counter("net.busy_shed").value());
        frames += static_cast<double>(
            s->server.obs().counter("net.frames_rx").value());
    }
    r.check("served.read_your_writes", bad_reads == 0,
            std::to_string(bad_reads) +
                " degree_of answers were 0 after an acked insert");

    // Reference degrees of the last pass's acked edges, and the final wire
    // answers for a sample of written vertices.
    std::vector<Edge> acked_all;
    std::uint64_t last_acked_edges = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
        for (const Acked& k : logs[c].acked) {
            const auto edges = std::span<const Edge>(streams[c]).subspan(
                k.batch * kServedBatch, kServedBatch);
            acked_all.insert(acked_all.end(), edges.begin(), edges.end());
        }
        last_acked_edges += logs[c].acked.size() * kServedBatch;
    }
    const std::vector<std::uint64_t> keys = distinct_keys(acked_all);
    acked_all = {};
    std::map<VertexId, std::uint64_t> want_degree;
    std::vector<VertexId> probes;
    for (std::size_t i = 0; i < keys.size(); i += keys.size() / 200 + 1) {
        probes.push_back(static_cast<VertexId>(keys[i] >> 32));
    }
    for (const std::uint64_t k : keys) {
        const auto v = static_cast<VertexId>(k >> 32);
        if (std::binary_search(probes.begin(), probes.end(), v)) {
            ++want_degree[v];
        }
    }
    std::size_t wire_bad = 0;
    for (const VertexId v : probes) {
        std::uint64_t d = 0;
        wire_bad += (!s->graphs[0].degree_of(v, d).ok() ||
                     d != want_degree[v])
                        ? 1
                        : 0;
    }
    r.check("served.final_degree_of_matches_reference", wire_bad == 0,
            std::to_string(wire_bad) + " of " +
                std::to_string(probes.size()) + " differ");
    s.reset();

    const fs::path dir = fs::path(root) / "g";
    const double wal_bytes =
        static_cast<double>(fs::file_size(dir / "wal.gtw"));
    double reopen_s = 0.0;
    double replay_s = 0.0;
    {
        recover::DurableStore reopened;
        recover::DurableOptions opts;
        opts.audit_after_recovery = false;
        recover::RecoveryInfo info;
        const std::uint64_t start = now_ns();
        const Status st = reopened.open(dir.string(), opts, &info);
        replay_s = seconds_since(start);
        r.check("served.reopen", st.ok(), st.to_string());
        if (!st.ok()) {
            return;
        }
        const core::AuditReport rep = reopened.graph().audit();
        reopen_s = seconds_since(start);
        r.check("served.audit_after_reopen", rep.ok(),
                rep.ok() ? "" : "violations");
        r.check("served.edges_equal_distinct_acked",
                reopened.graph().num_edges() == keys.size(),
                std::to_string(reopened.graph().num_edges()) + " vs " +
                    std::to_string(keys.size()));
        std::size_t local_bad = 0;
        for (const VertexId v : probes) {
            local_bad += reopened.graph().degree(v) != want_degree[v] ? 1 : 0;
        }
        r.check("served.reopened_degree_matches_reference", local_bad == 0,
                std::to_string(local_bad) + " differ");
        r.scalars["bytes_per_edge"] = live_bytes_per_edge(reopened.graph());
        r.scalars["recover.replay_eps"] =
            static_cast<double>(info.replay.edges_inserted) / replay_s;
        reopened.close();
    }

    r.samples["setup_s"] = setup_s;
    r.samples["batch_ms"] = cycle_ms;
    r.scalars["update_eps"] = static_cast<double>(acked_edges) / measured_s;
    r.scalars["recover.reopen_s"] = reopen_s;
    r.scalars["recover.wal_bytes_per_edge"] =
        wal_bytes / static_cast<double>(last_acked_edges);
    r.scalars["net.busy_shed_per_request"] =
        frames > 0 ? busy_shed / frames : 0.0;
    r.meta["passes"] = std::to_string(passes);
    r.meta["edges_per_pass"] = std::to_string(kClients * per_client);
    r.meta["clients"] = std::to_string(kClients);
    r.meta["connections"] = std::to_string(kClients);
    r.meta["loops"] = "2";
    r.meta["threads"] = "5";  // 2 loops, 2 clients, the acceptor
    r.meta["cpus"] = pinned ? "1" : "all";
    r.meta["readers"] = "0";
    r.meta["durability"] = "buffered";
    r.meta["batch_edges"] = std::to_string(kServedBatch);
    r.meta["acked_edges"] = std::to_string(acked_edges);
    r.meta["distinct_edges"] = std::to_string(keys.size());

    if (!tr0.enabled()) {
        fs::remove_all(work);
        return;
    }
    // Side passes for the waterfall: the last pass's acked batches, in ack
    // order, through a bare GraphTinker (core) and a buffered DurableStore
    // (recover), then each wire read repeated locally. Each side span
    // carries the op id of the wire call it replays.
    std::vector<std::pair<Acked, std::size_t>> order;
    for (std::size_t c = 0; c < kClients; ++c) {
        for (const Acked& k : logs[c].acked) {
            order.emplace_back(k, c);
        }
    }
    std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
        return x.first.end_ns < y.first.end_ns;
    });
    // Both stores grow side by side, batch by batch, taking turns to go
    // first, so neither pays the other's first-touch page faults or cold
    // batch data.
    Tracer& tr = tr0;
    tr.set_recording(true);
    core::GraphTinker bare;
    recover::DurableStore local;
    if (!local.open((work / "replay").string()).ok()) {
        r.check("served.replay_open", false, "replay store did not open");
        return;
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
        const auto& [k, c] = order[i];
        const auto edges = std::span<const Edge>(streams[c]).subspan(
            k.batch * kServedBatch, kServedBatch);
        const auto bare_insert = [&] {
            Scope sp(tr, "core.insert_batch", k.op);
            (void)bare.insert_batch(edges);
        };
        const auto durable_insert = [&] {
            Scope sp(tr, "recover.insert_edges", k.op);
            (void)local.insert_edges(edges, nullptr);
        };
        if (i % 2 == 0) {
            bare_insert();
            durable_insert();
        } else {
            durable_insert();
            bare_insert();
        }
    }
    r.scalars["core.cells_probed_per_update"] =
        static_cast<double>(counter(bare, "eba.cells_probed")) /
        static_cast<double>(counter(bare, "gt.updates"));
    for (std::size_t c = 0; c < kClients; ++c) {
        for (const auto& [op, v] : logs[c].reads) {
            std::uint64_t d = 0;
            Scope sp(tr, "recover.degree_of", op);
            (void)local.degree_of(v, d);
        }
    }
    local.close();
    fs::remove_all(work);
}

// ---- main ------------------------------------------------------------------

bool parse(int argc, char** argv, Args& a) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--scale") {
            a.tiny = v == "tiny";
        } else if (k == "--out") {
            a.out_dir = v;
        } else if (k == "--spans") {
            a.spans_path = v;
        } else {
            return false;
        }
    }
    const bool known = a.workload == "rmat_analytics" ||
                       a.workload == "uniform_churn" ||
                       a.workload == "served_ingest";
    return argc % 2 == 1 && known && !a.out_dir.empty() &&
           (!a.trace || !a.spans_path.empty());
}

}  // namespace

int main(int argc, char** argv) {
    Args a;
    if (!parse(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: gt_perfbench --workload W --seed N --seconds S "
                     "--trace 0|1 --scale full|tiny --out DIR "
                     "[--spans FILE]\n");
        return 2;
    }
    fs::create_directories(a.out_dir);

    Tracer tr0(a.trace);
    Tracer tr1(a.trace);
    Result r;
    if (a.workload == "rmat_analytics") {
        run_rmat(a, r, tr0);
    } else if (a.workload == "uniform_churn") {
        run_churn(a, r, tr0);
    } else {
        run_served(a, r, tr0, tr1);
    }

    r.meta["workload"] = a.workload;
    r.meta["seed"] = std::to_string(a.seed);
    r.meta["seconds"] = std::to_string(a.seconds);
    r.meta["scale"] = a.tiny ? "tiny" : "full";
    r.meta["hardware_concurrency"] =
        std::to_string(std::thread::hardware_concurrency());
    r.meta["build_type"] = GT_PERFBENCH_BUILD_TYPE;
#ifdef GT_SIMD
    r.meta["gt_simd"] = "1";
#else
    r.meta["gt_simd"] = "0";
#endif
    r.meta["closed_loop_clients"] =
        a.workload == "served_ingest" ? std::to_string(kClients) : "1";
    if (r.meta.count("durability") == 0) {
        r.meta["durability"] = "none";
    }
    if (r.meta.count("connections") == 0) {
        r.meta["connections"] = "0";
    }
    if (r.meta.count("cpus") == 0) {
        r.meta["cpus"] = "all";
    }
    r.meta["traced"] = a.trace ? "1" : "0";
    write_result((fs::path(a.out_dir) / "result.json").string(), r);
    if (a.trace) {
        write_spans(a.spans_path, {&tr0, &tr1});
    }
    return 0;
}
