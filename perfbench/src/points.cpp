/**
 * @file
 * The point workloads: every Table 2 program at a set of meshes,
 * compiled cold (schedule cache cleared, one thread) and simulated on
 * the default core, pass after pass for the run's seconds.
 *
 *   table3   the paper's meshes, 2..32 tiles
 *   mesh128  the meshes past the paper, 64 and 128 tiles
 */

#include <algorithm>
#include <cstdio>
#include <random>
#include <sstream>

#include "common.hpp"
#include "serve_drive.hpp"

namespace perfbench {

namespace {

struct PointDef
{
    const raw::BenchmarkProgram *prog;
    int tiles;
    std::string id() const
    {
        return prog->name + "@" + std::to_string(tiles);
    }
};

std::vector<PointDef>
point_list(const RunConfig &cfg)
{
    std::vector<int> meshes;
    if (cfg.workload == "table3")
        meshes = {2, 4, 8, 16, 32};
    else
        meshes = {64, 128};
    if (cfg.smoke)
        return {{&raw::benchmark("jacobi"), cfg.workload == "table3" ? 4 : 64}};
    std::vector<PointDef> pts;
    for (const raw::BenchmarkProgram &p : raw::benchmark_suite())
        for (int t : meshes)
            pts.push_back({&p, t});
    return pts;
}

struct PointRecord
{
    std::vector<double> parse, unroll, lower, backend, sim;
    Facts facts;
    bool have_facts = false;
    /** Each pass's unscaled compile and simulation CPU ms, and host factor. */
    std::vector<double> raw_compile, raw_sim, factor;
    /** Traced run only. */
    double warm_ms = 0;
    /** The compiler's own partition / schedule phase timings (ms). */
    double partition_ms = 0, schedule_ms = 0;
    std::map<std::string, double> core_ms;
    double median_compile() const
    {
        std::vector<double> c;
        for (size_t i = 0; i < parse.size(); i++)
            c.push_back(parse[i] + unroll[i] + lower[i] + backend[i]);
        return median(c);
    }
    double median_point() const
    {
        std::vector<double> c;
        for (size_t i = 0; i < parse.size(); i++)
            c.push_back(parse[i] + unroll[i] + lower[i] + backend[i] +
                        sim[i]);
        return median(c);
    }
};

/**
 * One operation: cold compile + default-core simulation of a point,
 * checked against the independent reference.  In the first pass the
 * threaded core must also agree; in the traced run the warm compile
 * and every other core are measured too.
 */
void
run_point(const PointDef &p, const RefOutput &ref, int pass, bool traced,
          Tracer &tr, PointRecord &rec, Outcome &o)
{
    const std::string id = p.id();
    const double cal0 = calibrate_ms();
    TimedCompile c = timed_compile(p.prog->source, p.tiles, /*cold=*/true,
                                   /*keep_lowered=*/traced, tr, id);
    // The default core: whatever Simulator(program) picks.
    Clock::time_point t0 = Clock::now();
    double c0 = thread_cpu_ms();
    raw::Simulator sim(c.out.program);
    raw::SimResult r = sim.run();
    double sim_ms = thread_cpu_ms() - c0;
    Clock::time_point t1 = Clock::now();
    const double k = host_factor(cal0, calibrate_ms());
    tr.span("sim.default", "run", id, t0, t1);
    std::string bad = compare_output(id, ref, ref_prints(r),
                                     sim.read_array(p.prog->check_array));
    if (!bad.empty())
        o.mismatch(bad);

    rec.parse.push_back(c.parse_ms * k);
    rec.unroll.push_back(c.unroll_ms * k);
    rec.lower.push_back(c.lower_ms * k);
    rec.backend.push_back(c.backend_ms * k);
    rec.sim.push_back(sim_ms * k);
    rec.raw_compile.push_back(c.compile_ms());
    rec.raw_sim.push_back(sim_ms);
    rec.factor.push_back(k);
    Facts f = facts_of(c.out.stats, r);
    if (!rec.have_facts) {
        rec.facts = f;
        rec.have_facts = true;
    } else if (!(f == rec.facts)) {
        o.mismatch(id + ": pass " + std::to_string(pass) +
                   " differs from pass 0 (cycles " +
                   std::to_string(f.cycles) + " vs " +
                   std::to_string(rec.facts.cycles) + ")");
    }

    if (pass == 0 || traced)
        check_cores(c.out.program, p.prog->check_array, ref, r.cycles,
                    traced, k, tr, id, rec.core_ms, o);
    if (traced) {
        rec.partition_ms = c.out.stats.orch_partition_ms;
        rec.schedule_ms = c.out.stats.orch_schedule_ms;
        // Warm compile: the same lowered IR with the memory tier full.
        Clock::time_point w0 = Clock::now();
        double c0w = thread_cpu_ms();
        raw::CompileOutput warm = raw::compile_function(
            std::move(c.lowered), raw::MachineConfig::base(p.tiles),
            bench_options());
        rec.warm_ms = (thread_cpu_ms() - c0w) * k;
        tr.span("schedcache", "compile_function warm", id, w0, Clock::now());
        if (warm.stats.static_instrs != c.out.stats.static_instrs)
            o.mismatch(id + ": warm compile differs from cold");
    }
}

/**
 * Serve layer of a point workload (traced run): for every point the
 * daemon accepts, a compile and then a simulate of the same key on one
 * connection, each reply checked against the point's in-process facts.
 */
void
serve_layer(const RunConfig &cfg, const std::vector<PointDef> &pts,
            const std::vector<PointRecord> &recs, Tracer &tr, Outcome &o)
{
    constexpr int kMaxServeTiles = 64;
    std::vector<int> idx;
    for (size_t i = 0; i < pts.size(); i++)
        if (pts[i].tiles <= kMaxServeTiles)
            idx.push_back(static_cast<int>(i));
    DaemonSession d;
    d.start(cfg.rawcc_bin, 2);
    int64_t sent = 0;
    std::vector<Reply> replies = d.drive(
        2,
        [&](int conn, int round, std::vector<Request> &out) {
            if (round > 0)
                return false;
            for (size_t k = conn; k < idx.size(); k += 2) {
                const PointDef &p = pts[idx[k]];
                out.push_back(compile_request(p.id() + "-compile",
                                              p.prog->source, p.tiles,
                                              idx[k]));
                out.push_back(simulate_request(p.id(), p.prog->name, p.tiles,
                                               idx[k]));
            }
            return true;
        },
        tr, sent);
    int64_t hits = 0, misses = 0;
    d.flight_stats(hits, misses);
    int rc = d.stop();
    if (rc != 0)
        o.mismatch("serve daemon exited with code " + std::to_string(rc));
    tally_replies(replies, sent, o);
    for (const Reply &r : replies) {
        if (!r.ok)
            continue;
        std::string bad = check_reply(r, recs[r.req.key].facts);
        if (!bad.empty())
            o.mismatch("serve " + bad);
    }
    emit_serve_metrics(replies, hits, misses, o);
}

} // namespace

Outcome
run_points(const RunConfig &cfg, Tracer &tr)
{
    Outcome o;
    const std::vector<PointDef> pts = point_list(cfg);

    // Set-up: the independent references, then the sequential
    // baselines every speedup divides by (each checked too).  Each of
    // these steps is host-speed scaled like every other time.
    SetupTimer setup;
    std::map<std::string, RefOutput> refs;
    std::map<std::string, int64_t> base_cycles;
    double baseline_ms = 0;
    for (const PointDef &p : pts)
        if (!refs.count(p.prog->name))
            refs[p.prog->name] = reference_output(p.prog->name);
    setup.lap();
    for (const auto &[name, ref] : refs) {
        BaselineRun b =
            run_checked_baseline(raw::benchmark(name), ref, tr, o);
        base_cycles[name] = b.cycles;
        baseline_ms += b.ms;
        setup.lap();
    }
    const double setup_s = setup.seconds();

    std::vector<PointRecord> recs(pts.size());
    std::mt19937_64 rng(cfg.seed);
    Tracer off(false);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(cfg.seconds));
    int passes = 0;
    const int max_passes = cfg.trace || cfg.smoke ? 1 : 1 << 20;
    do {
        std::vector<size_t> order(pts.size());
        for (size_t i = 0; i < order.size(); i++)
            order[i] = i;
        std::shuffle(order.begin(), order.end(), rng);
        for (size_t i : order) {
            o.attempted++;
            try {
                run_point(pts[i], refs[pts[i].prog->name], passes, cfg.trace,
                          cfg.trace ? tr : off, recs[i], o);
            } catch (const std::exception &e) {
                o.failure(pts[i].id() + ": " + e.what());
            }
        }
        double pc = 0, ps = 0, kf = 0;
        for (const PointRecord &r : recs)
            if (r.sim.size() > static_cast<size_t>(passes)) {
                kf += r.factor[passes] / static_cast<double>(pts.size());
                pc += r.parse[passes] + r.unroll[passes] + r.lower[passes] +
                      r.backend[passes];
                ps += r.sim[passes];
            }
        std::ostringstream os;
        os << "pass " << passes << ": compile " << pc / 1000 << " s, sim "
           << ps / 1000 << " s (host-speed scaled; mean factor " << kf
           << ")";
        o.notes.push_back(os.str());
        passes++;
    } while (passes < max_passes && Clock::now() < deadline);

    // End-to-end metrics from per-point medians.
    double compile_ms = 0, sim_ms = 0, tile_cycles = 0, cycles = 0;
    std::vector<double> speedups, point_ms;
    int64_t ops = 0;
    double op_ms = 0;
    for (size_t i = 0; i < pts.size(); i++) {
        const PointRecord &r = recs[i];
        if (r.sim.empty())
            continue;
        compile_ms += r.median_compile();
        sim_ms += median(r.sim);
        tile_cycles += static_cast<double>(r.facts.cycles) * pts[i].tiles;
        cycles += static_cast<double>(r.facts.cycles);
        speedups.push_back(
            static_cast<double>(base_cycles[pts[i].prog->name]) /
            static_cast<double>(r.facts.cycles));
        point_ms.push_back(r.median_point());
        for (size_t k = 0; k < r.sim.size(); k++) {
            ops++;
            op_ms += r.parse[k] + r.unroll[k] + r.lower[k] + r.backend[k] +
                     r.sim[k];
        }
    }
    double tail_pct = 0;
    o.set("setup_s", setup_s, "s");
    o.set("compile_s", compile_ms / 1000, "s");
    o.set("sim_s", sim_ms / 1000, "s");
    o.set("sim_tile_cycles_per_s", sim_ms > 0 ? tile_cycles / (sim_ms / 1000) : 0,
          "tile-cycles/s");
    o.set_count("sim_cycles", static_cast<int64_t>(cycles), "cycles");
    o.set("speedup_geomean", geomean(speedups), "x");
    o.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    o.set("req_p50_ms", median(point_ms), "ms");
    o.set("req_tail_ms", tail_sample(point_ms, tail_pct), "ms");
    o.set("throughput_rps", op_ms > 0 ? ops / (op_ms / 1000) : 0, "req/s");
    // The same sums unscaled, so the host-speed factor's share in the
    // scaled figures stays visible.
    double raw_compile_ms = 0, raw_sim_ms = 0;
    std::vector<double> factors;
    for (const PointRecord &r : recs) {
        raw_compile_ms += median(r.raw_compile);
        raw_sim_ms += median(r.raw_sim);
        factors.insert(factors.end(), r.factor.begin(), r.factor.end());
    }
    o.set("unscaled.compile_s", raw_compile_ms / 1000, "s");
    o.set("unscaled.sim_s", raw_sim_ms / 1000, "s");
    {
        std::ostringstream os;
        os << "passes " << passes << ", points " << pts.size()
           << ", req_tail_ms is p" << tail_pct << ", median host factor "
           << median(factors);
        o.notes.push_back(os.str());
    }

    if (!cfg.trace)
        return o;

    // Per-layer metrics (traced run, one pass), summed over points.
    LayerSums sum;
    sum.baseline_ms = baseline_ms;
    for (size_t i = 0; i < pts.size(); i++) {
        const PointRecord &r = recs[i];
        if (!r.have_facts)
            continue;
        sum.parse_ms += median(r.parse);
        sum.unroll_ms += median(r.unroll);
        sum.lower_ms += median(r.lower);
        sum.backend_ms += median(r.backend);
        sum.warm_ms += r.warm_ms;
        for (const auto &[core, ms] : r.core_ms)
            sum.core_ms[core] += ms;
        sum.add_facts(r.facts, pts[i].tiles);
        const Facts &f = r.facts;
        std::ostringstream row;
        row << "point " << pts[i].id() << " cycles " << f.cycles
            << " baseline " << base_cycles[pts[i].prog->name]
            << " compile_ms " << r.median_compile() << " (parse "
            << median(r.parse) << " unroll " << median(r.unroll) << " lower "
            << median(r.lower) << " backend " << median(r.backend)
            << " warm " << r.warm_ms << "; compiler-reported partition "
            << r.partition_ms << " schedule " << r.schedule_ms
            << ") sim_ms " << median(r.sim) << " swaps " << f.swaps
            << " dyn_refs " << f.dyn_refs << " sched_cache " << f.cache_hits
            << "/" << f.cache_misses;
        for (const auto &[core, ms] : r.core_ms)
            row << " " << core << "_ms " << ms;
        o.notes.push_back(row.str());
    }
    emit_layer_metrics(sum, o);

    // The traced layer times, from the spans alone: each point's
    // frontend and rawcc spans (its cold compile) and its sim.default
    // span, wall time scaled by the point's host factor.
    const std::map<std::string, double> fe = tr.id_ms("frontend"),
                                         be = tr.id_ms("rawcc"),
                                         sm = tr.id_ms("sim.default");
    double span_compile = 0, span_sim = 0;
    for (size_t i = 0; i < pts.size(); i++) {
        if (recs[i].factor.empty())
            continue;
        const std::string id = pts[i].id();
        const double k = recs[i].factor[0];
        auto at = [&](const std::map<std::string, double> &m) {
            auto it = m.find(id);
            return it == m.end() ? 0.0 : it->second;
        };
        span_compile += (at(fe) + at(be)) * k;
        span_sim += at(sm) * k;
    }
    o.set("trace.compile_s", span_compile / 1000, "s");
    o.set("trace.sim_s", span_sim / 1000, "s");
    serve_layer(cfg, pts, recs, tr, o);
    return o;
}

} // namespace perfbench
