/**
 * @file
 * The serve_mix workload: a `rawcc serve` daemon (2 workers) driven
 * by 2 closed-loop client connections with a seeded mix of
 *
 *  - one `simulate` request per built-in program at 16 tiles, which
 *    hits the daemon's flight cache after the warm-up, so its time is
 *    simulation plus daemon overhead; and
 *  - one `compile` request per edit site: a seeded one-statement edit
 *    of a built-in kernel, sent as inline source, which misses the
 *    flight cache, hits the schedule cache for every block the edit
 *    left alone and writes the block it changed.
 *
 * The proportions are one request per key and per site in every
 * round; they are not measured user traffic.
 *
 * Every reply is checked against an in-process compile or simulation
 * of the same source, and every simulated key against the
 * independent reference.
 */

#include <algorithm>
#include <cctype>
#include <random>
#include <set>
#include <sstream>

#include "common.hpp"
#include "serve_drive.hpp"

namespace perfbench {

namespace {

/** The mesh of every request: the middle of the paper's five meshes. */
constexpr int kTiles = 16;

/**
 * An edit site: the first floating-point literal in a built-in
 * kernel's source (comments skipped).  The rule is mechanical, so no
 * site is picked by hand; life has no such literal and has no site.
 */
struct EditSite
{
    const raw::BenchmarkProgram *prog;
    size_t at = 0, len = 0;
};

bool
ident_char(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<EditSite>
edit_sites()
{
    std::vector<EditSite> sites;
    for (const raw::BenchmarkProgram &p : raw::benchmark_suite()) {
        const std::string &src = p.source;
        for (size_t i = 0; i < src.size(); i++) {
            if (src.compare(i, 2, "//") == 0) {
                i = src.find('\n', i);
                if (i == std::string::npos)
                    break;
                continue;
            }
            if (!std::isdigit(static_cast<unsigned char>(src[i])) ||
                (i > 0 && ident_char(src[i - 1])))
                continue;
            size_t j = i;
            while (j < src.size() &&
                   std::isdigit(static_cast<unsigned char>(src[j])))
                j++;
            if (j + 1 < src.size() && src[j] == '.' &&
                std::isdigit(static_cast<unsigned char>(src[j + 1]))) {
                j++;
                while (j < src.size() &&
                       std::isdigit(static_cast<unsigned char>(src[j])))
                    j++;
                sites.push_back({&p, i, j - i});
                break;
            }
            i = j;
        }
    }
    return sites;
}

/** The kernel's source with the site's literal's fraction set to @p digits. */
std::string
edited_source(const EditSite &s, int digits)
{
    std::string src = s.prog->source;
    std::string lit = src.substr(s.at, s.len);
    src.replace(s.at, s.len,
                lit.substr(0, lit.find('.') + 1) + std::to_string(digits));
    return src;
}

constexpr int kConns = 2;
constexpr int kWorkers = 2;
constexpr int kDigitBase = 1000;
constexpr int kDigitSpan = 4500;

/**
 * Per-connection request rounds.  A round holds one simulate of every
 * built-in program and one compile of every edit site, in a seeded
 * order; an edit's new literal is seeded too, from values no other
 * connection draws and never repeated on one connection, so every
 * compile is a flight-cache miss.
 */
class MixSource
{
  public:
    MixSource(uint64_t seed, int conn, const std::vector<EditSite> &sites,
              bool smoke)
        : rng_(seed * 1000003 + static_cast<uint64_t>(conn)), conn_(conn),
          sites_(sites), used_(sites.size()), smoke_(smoke)
    {
    }

    void
    round(int r, std::vector<Request> &out)
    {
        const std::vector<raw::BenchmarkProgram> &suite =
            raw::benchmark_suite();
        std::vector<int> kinds;
        int n_keys = smoke_ ? 1 : static_cast<int>(suite.size());
        int n_sites = smoke_ ? 1 : static_cast<int>(sites_.size());
        for (int k = 0; k < n_keys; k++)
            kinds.push_back(k);
        for (int s = 0; s < n_sites; s++)
            kinds.push_back(kSiteBase + s);
        std::shuffle(kinds.begin(), kinds.end(), rng_);
        int n = 0;
        for (int kind : kinds) {
            std::string id = "c" + std::to_string(conn_) + "-r" +
                             std::to_string(r) + "-" + std::to_string(n++);
            if (kind < kSiteBase) {
                out.push_back(
                    simulate_request(id, suite[kind].name, kTiles, kind));
                out.back().round = r;
            } else {
                int s = kind - kSiteBase;
                int digits;
                do {
                    digits = kDigitBase +
                             2 * static_cast<int>(rng_() % kDigitSpan) + conn_;
                } while (!used_[s].insert(digits).second);
                out.push_back(compile_request(
                    id, edited_source(sites_[s], digits), kTiles, s));
                out.back().round = r;
            }
        }
    }

  private:
    static constexpr int kSiteBase = 100;
    std::mt19937_64 rng_;
    int conn_;
    const std::vector<EditSite> &sites_;
    std::vector<std::set<int>> used_;
    bool smoke_;
};

} // namespace

Outcome
run_serve_mix(const RunConfig &cfg, Tracer &tr)
{
    Outcome o;
    Tracer off(false);
    Tracer &ltr = cfg.trace ? tr : off;
    const std::vector<raw::BenchmarkProgram> &suite = raw::benchmark_suite();
    const std::vector<EditSite> sites = edit_sites();

    // The host's speed differs between CPUs and drifts on each, so the
    // host-speed loop must run on the CPUs the daemon's workers run
    // on.  Given enough CPUs, the daemon gets the last kWorkers of
    // them and each client connection one of the first kConns.
    const std::vector<int> cpus = allowed_cpus();
    std::vector<int> daemon_cpus;
    if (cpus.size() >= static_cast<size_t>(kConns + kWorkers))
        daemon_cpus.assign(cpus.end() - kWorkers, cpus.end());

    // Set-up: daemon start to readiness, then one warm-up pass over
    // every distinct key (each simulate key, each unedited kernel).
    // Each of these steps is host-speed scaled by readings on the
    // daemon's CPUs on both sides of it.
    SetupTimer setup(daemon_cpus, cpus);
    DaemonSession d;
    d.start(cfg.rawcc_bin, kWorkers, daemon_cpus);
    setup.lap();
    for (size_t k = 0; k < suite.size(); k++) {
        Reply r = d.one(simulate_request("warm-sim-" + std::to_string(k),
                                         suite[k].name, kTiles,
                                         static_cast<int>(k)));
        if (!r.ok)
            throw std::runtime_error("warm-up simulate failed: " + r.error);
        setup.lap();
    }
    for (size_t s = 0; s < sites.size(); s++) {
        Reply r = d.one(compile_request("warm-compile-" + std::to_string(s),
                                        sites[s].prog->source, kTiles,
                                        static_cast<int>(s)));
        if (!r.ok)
            throw std::runtime_error("warm-up compile failed: " + r.error);
        setup.lap();
    }
    const double setup_s = setup.seconds();

    // Measured window: whole rounds on each connection until the
    // seconds are spent.  Each connection times the host-speed loop on
    // every daemon CPU before its first round and after every round; a
    // request's times are scaled by the readings around its round.
    std::vector<std::vector<double>> cal(kConns);
    std::vector<MixSource> sources;
    for (int c = 0; c < kConns; c++)
        sources.emplace_back(cfg.seed, c, sites, cfg.smoke);
    const Clock::time_point w0 = Clock::now();
    const Clock::time_point deadline =
        w0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(cfg.seconds));
    int64_t sent = 0;
    std::vector<Reply> replies = d.drive(
        kConns,
        [&](int conn, int round, std::vector<Request> &out) {
            cal[conn].push_back(calibrate_on(
                daemon_cpus, daemon_cpus.empty()
                                 ? std::vector<int>{}
                                 : std::vector<int>{cpus[conn]}));
            if (round > 0 && (cfg.smoke || Clock::now() >= deadline))
                return false;
            sources[conn].round(round, out);
            return true;
        },
        ltr, sent);
    const double window_s = ms_between(w0, Clock::now()) / 1000;

    int64_t flight_hits = 0, flight_misses = 0;
    d.flight_stats(flight_hits, flight_misses);
    const double daemon_rss = d.peak_rss_mb();
    int rc = d.stop();
    if (rc != 0)
        o.mismatch("serve daemon exited with code " + std::to_string(rc));
    tally_replies(replies, sent, o);

    // In-process truth for every simulate key: compile, simulate on the
    // default core, check against the reference, cross-check the
    // threaded core (every core, traced), and run the sequential
    // baseline.
    std::vector<Facts> truth(suite.size());
    std::vector<int64_t> base_cycles(suite.size(), 0);
    LayerSums sum;
    auto warm_compile = [&](const TimedCompile &c, const std::string &id) {
        if (!cfg.trace)
            return;
        Clock::time_point t0 = Clock::now();
        double c0 = thread_cpu_ms();
        raw::CompileOutput w = raw::compile_function(
            c.lowered, raw::MachineConfig::base(kTiles), bench_options());
        sum.warm_ms += thread_cpu_ms() - c0;
        tr.span("schedcache", "compile_function warm", id, t0, Clock::now());
        if (w.stats.static_instrs != c.out.stats.static_instrs)
            o.mismatch(id + ": warm compile differs from cold");
    };
    for (size_t k = 0; k < suite.size(); k++) {
        const raw::BenchmarkProgram &prog = suite[k];
        const std::string id = prog.name + "@" + std::to_string(kTiles);
        RefOutput ref = reference_output(prog.name);
        try {
            TimedCompile c = timed_compile(prog.source, kTiles, /*cold=*/true,
                                           cfg.trace, ltr, id);
            sum.add_compile(c);
            warm_compile(c, id);
            Clock::time_point t0 = Clock::now();
            raw::Simulator sim(c.out.program);
            raw::SimResult r = sim.run();
            ltr.span("sim.default", "run", id, t0, Clock::now());
            std::string bad = compare_output(id, ref, ref_prints(r),
                                             sim.read_array(prog.check_array));
            if (!bad.empty())
                o.mismatch(bad);
            truth[k] = facts_of(c.out.stats, r);
            sum.add_facts(truth[k], kTiles);
            check_cores(c.out.program, prog.check_array, ref, r.cycles,
                        cfg.trace, 1, ltr, id, sum.core_ms, o);
            BaselineRun br = run_checked_baseline(prog, ref, ltr, o);
            base_cycles[k] = br.cycles;
            sum.baseline_ms += br.ms;
        } catch (const std::exception &e) {
            o.mismatch(id + ": in-process run failed: " + e.what());
        }
    }

    // In-process replay of every compile request, in send order per
    // connection, after the unedited kernels (as in the warm-up), so
    // the schedule cache sees the traffic the daemon's did.
    raw::SchedCacheCounters replay_cache;
    for (const EditSite &site : sites) {
        const std::string id = site.prog->name + "@" +
                               std::to_string(kTiles) + "-base";
        TimedCompile c = timed_compile(site.prog->source, kTiles, false,
                                       cfg.trace, ltr, id);
        sum.add_compile(c);
        warm_compile(c, id);
        sum.add_facts(facts_of(c.out.stats, raw::SimResult{}), kTiles);
    }
    for (const Reply &r : replies) {
        if (!r.ok)
            continue;
        if (!r.req.compile) {
            std::string bad = check_reply(r, truth[r.req.key]);
            if (!bad.empty())
                o.mismatch(bad);
            continue;
        }
        try {
            TimedCompile c =
                timed_compile(r.req.source, kTiles, false, false, off, r.req.id);
            replay_cache.add(c.out.stats.cache);
            std::string bad =
                check_reply(r, facts_of(c.out.stats, raw::SimResult{}));
            if (!bad.empty())
                o.mismatch(bad);
        } catch (const std::exception &e) {
            o.mismatch(r.req.id + ": in-process compile failed: " + e.what());
        }
    }
    sum.facts.cache_hits = replay_cache.hits();
    sum.facts.cache_misses = replay_cache.misses();

    // Per kind of request: the daemon's run (compile) or sim time, the
    // client-observed latency, and, traced, the client span.
    const size_t n_kinds = suite.size() + sites.size();
    auto kind_of = [&](const Reply &r) {
        return r.req.compile ? suite.size() + r.req.key
                             : static_cast<size_t>(r.req.key);
    };
    const std::map<std::string, double> span_ms = tr.id_ms("serve.conn");
    std::vector<std::vector<double>> server_ms(n_kinds), kind_lat(n_kinds),
        kind_span(n_kinds);
    std::vector<std::vector<double>> raw_server_ms(n_kinds);
    std::vector<double> lat, raw_lat, factors;
    for (const Reply &r : replies) {
        if (!r.ok)
            continue;
        const std::vector<double> &c = cal[r.conn];
        const double k =
            host_factor(c.at(r.req.round), c.at(r.req.round + 1));
        const size_t kind = kind_of(r);
        const double server = r.req.compile ? r.run_ms : r.sim_ms;
        server_ms[kind].push_back(server * k);
        raw_server_ms[kind].push_back(server);
        kind_lat[kind].push_back(r.latency_ms * k);
        auto it = span_ms.find(r.req.id);
        if (it != span_ms.end())
            kind_span[kind].push_back(it->second * k);
        lat.push_back(r.latency_ms * k);
        raw_lat.push_back(r.latency_ms);
        factors.push_back(k);
    }
    double compile_ms = 0, sim_ms = 0, span_compile = 0, span_sim = 0;
    double raw_compile_ms = 0, raw_sim_ms = 0, cycles = 0;
    std::vector<double> speedups;
    for (size_t kind = 0; kind < n_kinds; kind++) {
        bool is_sim = kind < suite.size();
        (is_sim ? sim_ms : compile_ms) += median(server_ms[kind]);
        (is_sim ? raw_sim_ms : raw_compile_ms) += median(raw_server_ms[kind]);
        (is_sim ? span_sim : span_compile) += median(kind_span[kind]);
    }
    double mean_factor = 0;
    for (double k : factors)
        mean_factor += k / static_cast<double>(factors.size());
    for (size_t k = 0; k < suite.size(); k++) {
        cycles += static_cast<double>(truth[k].cycles);
        if (truth[k].cycles > 0)
            speedups.push_back(static_cast<double>(base_cycles[k]) /
                               static_cast<double>(truth[k].cycles));
    }
    double tail_pct = 0;
    o.set("setup_s", setup_s, "s");
    o.set("compile_s", compile_ms / 1000, "s");
    o.set("sim_s", sim_ms / 1000, "s");
    o.set("sim_tile_cycles_per_s",
          sim_ms > 0 ? sum.tile_cycles / (sim_ms / 1000) : 0,
          "tile-cycles/s");
    o.set_count("sim_cycles", static_cast<int64_t>(cycles), "cycles");
    o.set("speedup_geomean", geomean(speedups), "x");
    o.set("peak_rss_mb", daemon_rss, "MB");
    o.set("req_p50_ms", median(lat), "ms");
    o.set("req_tail_ms", tail_sample(lat, tail_pct), "ms");
    // The window at the host's nominal speed.
    o.set("throughput_rps",
          window_s > 0 && mean_factor > 0
              ? static_cast<double>(lat.size()) / (window_s * mean_factor)
              : 0,
          "req/s");
    o.set("unscaled.compile_s", raw_compile_ms / 1000, "s");
    o.set("unscaled.sim_s", raw_sim_ms / 1000, "s");
    {
        std::ostringstream os;
        os << "requests " << sent << " in " << window_s
           << " s, daemon ready in " << d.ready_ms() << " ms, req_p50_ms "
           << median(lat) << " (unscaled " << median(raw_lat)
           << "), req_tail_ms is p" << tail_pct << ", median host factor "
           << median(factors);
        o.notes.push_back(os.str());
        // The latency distribution has one cluster per kind of request;
        // req_p50_ms lands in one of them.
        std::vector<std::pair<double, std::string>> rows;
        for (size_t kind = 0; kind < n_kinds; kind++)
            if (!kind_lat[kind].empty())
                rows.push_back(
                    {median(kind_lat[kind]),
                     kind < suite.size()
                         ? "simulate " + suite[kind].name
                         : "compile " + sites[kind - suite.size()].prog->name});
        std::sort(rows.begin(), rows.end());
        std::ostringstream ks;
        ks << "edit sites:";
        for (const EditSite &site : sites)
            ks << " " << site.prog->name << " "
               << site.prog->source.substr(site.at, site.len) << ";";
        ks << " median latency per kind (ms, host-speed scaled):";
        for (const auto &[ms, name] : rows)
            ks << " " << name << " " << ms << ";";
        o.notes.push_back(ks.str());
    }
    if (!cfg.trace)
        return o;

    emit_layer_metrics(sum, o);
    o.set("trace.compile_s", span_compile / 1000, "s");
    o.set("trace.sim_s", span_sim / 1000, "s");
    emit_serve_metrics(replies, flight_hits, flight_misses, o);
    return o;
}

} // namespace perfbench
