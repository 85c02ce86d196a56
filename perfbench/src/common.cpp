#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "frontend/unroll.hpp"
#include "rawcc/schedcache.hpp"

namespace perfbench {

const Clock::time_point g_process_start = Clock::now();

double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
thread_cpu_ms()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

namespace {

/** Keeps the calibration loop's result alive. */
volatile uint32_t g_cal_sink;

/** The calibration loop itself (see common.hpp). */
void
calibration_loop()
{
    static std::vector<uint32_t> buf(1u << 20);
    uint64_t x = 88172645463325252ull;
    uint32_t acc = 1;
    for (int i = 0; i < 300000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint32_t &w = buf[x & (buf.size() - 1)];
        w += acc;
        acc = acc * 31 + w;
    }
    std::map<uint32_t, uint32_t> m;
    for (uint32_t i = 0; i < 20000; i++)
        m[acc + i * 2654435761u] = i;
    acc += static_cast<uint32_t>(m.size());
    float f = 1;
    for (int i = 0; i < 300000; i++)
        f = f * 1.0000001f + 0.5f / (f + 1.0f);
    g_cal_sink = acc + static_cast<uint32_t>(f);
}

} // namespace

double
calibrate_ms()
{
    // The first run brings the buffer and the allocator to the same
    // warm state every time; only the second is timed.
    calibration_loop();
    double c0 = thread_cpu_ms();
    calibration_loop();
    return thread_cpu_ms() - c0;
}

std::vector<int>
allowed_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return cpus;
    for (int c = 0; c < CPU_SETSIZE; c++)
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    return cpus;
}

void
pin_thread(const std::vector<int> &cpus)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0)
        throw std::runtime_error("sched_setaffinity failed");
}

double
calibrate_on(const std::vector<int> &cpus, const std::vector<int> &after)
{
    if (cpus.empty())
        return calibrate_ms();
    double ms = 0;
    for (int cpu : cpus) {
        pin_thread({cpu});
        ms += calibrate_ms() / static_cast<double>(cpus.size());
    }
    pin_thread(after);
    return ms;
}

SetupTimer::SetupTimer(std::vector<int> cpus, std::vector<int> after)
    : cpus_(std::move(cpus)), after_(std::move(after))
{
    carried_ms_ = ms_between(g_process_start, Clock::now());
    reading_ = calibrate_on(cpus_, after_);
    from_ = Clock::now();
}

void
SetupTimer::lap()
{
    const Clock::time_point end = Clock::now();
    const double next = calibrate_on(cpus_, after_);
    ms_ += (carried_ms_ + ms_between(from_, end)) * host_factor(reading_, next);
    carried_ms_ = 0;
    reading_ = next;
    from_ = Clock::now();
}

double
host_factor(double a, double b)
{
    return kCalNominalMs / ((a + b) / 2);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
tail_sample(std::vector<double> v, double &pct)
{
    if (v.empty()) {
        pct = 0;
        return 0;
    }
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    if (n < 21) {
        // Ten samples beyond would put the tail at or below the median.
        pct = 100;
        return v.back();
    }
    pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    return v[n - 11];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

double
self_peak_rss_mb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
pid_peak_rss_mb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

void
Outcome::set(const std::string &name, double v, const std::string &unit)
{
    metrics[name] = {v, unit, false};
}

void
Outcome::set_count(const std::string &name, int64_t v,
                   const std::string &unit)
{
    metrics[name] = {static_cast<double>(v), unit, true};
}

void
Outcome::mismatch(const std::string &msg)
{
    mismatches.push_back(msg);
}

void
Outcome::failure(const std::string &msg)
{
    failed++;
    failures.push_back(msg);
}

void
Tracer::span(const std::string &track, const std::string &name,
             const std::string &id, Clock::time_point begin,
             Clock::time_point end)
{
    if (!on_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({track, name, id, begin, end});
}

std::map<std::string, double>
Tracer::track_ms() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        out[s.track] += ms_between(s.begin, s.end);
    return out;
}

std::map<std::string, double>
Tracer::id_ms(const std::string &prefix) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        if (s.track.rfind(prefix, 0) == 0)
            out[s.id] += ms_between(s.begin, s.end);
    return out;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

namespace {

std::string
json_str(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, int> tid;
    std::vector<const Span *> order;
    for (const Span &s : spans_) {
        tid.emplace(s.track, static_cast<int>(tid.size()) + 1);
        order.push_back(&s);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Span *a, const Span *b) {
                         return a->begin < b->begin;
                     });
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    out << "[\n";
    bool first = true;
    auto sep = [&] {
        out << (first ? "" : ",\n");
        first = false;
    };
    for (const auto &[track, t] : tid) {
        sep();
        out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
            << t << ",\"args\":{\"name\":" << json_str(track) << "}}";
    }
    // Integer microseconds; a span that rounds onto its predecessor's
    // end is pushed back, so spans on one track never overlap.
    std::map<int, int64_t> track_end;
    for (const Span *s : order) {
        int t = tid[s->track];
        auto us = [](Clock::time_point p) {
            return static_cast<int64_t>(std::llround(
                std::chrono::duration<double, std::micro>(
                    p - g_process_start)
                    .count()));
        };
        int64_t b = std::max<int64_t>(us(s->begin), 0);
        int64_t e = us(s->end);
        auto it = track_end.find(t);
        if (it != track_end.end())
            b = std::max(b, it->second);
        int64_t dur = std::max<int64_t>(e - b, 1);
        track_end[t] = b + dur;
        sep();
        out << "{\"name\":" << json_str(s->name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << t << ",\"ts\":" << b
            << ",\"dur\":" << dur << ",\"args\":{\"id\":" << json_str(s->id)
            << "}}";
    }
    out << "\n]\n";
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
}

raw::CompilerOptions
bench_options()
{
    raw::CompilerOptions o;
    o.orch.jobs = 1;
    o.orch.use_cache = true;
    return o;
}

TimedCompile
timed_compile(const std::string &source, int tiles, bool cold,
              bool keep_lowered, Tracer &tr, const std::string &id)
{
    if (cold)
        raw::SchedCache::instance().clear_memory();
    raw::MachineConfig machine = raw::MachineConfig::base(tiles);
    raw::CompilerOptions opts = bench_options();
    TimedCompile c;

    Clock::time_point t0 = Clock::now();
    double c0 = thread_cpu_ms();
    raw::Program ast = raw::parse_program(source);
    double c1 = thread_cpu_ms();
    Clock::time_point t1 = Clock::now();
    raw::UnrollOptions uo = opts.unroll;
    uo.n_tiles = tiles;
    raw::unroll_program(ast, uo);
    double c2 = thread_cpu_ms();
    Clock::time_point t2 = Clock::now();
    raw::Function fn = raw::lower_program(ast);
    double c3 = thread_cpu_ms();
    Clock::time_point t3 = Clock::now();
    if (keep_lowered)
        c.lowered = fn;
    Clock::time_point t4 = Clock::now();
    double c4 = thread_cpu_ms();
    c.out = raw::compile_function(std::move(fn), machine, opts);
    double c5 = thread_cpu_ms();
    Clock::time_point t5 = Clock::now();

    c.parse_ms = c1 - c0;
    c.unroll_ms = c2 - c1;
    c.lower_ms = c3 - c2;
    c.backend_ms = c5 - c4;
    tr.span("frontend", "parse", id, t0, t1);
    tr.span("frontend", "unroll", id, t1, t2);
    tr.span("frontend", "lower", id, t2, t3);
    tr.span("rawcc", cold ? "compile_function cold" : "compile_function",
            id, t4, t5);
    return c;
}

std::vector<RefPrint>
ref_prints(const raw::SimResult &r)
{
    std::vector<RefPrint> p;
    p.reserve(r.prints.size());
    for (const raw::PrintRecord &pr : r.prints)
        p.push_back({pr.type == raw::Type::kF32, pr.bits});
    return p;
}

TimedSim
timed_sim(const raw::CompiledProgram &prog, const std::string &check_array,
          raw::SimBackend backend, Tracer &tr, const std::string &track,
          const std::string &id)
{
    TimedSim s;
    Clock::time_point t0 = Clock::now();
    double c0 = thread_cpu_ms();
    raw::Simulator sim(prog, {}, {}, backend);
    s.r = sim.run();
    s.ms = thread_cpu_ms() - c0;
    Clock::time_point t1 = Clock::now();
    tr.span(track, "run", id, t0, t1);
    s.prints = ref_prints(s.r);
    s.check_words = sim.read_array(check_array);
    return s;
}

const std::vector<std::string> &
core_names()
{
    static const std::vector<std::string> names = {"reference", "threaded",
                                                   "region"};
    return names;
}

bool
find_core(const std::string &name, raw::SimBackend &out)
{
    try {
        out = raw::sim_backend_from_string(name);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

BaselineRun
run_checked_baseline(const raw::BenchmarkProgram &prog, const RefOutput &ref,
                     Tracer &tr, Outcome &o)
{
    BaselineRun b;
    Clock::time_point t0 = Clock::now();
    double c0 = thread_cpu_ms();
    raw::CompileOutput out = raw::compile_baseline(prog.source);
    raw::Simulator sim(out.program);
    raw::SimResult r = sim.run();
    b.ms = thread_cpu_ms() - c0;
    Clock::time_point t1 = Clock::now();
    b.cycles = r.cycles;
    tr.span("baseline", "compile+run", prog.name, t0, t1);
    std::string bad = compare_output(prog.name + " baseline", ref,
                                     ref_prints(r),
                                     sim.read_array(prog.check_array));
    if (!bad.empty())
        o.mismatch(bad);
    return b;
}

Facts
facts_of(const raw::CompileStats &st, const raw::SimResult &r)
{
    Facts f;
    f.cycles = r.cycles;
    f.instrs = r.instrs_executed;
    f.words = r.words_routed;
    f.dyn_msgs = r.dyn_messages;
    f.stalls = r.proc_stall_cycles;
    f.ir_instrs = st.ir_instrs;
    f.static_instrs = st.static_instrs;
    f.spill_ops = st.spill_ops;
    f.dyn_refs = st.dynamic_refs;
    f.swaps = st.placement_swaps;
    f.cache_hits = st.cache.hits();
    f.cache_misses = st.cache.misses();
    f.est_makespan = st.estimated_makespan();
    return f;
}

void
LayerSums::add_compile(const TimedCompile &c)
{
    parse_ms += c.parse_ms;
    unroll_ms += c.unroll_ms;
    lower_ms += c.lower_ms;
    backend_ms += c.backend_ms;
}

void
LayerSums::add_facts(const Facts &f, int tiles)
{
    facts.cycles += f.cycles;
    facts.instrs += f.instrs;
    facts.words += f.words;
    facts.dyn_msgs += f.dyn_msgs;
    facts.stalls += f.stalls;
    facts.ir_instrs += f.ir_instrs;
    facts.static_instrs += f.static_instrs;
    facts.spill_ops += f.spill_ops;
    facts.dyn_refs += f.dyn_refs;
    facts.swaps += f.swaps;
    facts.cache_hits += f.cache_hits;
    facts.cache_misses += f.cache_misses;
    facts.est_makespan += f.est_makespan;
    tile_cycles += static_cast<double>(f.cycles) * tiles;
}

void
emit_layer_metrics(const LayerSums &s, Outcome &o)
{
    o.set("frontend.parse_ms", s.parse_ms, "ms");
    o.set("frontend.unroll_ms", s.unroll_ms, "ms");
    o.set("frontend.lower_ms", s.lower_ms, "ms");
    o.set_count("frontend.ir_instrs", s.facts.ir_instrs, "instrs");
    o.set("rawcc.backend_cold_ms", s.backend_ms, "ms");
    o.set("rawcc.backend_warm_ms", s.warm_ms, "ms");
    o.set_count("rawcc.dynamic_refs", s.facts.dyn_refs);
    o.set_count("partition.placement_swaps", s.facts.swaps);
    o.set_count("schedcache.hits", s.facts.cache_hits);
    o.set_count("schedcache.misses", s.facts.cache_misses);
    o.set_count("link.static_instrs", s.facts.static_instrs, "instrs");
    o.set_count("link.spill_ops", s.facts.spill_ops);
    o.set_count("sim.dyn_messages", s.facts.dyn_msgs);
    o.set_count("sim.words_routed", s.facts.words, "words");
    o.set_count("sim.instrs", s.facts.instrs, "instrs");
    o.set_count("sim.proc_stall_cycles", s.facts.stalls, "cycles");
    for (const auto &[core, ms] : s.core_ms) {
        o.set("sim." + core + ".s", ms / 1000, "s");
        o.set("sim." + core + ".tile_cycles_per_s",
              ms > 0 ? s.tile_cycles / (ms / 1000) : 0, "tile-cycles/s");
    }
    o.set("baseline.s", s.baseline_ms / 1000, "s");
}

void
check_cores(const raw::CompiledProgram &prog, const std::string &check_array,
            const RefOutput &ref, int64_t cycles, bool all_cores, double k,
            Tracer &tr, const std::string &id,
            std::map<std::string, double> &core_ms, Outcome &o)
{
    for (const std::string &name : core_names()) {
        raw::SimBackend b;
        if (!find_core(name, b) || (!all_cores && name != "threaded"))
            continue;
        TimedSim s = timed_sim(prog, check_array, b, tr, "sim." + name, id);
        core_ms[name] += s.ms * k;
        if (s.r.cycles != cycles)
            o.mismatch(id + ": " + name + " core " +
                       std::to_string(s.r.cycles) + " cycles, default " +
                       std::to_string(cycles));
        std::string bad =
            compare_output(id + " " + name, ref, s.prints, s.check_words);
        if (!bad.empty())
            o.mismatch(bad);
    }
}

} // namespace perfbench
