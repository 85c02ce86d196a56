#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

/**
 * @file
 * Shared pieces of the benchmark driver: the run configuration, the
 * outcome and metric records every workload fills in, the span
 * recorder behind the traced run, and the timed calls into RawCC's
 * public API that every workload measures the same way.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "reference.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two time points. */
double ms_between(Clock::time_point a, Clock::time_point b);

/**
 * CPU time of the calling thread (ms).  Compiles here run on one
 * thread and every simulation core is single-threaded, so this is the
 * work a call did; unlike wall time it leaves out the time the host
 * ran something else on the vCPU (steal), which swings by 10-15%
 * between runs on a shared host.
 */
double thread_cpu_ms();

/**
 * Host-speed calibration.  The shared host's speed drifts by 10-20%
 * over tens of seconds (the same compile pass takes 3.8 s or 5.6 s in
 * one process), far more than a change worth measuring.  A fixed loop
 * owned by the benchmark (random reads and writes over 4 MB, a
 * std::map build, a dependent float chain; nothing from RawCC) is
 * timed right before and right after each operation, and the
 * operation's CPU time is scaled by kCalNominalMs / (mean loop time):
 * the time the operation would have taken on the host at its nominal
 * speed.  Each reading runs the loop twice and times only the second
 * run, so both readings start warm (buffer in cache, map nodes from
 * the allocator's free lists) whatever the operation before them left
 * behind.
 */
constexpr double kCalNominalMs = 8.0;
/** CPU ms of one warm run of the calibration loop. */
double calibrate_ms();
/** Scale factor for an operation bracketed by loop times @p a and @p b. */
double host_factor(double a, double b);

/** The CPUs this process may run on, in ascending order. */
std::vector<int> allowed_cpus();
/** Restrict the calling thread to @p cpus (no-op when empty). */
void pin_thread(const std::vector<int> &cpus);
/**
 * Mean calibrate_ms() over @p cpus, run on each in turn, after which
 * the calling thread is restricted to @p after.  With no @p cpus, one
 * reading wherever the thread runs.
 */
double calibrate_on(const std::vector<int> &cpus,
                    const std::vector<int> &after);

/**
 * Set-up time: wall time from process start, cut into pieces by
 * lap(), each piece host-speed scaled by the loop readings (taken with
 * calibrate_on) at its two ends.  The loop's own time is left out.
 */
class SetupTimer
{
  public:
    /** Takes the first reading; the first piece starts at process start. */
    SetupTimer(std::vector<int> cpus = {}, std::vector<int> after = {});
    /** End the current piece and start the next. */
    void lap();
    /** Scaled set-up time so far, over the pieces lap() ended (s). */
    double seconds() const { return ms_ / 1000; }

  private:
    std::vector<int> cpus_, after_;
    double reading_ = 0;
    /** Wall ms of the current piece before @c from_ (the first piece). */
    double carried_ms_ = 0;
    Clock::time_point from_;
    double ms_ = 0;
};

/** Set as early as static initialization allows: set-up is timed from here. */
extern const Clock::time_point g_process_start;

double median(std::vector<double> v);
/**
 * The request-tail rule: the highest order statistic with at least
 * ten samples beyond it; with fewer than 21 samples that would not
 * lie above the median, so the largest sample stands in.  Sets @p pct
 * to the percentile it stands for.
 */
double tail_sample(std::vector<double> v, double &pct);
double geomean(const std::vector<double> &v);

/** Peak resident set of this process, MB. */
double self_peak_rss_mb();
/** Peak resident set of process @p pid from /proc, MB (0 if unreadable). */
double pid_peak_rss_mb(int pid);

/** What the command line asked for. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** One point per workload, every check armed. */
    bool smoke = false;
    std::string rawcc_bin;
    std::string out_dir;
};

/** One metric as printed: value and unit. */
struct Metric
{
    double value = 0;
    std::string unit;
    bool integral = false;
};

/** What a workload reports. */
struct Outcome
{
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Output mismatches among the operations that did not fail. */
    std::vector<std::string> mismatches;
    std::vector<std::string> failures;
    std::map<std::string, Metric> metrics;
    /** Human-readable lines printed before the result (per-point rows). */
    std::vector<std::string> notes;

    void set(const std::string &name, double v, const std::string &unit);
    void set_count(const std::string &name, int64_t v,
                   const std::string &unit = "count");
    void mismatch(const std::string &msg);
    void failure(const std::string &msg);
};

/**
 * Span recorder for the traced run: one track per layer, each span
 * named, timed and tagged with its point or request id.  Disabled, it
 * records nothing.  Written as Chrome trace events.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}
    bool on() const { return on_; }
    void span(const std::string &track, const std::string &name,
              const std::string &id, Clock::time_point begin,
              Clock::time_point end);
    /** Sum of span durations per track (ms): each layer's self time. */
    std::map<std::string, double> track_ms() const;
    /** Sum of span durations per id over the tracks named @p prefix*. */
    std::map<std::string, double> id_ms(const std::string &prefix) const;
    size_t size() const;
    /** Write Chrome trace JSON; throws on I/O failure. */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        std::string track, name, id;
        Clock::time_point begin, end;
    };
    bool on_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * Layer timings (thread CPU ms) and facts of one timed compile
 * through the public API.
 */
struct TimedCompile
{
    raw::CompileOutput out;
    double parse_ms = 0, unroll_ms = 0, lower_ms = 0, backend_ms = 0;
    /** A copy of the lowered IR, kept only when asked for (warm compile). */
    raw::Function lowered;
    double frontend_ms() const { return parse_ms + unroll_ms + lower_ms; }
    double compile_ms() const { return frontend_ms() + backend_ms; }
};

/** The options every compile here uses: defaults, one thread. */
raw::CompilerOptions bench_options();

/**
 * parse_program -> unroll_program -> lower_program -> compile_function,
 * each call timed.  With @p cold the schedule cache's memory tier is
 * cleared first (outside the timing).
 */
TimedCompile timed_compile(const std::string &source, int tiles, bool cold,
                           bool keep_lowered, Tracer &tr,
                           const std::string &id);

/** One simulation and what the checks need from it. */
struct TimedSim
{
    raw::SimResult r;
    std::vector<RefPrint> prints;
    std::vector<uint32_t> check_words;
    /** Thread CPU time (ms). */
    double ms = 0;
};

/** Simulate on @p backend (construction and run timed together). */
TimedSim timed_sim(const raw::CompiledProgram &prog,
                   const std::string &check_array,
                   raw::SimBackend backend, Tracer &tr,
                   const std::string &track, const std::string &id);

/** Run-core names that sim_backend_from_string may accept. */
const std::vector<std::string> &core_names();
/** The core named @p name, or false when this build has removed it. */
bool find_core(const std::string &name, raw::SimBackend &out);

/** Print trace of a result in reference form. */
std::vector<RefPrint> ref_prints(const raw::SimResult &r);

/** Baseline (sequential, one tile) compile+simulate, checked. */
struct BaselineRun
{
    int64_t cycles = 0;
    /** Thread CPU ms. */
    double ms = 0;
};
BaselineRun run_checked_baseline(const raw::BenchmarkProgram &prog,
                                 const RefOutput &ref, Tracer &tr,
                                 Outcome &o);

/** Deterministic facts of one compile and simulation: they repeat exactly. */
struct Facts
{
    int64_t cycles = 0, instrs = 0, words = 0, dyn_msgs = 0, stalls = 0;
    int64_t ir_instrs = 0, static_instrs = 0, spill_ops = 0, dyn_refs = 0;
    int64_t swaps = 0, cache_hits = 0, cache_misses = 0, est_makespan = 0;
    bool operator==(const Facts &o) const = default;
};
Facts facts_of(const raw::CompileStats &st, const raw::SimResult &r);

/** What a workload's traced run sums per layer, over its points or keys. */
struct LayerSums
{
    double parse_ms = 0, unroll_ms = 0, lower_ms = 0, backend_ms = 0;
    double warm_ms = 0, baseline_ms = 0, tile_cycles = 0;
    /** Summed facts (cycles included). */
    Facts facts;
    /** Thread CPU ms per simulation core. */
    std::map<std::string, double> core_ms;
    void add_compile(const TimedCompile &c);
    void add_facts(const Facts &f, int tiles);
};
/** The per-layer metrics every workload reports from its sums. */
void emit_layer_metrics(const LayerSums &s, Outcome &o);

/**
 * Simulate @p prog again on the threaded core (or, with @p all_cores,
 * on every core this build accepts); each must give @p cycles and the
 * reference output.  Adds each core's CPU ms, scaled by @p k, to
 * @p core_ms.
 */
void check_cores(const raw::CompiledProgram &prog,
                 const std::string &check_array, const RefOutput &ref,
                 int64_t cycles, bool all_cores, double k, Tracer &tr,
                 const std::string &id,
                 std::map<std::string, double> &core_ms, Outcome &o);

/** Workload entry points. */
Outcome run_points(const RunConfig &cfg, Tracer &tr);
Outcome run_serve_mix(const RunConfig &cfg, Tracer &tr);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
