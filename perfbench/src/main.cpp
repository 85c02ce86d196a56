/**
 * @file
 * perfbench — the RawCC end-to-end benchmark driver.
 *
 *   perfbench --workload table3|mesh128|serve_mix --seed N --seconds S
 *             --trace 0|1 --rawcc PATH --out DIR [--smoke]
 *   perfbench --selftest
 *
 * Prints progress lines, then as its last line one JSON object:
 * {"correct":..., "attempted":..., "failed":..., "metrics":{...}}.
 * With --trace 1 it also writes DIR/trace_<workload>.json (Chrome
 * trace events, one track per layer) and reports per-layer metrics.
 * See perfbench/README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "common.hpp"

namespace perfbench {

namespace {

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload table3|mesh128|serve_mix "
                 "--seed N --seconds S --trace 0|1 --rawcc PATH --out DIR "
                 "[--smoke] | --selftest\n";
    std::exit(2);
}

std::string
number(const Metric &m)
{
    char buf[64];
    if (m.integral)
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(m.value));
    else
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
    return buf;
}

void
print_result(const Outcome &o, bool correct)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : o.metrics) {
        os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << number(m) << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

/**
 * The checker must reject a single corrupted output word: compile and
 * simulate jacobi on 4 tiles, accept the clean result, then flip one
 * bit of a check-array word and of a print and require rejection.
 */
int
selftest()
{
    Tracer off(false);
    const raw::BenchmarkProgram &p = raw::benchmark("jacobi");
    RefOutput ref = reference_output(p.name);
    TimedCompile c = timed_compile(p.source, 4, true, false, off, "jacobi@4");
    TimedSim s = timed_sim(c.out.program, p.check_array,
                           raw::SimBackend::kReference, off, "sim", "jacobi@4");
    int bad = 0;
    std::string clean = compare_output("clean", ref, s.prints, s.check_words);
    if (!clean.empty()) {
        std::cout << "FAIL clean output rejected: " << clean << "\n";
        bad++;
    }
    std::vector<uint32_t> words = s.check_words;
    words[words.size() / 2] ^= 1u;
    std::string w = compare_output("corrupt word", ref, s.prints, words);
    std::cout << (w.empty() ? "FAIL corrupted word accepted\n"
                            : "ok corrupted word rejected: " + w + "\n");
    bad += w.empty();
    std::vector<RefPrint> prints = s.prints;
    prints[0].bits ^= 0x80000000u;
    std::string q = compare_output("corrupt print", ref, prints, s.check_words);
    std::cout << (q.empty() ? "FAIL corrupted print accepted\n"
                            : "ok corrupted print rejected: " + q + "\n");
    bad += q.empty();
    // Every reference must match the sequential baseline as well.
    for (const raw::BenchmarkProgram &b : raw::benchmark_suite()) {
        Outcome o;
        run_checked_baseline(b, reference_output(b.name), off, o);
        for (const std::string &m : o.mismatches) {
            std::cout << "FAIL " << m << "\n";
            bad++;
        }
    }
    std::cout << (bad ? "selftest FAILED\n" : "selftest passed\n");
    return bad ? 1 : 0;
}

int
run(int argc, char **argv)
{
    RunConfig cfg;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--selftest")
            return selftest();
        if (a == "--workload")
            cfg.workload = value();
        else if (a == "--seed") {
            cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            cfg.seconds = std::strtod(value().c_str(), nullptr);
            have_seconds = true;
        } else if (a == "--trace") {
            std::string t = value();
            if (t != "0" && t != "1")
                usage("--trace must be 0 or 1");
            cfg.trace = t == "1";
            have_trace = true;
        } else if (a == "--rawcc")
            cfg.rawcc_bin = value();
        else if (a == "--out")
            cfg.out_dir = value();
        else if (a == "--smoke")
            cfg.smoke = true;
        else
            usage("unknown argument " + a);
    }
    if (cfg.workload != "table3" && cfg.workload != "mesh128" &&
        cfg.workload != "serve_mix")
        usage("unknown workload '" + cfg.workload + "'");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    if (!(cfg.seconds > 0))
        usage("--seconds must be positive");
    if (cfg.rawcc_bin.empty() || cfg.out_dir.empty())
        usage("--rawcc and --out are required");

    Tracer tr(cfg.trace);
    Outcome o = cfg.workload == "serve_mix" ? run_serve_mix(cfg, tr)
                                            : run_points(cfg, tr);
    if (cfg.trace) {
        std::string path = cfg.out_dir + "/trace_" + cfg.workload + ".json";
        tr.write(path);
        std::cout << "trace: " << path << " (" << tr.size() << " spans)\n";
        for (const auto &[track, ms] : tr.track_ms()) {
            std::cout << "self " << track << " " << ms << " ms\n";
            std::string layer = track.substr(0, track.find('.'));
            // Summed per layer: the sim and serve tracks roll up.
            o.metrics["self." + layer + "_ms"].value += ms;
            o.metrics["self." + layer + "_ms"].unit = "ms";
        }
    }
    for (const std::string &n : o.notes)
        std::cout << n << "\n";
    for (const std::string &f : o.failures)
        std::cout << "FAILED: " << f << "\n";
    for (const std::string &m : o.mismatches)
        std::cout << "MISMATCH: " << m << "\n";
    bool correct = o.mismatches.empty() && o.attempted > 0;
    print_result(o, correct);
    return correct ? 0 : 1;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
