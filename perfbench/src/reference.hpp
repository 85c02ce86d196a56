#ifndef PERFBENCH_REFERENCE_HPP
#define PERFBENCH_REFERENCE_HPP

/**
 * @file
 * Independent references for the seven Table 2 programs: plain
 * single-precision C++ of each kernel, with the rawc program's
 * operation order and FP contraction off (see CMakeLists.txt), so
 * every print and every word of the check array must be equal bit
 * for bit to what a compiled and simulated program produces.  None of
 * this code touches the compiler, the IR evaluator or the simulator.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One print() in program order: float or int, and its bits. */
struct RefPrint
{
    bool is_float = false;
    uint32_t bits = 0;
    bool operator==(const RefPrint &o) const = default;
};

/** The observable result of one program run. */
struct RefOutput
{
    std::vector<RefPrint> prints;
    /** Final contents of the program's check array, in word order. */
    std::vector<uint32_t> check_words;
};

/** Reference output of the built-in program @p name; throws if unknown. */
RefOutput reference_output(const std::string &name);

/**
 * Compare an observed run against @p ref.  Returns an empty string
 * when equal, else a message naming the first differing word.
 */
std::string compare_output(const std::string &what, const RefOutput &ref,
                           const std::vector<RefPrint> &prints,
                           const std::vector<uint32_t> &check_words);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HPP
