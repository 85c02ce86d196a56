#include "reference.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

uint32_t
bits(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

RefPrint
pf(float f)
{
    return {true, bits(f)};
}

RefPrint
pi(int32_t v)
{
    return {false, static_cast<uint32_t>(v)};
}

template <typename T, size_t N>
void
append_words(std::vector<uint32_t> &out, const T (&a)[N])
{
    for (size_t i = 0; i < N; i++)
        if constexpr (std::is_array_v<T>)
            append_words(out, a[i]);
        else if constexpr (std::is_same_v<T, float>)
            out.push_back(bits(a[i]));
        else
            out.push_back(static_cast<uint32_t>(a[i]));
}

RefOutput
jacobi()
{
    static float A[32][32], B[32][32];
    for (int i = 0; i < 32; i++)
        for (int j = 0; j < 32; j++) {
            A[i][j] = static_cast<float>(i * 3 + j * 7 + (i * j) % 11);
            B[i][j] = A[i][j];
        }
    for (int t = 0; t < 4; t++) {
        for (int i = 1; i < 31; i++)
            for (int j = 1; j < 31; j++)
                B[i][j] = 0.25f * (((A[i - 1][j] + A[i + 1][j]) +
                                    A[i][j - 1]) +
                                   A[i][j + 1]);
        for (int i = 1; i < 31; i++)
            for (int j = 1; j < 31; j++)
                A[i][j] = B[i][j];
    }
    RefOutput r;
    r.prints = {pf(A[7][9]), pf(A[16][16])};
    append_words(r.check_words, A);
    return r;
}

RefOutput
life()
{
    static int32_t world[32][32], nw[32][32];
    for (int i = 0; i < 32; i++)
        for (int j = 0; j < 32; j++) {
            world[i][j] = ((i * j) + 3 * i + 7 * j) % 5 == 0;
            nw[i][j] = 0;
        }
    for (int g = 0; g < 4; g++) {
        for (int i = 1; i < 31; i++)
            for (int j = 1; j < 31; j++) {
                int32_t sum = world[i - 1][j - 1] + world[i - 1][j] +
                              world[i - 1][j + 1] + world[i][j - 1] +
                              world[i][j + 1] + world[i + 1][j - 1] +
                              world[i + 1][j] + world[i + 1][j + 1];
                if (sum == 3)
                    nw[i][j] = 1;
                else if (sum == 2)
                    nw[i][j] = world[i][j];
                else
                    nw[i][j] = 0;
            }
        for (int i = 1; i < 31; i++)
            for (int j = 1; j < 31; j++)
                world[i][j] = nw[i][j];
    }
    int32_t cs = 0;
    for (int i = 0; i < 32; i++)
        for (int j = 0; j < 32; j++)
            cs = cs + world[i][j];
    RefOutput r;
    r.prints = {pi(cs)};
    append_words(r.check_words, world);
    return r;
}

RefOutput
mxm()
{
    static float A[32][64], B[64][8], C[32][8];
    for (int i = 0; i < 32; i++)
        for (int k = 0; k < 64; k++)
            A[i][k] = static_cast<float>((i + 2 * k) % 9) * 0.5f + 0.25f;
    for (int k = 0; k < 64; k++)
        for (int j = 0; j < 8; j++)
            B[k][j] =
                static_cast<float>((3 * k + j) % 7) * 0.25f + 0.125f;
    for (int i = 0; i < 32; i++)
        for (int j = 0; j < 8; j++) {
            float s = 0.0f;
            for (int k = 0; k < 64; k++)
                s = s + A[i][k] * B[k][j];
            C[i][j] = s;
        }
    RefOutput r;
    r.prints = {pf(C[5][3]), pf(C[31][7])};
    append_words(r.check_words, C);
    return r;
}

RefOutput
vpenta()
{
    static float a[32][32], b[32][32], c[32][32], x[32][32], y[32][32];
    for (int i = 0; i < 32; i++)
        for (int j = 0; j < 32; j++) {
            a[i][j] = 0.1f + static_cast<float>((i + j) % 5) * 0.05f;
            b[i][j] = 0.2f + static_cast<float>((2 * i + j) % 7) * 0.03f;
            c[i][j] = 1.5f + static_cast<float>((i * j) % 3) * 0.1f;
            x[i][j] = static_cast<float>((i * 5 + j * 3) % 13) * 0.25f;
            y[i][j] = static_cast<float>((i + 4 * j) % 11) * 0.125f;
        }
    for (int j = 2; j < 32; j++)
        for (int i = 0; i < 32; i++) {
            x[i][j] = (x[i][j] - a[i][j] * x[i][j - 1]) -
                      b[i][j] * x[i][j - 2];
            y[i][j] = (y[i][j] - a[i][j] * y[i][j - 1]) -
                      b[i][j] * y[i][j - 2];
        }
    for (int j = 29; j >= 0; j--)
        for (int i = 0; i < 32; i++) {
            x[i][j] = (x[i][j] - a[i][j] * x[i][j + 1]) / c[i][j];
            y[i][j] = (y[i][j] - a[i][j] * y[i][j + 1]) / c[i][j];
        }
    RefOutput r;
    r.prints = {pf(x[3][4]), pf(y[17][21])};
    append_words(r.check_words, x);
    return r;
}

RefOutput
cholesky()
{
    // Rows padded to 16 words; the padding column is never written.
    static float a[3][15][16];
    std::memset(a, 0, sizeof a);
    for (int m = 0; m < 3; m++)
        for (int i = 0; i < 15; i++)
            for (int j = 0; j < 15; j++) {
                if (i < j)
                    a[m][i][j] = static_cast<float>(i + 1 + m);
                else
                    a[m][i][j] = static_cast<float>(j + 1 + m);
                if (i == j)
                    a[m][i][j] = a[m][i][j] + 16.0f;
            }
    for (int m = 0; m < 3; m++)
        for (int k = 0; k < 15; k++) {
            a[m][k][k] = std::sqrt(a[m][k][k]);
            for (int i = 0; i < 15; i++)
                if (i > k)
                    a[m][i][k] = a[m][i][k] / a[m][k][k];
            for (int j = 0; j < 15; j++)
                for (int i = 0; i < 15; i++)
                    if (j > k && i >= j)
                        a[m][i][j] =
                            a[m][i][j] - a[m][i][k] * a[m][j][k];
        }
    RefOutput r;
    r.prints = {pf(a[0][14][14]), pf(a[1][7][3]), pf(a[2][14][0])};
    append_words(r.check_words, a);
    return r;
}

RefOutput
tomcatv()
{
    static float xx[32][32], yy[32][32], rx[32][32], ry[32][32],
        dd[32][32];
    for (int i = 0; i < 32; i++)
        for (int j = 0; j < 32; j++) {
            xx[i][j] = static_cast<float>(i) * 0.3f +
                       static_cast<float>(j) * 0.011f;
            yy[i][j] = static_cast<float>(j) * 0.3f +
                       static_cast<float>(i * j) * 0.002f;
            rx[i][j] = 0.0f;
            ry[i][j] = 0.0f;
            dd[i][j] = 0.0f;
        }
    for (int it = 0; it < 3; it++) {
        for (int i = 1; i < 31; i++)
            for (int j = 1; j < 31; j++) {
                rx[i][j] = (((xx[i + 1][j] + xx[i - 1][j]) + xx[i][j + 1]) +
                            xx[i][j - 1]) -
                           4.0f * xx[i][j];
                ry[i][j] = (((yy[i + 1][j] + yy[i - 1][j]) + yy[i][j + 1]) +
                            yy[i][j - 1]) -
                           4.0f * yy[i][j];
                dd[i][j] = std::sqrt((rx[i][j] * rx[i][j] +
                                      ry[i][j] * ry[i][j]) +
                                     0.0001f);
            }
        for (int i = 1; i < 31; i++)
            for (int j = 1; j < 31; j++) {
                xx[i][j] = xx[i][j] + (rx[i][j] * 0.125f) / dd[i][j];
                yy[i][j] = yy[i][j] + (ry[i][j] * 0.125f) / dd[i][j];
            }
    }
    RefOutput r;
    r.prints = {pf(xx[16][16]), pf(yy[8][24])};
    append_words(r.check_words, xx);
    return r;
}

/**
 * fpppp-kernel is generated text, so its reference replays the
 * generator's recipe instead of a fixed listing: the same xorshift
 * stream picks the same statements, and each literal is read back
 * through the text form rawc sees (default stream formatting, then
 * strtof, as the rawc lexer does).  The arithmetic itself is plain
 * single-precision C++.
 */
RefOutput
fpppp()
{
    constexpr int kVars = 48, kStmts = 220;
    uint64_t s = 0xF0F0F0F0ULL | 1;
    auto next = [&s] {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    };
    auto literal = [](double d) {
        std::ostringstream os;
        os << d;
        return std::strtof(os.str().c_str(), nullptr);
    };
    float inp[kVars];
    for (int ii = 0; ii < kVars; ii++)
        inp[ii] = 0.25f + static_cast<float>((ii * 7919) % 997) / 499.0f;
    float v[kVars];
    for (int i = 0; i < kVars; i++)
        v[i] = inp[i];
    for (int k = 0; k < kStmts; k++) {
        int x = static_cast<int>(next() % kVars);
        int a = static_cast<int>(next() % kVars);
        int b = static_cast<int>(next() % kVars);
        float c1 = literal(0.3 + static_cast<double>(next() % 400) / 1000.0);
        float c2 = literal(0.3 + static_cast<double>(next() % 400) / 1000.0);
        if (k % 17 == 9)
            v[x] = v[a] / (v[b] * v[b] + 1.5f) + v[x] * c2;
        else
            v[x] = v[a] * c1 + v[b] * c2;
    }
    float cs = 0.0f;
    for (int i = 0; i < kVars; i++)
        cs = cs + v[i];
    RefOutput r;
    r.prints = {pf(cs)};
    // __fvars holds every float scalar in declaration order.
    append_words(r.check_words, v);
    r.check_words.push_back(bits(cs));
    return r;
}

} // namespace

RefOutput
reference_output(const std::string &name)
{
    if (name == "jacobi")
        return jacobi();
    if (name == "life")
        return life();
    if (name == "mxm")
        return mxm();
    if (name == "vpenta")
        return vpenta();
    if (name == "cholesky")
        return cholesky();
    if (name == "tomcatv")
        return tomcatv();
    if (name == "fpppp-kernel")
        return fpppp();
    throw std::runtime_error("no reference for program " + name);
}

std::string
compare_output(const std::string &what, const RefOutput &ref,
               const std::vector<RefPrint> &prints,
               const std::vector<uint32_t> &check_words)
{
    std::ostringstream os;
    if (prints.size() != ref.prints.size()) {
        os << what << ": " << prints.size() << " prints, reference has "
           << ref.prints.size();
        return os.str();
    }
    for (size_t i = 0; i < prints.size(); i++)
        if (!(prints[i] == ref.prints[i])) {
            os << what << ": print " << i << " is 0x" << std::hex
               << prints[i].bits << ", reference 0x" << ref.prints[i].bits;
            return os.str();
        }
    if (check_words.size() != ref.check_words.size()) {
        os << what << ": check array has " << check_words.size()
           << " words, reference " << ref.check_words.size();
        return os.str();
    }
    for (size_t i = 0; i < check_words.size(); i++)
        if (check_words[i] != ref.check_words[i]) {
            os << what << ": check word " << i << " is 0x" << std::hex
               << check_words[i] << ", reference 0x" << ref.check_words[i];
            return os.str();
        }
    return "";
}

} // namespace perfbench
