/**
 * @file
 * frexp/ldexp by exponent-field arithmetic for the hot samplers and the
 * histogram bucket index. Both agree with libm bit for bit: the bit
 * path covers normal doubles whose binary exponent lies within
 * +-kFastExpLimit, and every other input (zero, subnormals, inf, NaN,
 * exponents near the ends of the range) takes std::frexp/std::ldexp.
 */

#ifndef XISA_UTIL_FPBITS_HH
#define XISA_UTIL_FPBITS_HH

#include <bit>
#include <cmath>
#include <cstdint>

namespace xisa {

/** Largest |exponent| the bit path handles; 2^e stays a normal double
 *  with room to spare on both sides. */
inline constexpr int kFastExpLimit = 1000;

/** std::frexp(x, e), exactly. */
inline double
frexpExact(double x, int *e)
{
    const uint64_t bits = std::bit_cast<uint64_t>(x);
    const int biased = static_cast<int>((bits >> 52) & 0x7ff);
    const int exp = biased - 1022;
    if (biased == 0 || biased == 0x7ff || exp < -kFastExpLimit ||
        exp > kFastExpLimit)
        return std::frexp(x, e);
    *e = exp;
    // Same sign and mantissa, exponent field of [0.5, 1).
    return std::bit_cast<double>((bits & ~(uint64_t{0x7ff} << 52)) |
                                 (uint64_t{1022} << 52));
}

/** std::ldexp(m, e), exactly: for |e| <= kFastExpLimit, 2^e is a
 *  normal double, so m * 2^e is the one correctly rounded result
 *  ldexp returns, overflow, underflow and non-finite m included. */
inline double
ldexpExact(double m, int e)
{
    if (e < -kFastExpLimit || e > kFastExpLimit)
        return std::ldexp(m, e);
    return m * std::bit_cast<double>(static_cast<uint64_t>(e + 1023) << 52);
}

} // namespace xisa

#endif // XISA_UTIL_FPBITS_HH
