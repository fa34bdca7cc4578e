// Modular arithmetic over BigUint: the engine behind every discrete-log and
// RSA operation in dosn/pkcrypto.
#pragma once

#include <optional>

#include "dosn/bignum/biguint.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::bignum {

/// (a + b) mod m.
BigUint addMod(const BigUint& a, const BigUint& b, const BigUint& m);
/// (a - b) mod m (wraps around).
BigUint subMod(const BigUint& a, const BigUint& b, const BigUint& m);
/// (a * b) mod m.
BigUint mulMod(const BigUint& a, const BigUint& b, const BigUint& m);

/// base^exponent mod m. Odd moduli (every modulus the library uses) take the
/// Montgomery/CIOS fast path (montgomery.hpp); even moduli take powModSimple.
/// m must be nonzero.
BigUint powMod(const BigUint& base, const BigUint& exponent, const BigUint& m);

/// The historical 4-bit-window square-and-multiply with a full division after
/// every multiply. Retained as the differential-testing reference for the
/// Montgomery path, and as the even-modulus path.
BigUint powModSimple(const BigUint& base, const BigUint& exponent,
                     const BigUint& m);

/// Greatest common divisor (binary-free Euclid).
BigUint gcd(BigUint a, BigUint b);

/// Jacobi symbol (a/n) in {-1, 0, 1}; n must be odd and nonzero. Binary
/// algorithm (strip twos via the supplement, quadratic-reciprocity swap), so
/// it costs O(bits^2) shifts/reductions where the Euler-criterion exponent
/// x^((n-1)/2) costs a full O(bits^3) powMod. For prime n, (a/n) == 1 iff a
/// is a nonzero quadratic residue mod n.
int jacobi(BigUint a, BigUint n);

/// Multiplicative inverse of a mod m, if gcd(a, m) == 1.
std::optional<BigUint> invMod(const BigUint& a, const BigUint& m);

/// Uniform value in [0, bound) (bound > 0), via rejection sampling.
BigUint randomBelow(const BigUint& bound, util::Rng& rng);

/// Uniform value in [2, bound-1]; bound must be >= 4.
BigUint randomUnit(const BigUint& bound, util::Rng& rng);

/// Uniform value with exactly `bits` bits (MSB forced to 1).
BigUint randomBits(std::size_t bits, util::Rng& rng);

}  // namespace dosn::bignum
