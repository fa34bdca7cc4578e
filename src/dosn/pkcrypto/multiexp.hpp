// Multi-exponentiation (Shamir's trick / Strauss interleaving): evaluate
// products of powers b1^e1 * b2^e2 * ... mod p sharing ONE squaring chain
// instead of one per term. With k terms of n-bit exponents the naive route
// costs ~k*n squarings + k*n/2 multiplies; interleaving costs n squarings +
// k*n/2 multiplies — the squaring work is amortized k-fold.
//
// Consumer: the random-linear-combination combined check in
// schnorrProofVerifyBatch (2k variable bases per batch).
#pragma once

#include <vector>

#include "dosn/bignum/biguint.hpp"
#include "dosn/bignum/montgomery.hpp"

namespace dosn::pkcrypto {

using bignum::BigUint;

/// One base^exponent term of a multi-exponentiation product.
struct PowTerm {
  BigUint base;
  BigUint exponent;
};

/// Product of terms[i].base ^ terms[i].exponent mod ctx.modulus(), bit-serial
/// Strauss interleaving: one shared squaring chain over the widest exponent
/// plus one multiply per set exponent bit across all terms. Empty input
/// returns 1 mod m.
BigUint multiPowMod(const bignum::MontgomeryContext& ctx,
                    const std::vector<PowTerm>& terms);

}  // namespace dosn::pkcrypto
