#include "dosn/pkcrypto/multiexp.hpp"

#include <algorithm>

namespace dosn::pkcrypto {

using Limbs = bignum::MontgomeryContext::Limbs;

BigUint multiPowMod(const bignum::MontgomeryContext& ctx,
                    const std::vector<PowTerm>& terms) {
  // Strauss interleaving: every term rides the same squaring chain, so k
  // n-bit terms cost n squarings total (not k*n) plus one multiply per set
  // exponent bit.
  std::vector<Limbs> bases;
  bases.reserve(terms.size());
  std::size_t bits = 0;
  for (const PowTerm& t : terms) {
    bases.push_back(ctx.toMont(t.base));
    bits = std::max(bits, t.exponent.bitLength());
  }

  Limbs acc = ctx.one();
  bool started = false;
  for (std::size_t i = bits; i-- > 0;) {
    if (started) acc = ctx.montMul(acc, acc);
    for (std::size_t t = 0; t < terms.size(); ++t) {
      if (!terms[t].exponent.bit(i)) continue;
      acc = started ? ctx.montMul(acc, bases[t]) : bases[t];
      started = true;
    }
  }
  return ctx.fromMont(acc);
}

}  // namespace dosn::pkcrypto
