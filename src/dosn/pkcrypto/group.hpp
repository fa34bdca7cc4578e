// Discrete-log group parameters: a safe prime p = 2q + 1 and a generator g of
// the order-q subgroup of quadratic residues. Shared by ElGamal, Schnorr, DH
// and the OPRF.
//
// Cached parameter sets avoid regenerating safe primes in tests/benches:
// 256/512-bit groups were generated once with dosn::bignum::randomSafePrime
// (seed 42); 1024/2048-bit groups are the RFC 2409 / RFC 3526 MODP groups.
#pragma once

#include <memory>
#include <vector>

#include "dosn/bignum/biguint.hpp"
#include "dosn/bignum/modmath.hpp"
#include "dosn/bignum/montgomery.hpp"
#include "dosn/crypto/sha256.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::pkcrypto {

using bignum::BigUint;

class DlogGroup {
 public:
  /// Throws CryptoError unless p = 2q + 1 with q odd (so p is odd too) and
  /// p >= 7. Primality is the caller's promise: cached and generate supply
  /// safe primes.
  DlogGroup(BigUint p, BigUint q, BigUint g);

  /// Fresh parameters (expensive: safe-prime search).
  static DlogGroup generate(std::size_t bits, util::Rng& rng);

  /// Cached parameters; bits must be one of 256, 512, 1024, 2048.
  static const DlogGroup& cached(std::size_t bits);

  const BigUint& p() const { return p_; }
  const BigUint& q() const { return q_; }
  const BigUint& g() const { return g_; }

  /// g^e mod p, through the generator's fixed-base table: no squarings.
  BigUint exp(const BigUint& e) const;
  /// The generator's table (p-bit exponents), for callers that batch g^e
  /// with other fixed-base powers through FixedBasePowerTable::powMany.
  const bignum::FixedBasePowerTable& generatorTable() const {
    return *gTable_;
  }
  /// b^e mod p.
  BigUint exp(const BigUint& b, const BigUint& e) const;
  /// a*b mod p.
  BigUint mul(const BigUint& a, const BigUint& b) const;
  /// a^{-1} mod p (a must be a unit).
  BigUint inv(const BigUint& a) const;
  /// Uniform scalar in [1, q-1].
  BigUint randomScalar(util::Rng& rng) const;
  /// Scalar inverse mod q.
  BigUint scalarInv(const BigUint& s) const;
  /// All scalar inverses mod q in one extended-Euclid call (Montgomery's
  /// batch-inversion trick, bignum/batch.hpp); element i equals
  /// scalarInv(scalars[i]) byte-for-byte. Throws if any scalar is not
  /// invertible.
  std::vector<BigUint> scalarInvBatch(const std::vector<BigUint>& scalars) const;
  /// Hash arbitrary bytes to a group element: g^{H(x) mod q}.
  BigUint hashToGroup(util::BytesView input) const;
  /// Hash arbitrary bytes to a scalar mod q.
  BigUint hashToScalar(util::BytesView input) const;
  /// hashToScalar of the input already streamed into `absorbed` (which is
  /// left as it was), for callers that hash a structure field by field.
  BigUint hashToScalar(const crypto::Sha256& absorbed) const;
  /// True if x is in [1, p-1] and x^q == 1 (i.e., in the prime-order
  /// subgroup).
  bool isElement(const BigUint& x) const;

  /// Serialized element width in bytes (elements are fixed-width encoded).
  std::size_t elementBytes() const { return (p_.bitLength() + 7) / 8; }

  /// The group's cached Montgomery context for p — shared by exp/mul so no
  /// caller pays the R^2 setup division per operation. Never null.
  const bignum::MontgomeryContext* montContext() const { return pCtx_.get(); }

 private:
  BigUint p_;
  BigUint q_;
  BigUint g_;
  // Built once in the constructor (p and q are odd, so both contexts exist);
  // copies of the group share them. gTable_ holds g^(j * 16^i) mod p for
  // p-bit exponents, so DH handshakes, ElGamal encryptions, Schnorr
  // commitments and OPRF evaluations all skip squarings.
  std::shared_ptr<const bignum::MontgomeryContext> pCtx_;
  std::shared_ptr<const bignum::MontgomeryContext> qCtx_;
  std::shared_ptr<const bignum::FixedBasePowerTable> gTable_;
};

}  // namespace dosn::pkcrypto
