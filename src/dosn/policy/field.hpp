// Prime-field arithmetic for secret sharing. The default field modulus is the
// 255-bit prime 2^255 - 19 (big enough to embed 32-byte secrets minus a few
// bits; secrets are reduced mod p).
#pragma once

#include <memory>
#include <vector>

#include "dosn/bignum/biguint.hpp"
#include "dosn/bignum/montgomery.hpp"
#include "dosn/util/bytes.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::policy {

using bignum::BigUint;

class PrimeField {
 public:
  /// Throws DosnError unless the modulus is odd and at least 3. Primality is
  /// the caller's promise.
  explicit PrimeField(BigUint modulus);

  /// The library default: GF(2^255 - 19).
  static const PrimeField& standard();

  const BigUint& modulus() const { return p_; }

  BigUint add(const BigUint& a, const BigUint& b) const;
  BigUint sub(const BigUint& a, const BigUint& b) const;
  BigUint mul(const BigUint& a, const BigUint& b) const;
  BigUint neg(const BigUint& a) const;
  /// Throws if a == 0.
  BigUint inv(const BigUint& a) const;
  /// Inverts every element for one extended-Euclid call (Montgomery's batch
  /// trick, bignum/batch.hpp); element i equals inv(values[i]) byte-for-
  /// byte. Throws like inv if any element is zero or a non-unit.
  std::vector<BigUint> invBatch(const std::vector<BigUint>& values) const;
  BigUint pow(const BigUint& a, const BigUint& e) const;
  BigUint reduce(const BigUint& a) const;
  BigUint random(util::Rng& rng) const;

  /// Fixed-width encoding for hashing/serialization.
  util::Bytes encode(const BigUint& a) const;
  std::size_t encodedSize() const { return (p_.bitLength() + 7) / 8; }

 private:
  BigUint p_;
  // Built once per field (the modulus is odd) so mul, invBatch and pow skip
  // the per-call R^2 division; shared_ptr keeps PrimeField cheaply copyable.
  std::shared_ptr<const bignum::MontgomeryContext> mont_;
};

}  // namespace dosn::policy
