#include "dosn/policy/field.hpp"

#include "dosn/bignum/batch.hpp"
#include "dosn/bignum/modmath.hpp"
#include "dosn/util/error.hpp"

namespace dosn::policy {

PrimeField::PrimeField(BigUint modulus) : p_(std::move(modulus)) {
  if (p_ < BigUint(3) || !p_.isOdd()) {
    throw util::DosnError("PrimeField: modulus must be odd and at least 3");
  }
  mont_ = std::make_shared<const bignum::MontgomeryContext>(p_);
}

const PrimeField& PrimeField::standard() {
  static const PrimeField field = [] {
    // 2^255 - 19.
    const BigUint p = (BigUint(1) << 255) - BigUint(19);
    return PrimeField(p);
  }();
  return field;
}

BigUint PrimeField::add(const BigUint& a, const BigUint& b) const {
  return bignum::addMod(a, b, p_);
}

BigUint PrimeField::sub(const BigUint& a, const BigUint& b) const {
  return bignum::subMod(a, b, p_);
}

BigUint PrimeField::mul(const BigUint& a, const BigUint& b) const {
  // Same value as the historical multiply-then-divide path, but the cached
  // context replaces the Knuth division with CIOS passes.
  return mont_->mulMod(a, b);
}

BigUint PrimeField::neg(const BigUint& a) const {
  const BigUint r = reduce(a);
  if (r.isZero()) return r;
  return p_ - r;
}

BigUint PrimeField::inv(const BigUint& a) const {
  const auto result = bignum::invMod(a, p_);
  if (!result) throw util::DosnError("PrimeField::inv: zero or non-unit");
  return *result;
}

std::vector<BigUint> PrimeField::invBatch(
    const std::vector<BigUint>& values) const {
  auto result = bignum::batchInvMod(values, *mont_);
  if (!result) throw util::DosnError("PrimeField::inv: zero or non-unit");
  return std::move(*result);
}

BigUint PrimeField::pow(const BigUint& a, const BigUint& e) const {
  return mont_->powMod(a, e);
}

BigUint PrimeField::reduce(const BigUint& a) const { return a % p_; }

BigUint PrimeField::random(util::Rng& rng) const {
  return bignum::randomBelow(p_, rng);
}

util::Bytes PrimeField::encode(const BigUint& a) const {
  return reduce(a).toBytesPadded(encodedSize());
}

}  // namespace dosn::policy
