#include "dosn/pkcrypto/group.hpp"

#include <map>
#include <mutex>

#include "dosn/bignum/batch.hpp"
#include "dosn/bignum/prime.hpp"
#include "dosn/crypto/sha256.hpp"
#include "dosn/util/error.hpp"

namespace dosn::pkcrypto {

using bignum::invMod;
using bignum::mulMod;

namespace {

// Safe primes generated once with randomSafePrime (seed 42); see header.
constexpr const char* kP256 =
    "e72ec0b46c374835429b1af9e6cc647ac6ab9224d9060f57c2fec4d6bc5aa463";
constexpr const char* kP512 =
    "adf9d1f7f05d445a49fcdda6106afaa5024353448fad0b45ffe4910771a44e29"
    "1c93c2da16cc7ede44389f3cfd7b55121dd135be5262fc6639e7db9575bbec9f";

// RFC 2409 Oakley Group 2 (1024-bit MODP); generator 2.
constexpr const char* kP1024 =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF";

// RFC 3526 Group 14 (2048-bit MODP); generator 2.
constexpr const char* kP2048 =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

DlogGroup fromSafePrime(const char* hex) {
  const auto p = BigUint::fromHex(hex);
  if (!p) throw util::CryptoError("DlogGroup: bad cached prime");
  const BigUint q = (*p - BigUint(1)) >> 1;
  // g = 2^2 = 4 is a quadratic residue, hence generates the order-q subgroup
  // (4 != 1 mod p for any p > 5).
  const BigUint g = mulMod(BigUint(2), BigUint(2), *p);
  return DlogGroup(*p, q, g);
}

}  // namespace

DlogGroup::DlogGroup(BigUint p, BigUint q, BigUint g)
    : p_(std::move(p)), q_(std::move(q)), g_(std::move(g)) {
  if (p_ < BigUint(7)) throw util::CryptoError("DlogGroup: modulus too small");
  if (!q_.isOdd() || p_ != (q_ << 1) + BigUint(1)) {
    throw util::CryptoError("DlogGroup: p must be 2q + 1 with q odd");
  }
  pCtx_ = std::make_shared<const bignum::MontgomeryContext>(p_);
  qCtx_ = std::make_shared<const bignum::MontgomeryContext>(q_);
  // Exponents are scalars < q < p, so a p-bit table covers every call; wider
  // exponents (none in practice) fall back to generic powMod inside pow().
  gTable_ = std::make_shared<const bignum::FixedBasePowerTable>(
      g_, p_, p_.bitLength());
}

DlogGroup DlogGroup::generate(std::size_t bits, util::Rng& rng) {
  const BigUint p = bignum::randomSafePrime(bits, rng);
  const BigUint q = (p - BigUint(1)) >> 1;
  const BigUint g = mulMod(BigUint(2), BigUint(2), p);
  return DlogGroup(p, q, g);
}

const DlogGroup& DlogGroup::cached(std::size_t bits) {
  static std::mutex mutex;
  static std::map<std::size_t, DlogGroup> groups;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = groups.find(bits);
  if (it != groups.end()) return it->second;
  const char* hex = nullptr;
  switch (bits) {
    case 256: hex = kP256; break;
    case 512: hex = kP512; break;
    case 1024: hex = kP1024; break;
    case 2048: hex = kP2048; break;
    default:
      throw util::CryptoError("DlogGroup::cached: unsupported size");
  }
  return groups.emplace(bits, fromSafePrime(hex)).first->second;
}

BigUint DlogGroup::exp(const BigUint& e) const { return gTable_->pow(e); }

BigUint DlogGroup::exp(const BigUint& b, const BigUint& e) const {
  // The cached context skips the per-call R^2 setup division that a plain
  // powMod(b, e, p_) would pay; the value is identical.
  return pCtx_->powMod(b, e);
}

BigUint DlogGroup::mul(const BigUint& a, const BigUint& b) const {
  return pCtx_->mulMod(a, b);
}

BigUint DlogGroup::inv(const BigUint& a) const {
  const auto result = invMod(a, p_);
  if (!result) throw util::CryptoError("DlogGroup::inv: not a unit");
  return *result;
}

BigUint DlogGroup::randomScalar(util::Rng& rng) const {
  while (true) {
    const BigUint s = bignum::randomBelow(q_, rng);
    if (!s.isZero()) return s;
  }
}

BigUint DlogGroup::scalarInv(const BigUint& s) const {
  const auto result = invMod(s, q_);
  if (!result) throw util::CryptoError("DlogGroup::scalarInv: not invertible");
  return *result;
}

std::vector<BigUint> DlogGroup::scalarInvBatch(
    const std::vector<BigUint>& scalars) const {
  auto result = bignum::batchInvMod(scalars, *qCtx_);
  if (!result) {
    throw util::CryptoError("DlogGroup::scalarInvBatch: not invertible");
  }
  return std::move(*result);
}

BigUint DlogGroup::hashToGroup(util::BytesView input) const {
  return exp(hashToScalar(input));
}

BigUint DlogGroup::hashToScalar(util::BytesView input) const {
  crypto::Sha256 absorbed;
  absorbed.update(input);
  return hashToScalar(absorbed);
}

BigUint DlogGroup::hashToScalar(const crypto::Sha256& absorbed) const {
  // Expand to enough bytes that the reduction bias is negligible for
  // simulation purposes: H(input || 1) || H(input || 2) || ..., each block
  // hashed from a copy of the absorbed input.
  const std::size_t need = elementBytes() + 16;
  util::Bytes material;
  material.reserve(need + crypto::kSha256DigestSize);
  for (std::uint8_t counter = 1; material.size() < need; ++counter) {
    crypto::Sha256 block = absorbed;
    const crypto::Digest d = block.update({&counter, 1}).finish();
    material.insert(material.end(), d.begin(), d.end());
  }
  material.resize(need);
  return BigUint::fromBytes(material) % q_;
}

bool DlogGroup::isElement(const BigUint& x) const {
  if (x.isZero() || x >= p_) return false;
  // For the safe prime p = 2q + 1 the order-q subgroup is exactly the set of
  // quadratic residues mod p, so a binary Jacobi symbol (O(bits^2)) answers
  // membership without the O(bits^3) Euler-criterion exponentiation.
  return bignum::jacobi(x, p_) == 1;
}

}  // namespace dosn::pkcrypto
