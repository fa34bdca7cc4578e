// Montgomery-form modular arithmetic over 64-bit limbs — the fast path under
// every modular exponentiation in the repository (RSA, ElGamal, Schnorr, DH,
// OPRF, Shamir fields, Miller-Rabin).
//
// The classic BigUint path reduces with a full Knuth Algorithm D division
// after every schoolbook multiply. MontgomeryContext instead keeps operands
// in the Montgomery domain (x' = x * R mod n with R = 2^(64*k)) where a
// multiply-and-reduce is one CIOS (coarsely integrated operand scanning)
// pass: k rounds of 64x64->128 multiply-accumulate, no division anywhere.
// See Koç, Acar & Kaliski, "Analyzing and Comparing Montgomery Multiplication
// Algorithms" (1996) for the algorithm family; this is the CIOS variant.
//
// There is one CIOS implementation, a template over the limb count. It is
// instantiated at 4 limbs, where the word loops unroll (the 256-bit groups
// every E19 signature, key wrap and ElGamal operation runs in), and at run-
// time width for every other modulus; montMulInto picks by words(). At 4
// limbs an x86-64 CPU whose CPUID reports BMI2 and ADX runs a second kernel
// instead: the same CIOS with its accumulator in registers and two carry
// chains (MULX, with ADCX and ADOX adding into independent carry flags). The
// choice is made once per process, as Sha256 chooses SHA-NI; nothing forces
// either path, and the CIOS instantiation stays the fallback and the oracle
// the differential tests compare the ADX kernel with. Both exponentiations
// multiply through montMulInto into two swapped buffers, and keep those and
// their window tables on the stack whenever they fit (every modulus of up to
// 4 limbs), so neither allocates per multiply.
//
// Requirements: the modulus must be odd (R = 2^(64k) and n must be coprime).
// bignum::powMod dispatches here automatically for odd moduli and keeps the
// historical square-and-multiply (powModSimple) for even ones — and for
// differential testing. BigUint stores the same 64-bit limbs, so toMont only
// zero-pads a reduced value to words() limbs and fromMont only trims.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dosn/bignum/biguint.hpp"

namespace dosn::bignum {

class MontgomeryContext {
 public:
  /// A value in the Montgomery domain: BigUint's own little-endian 64-bit
  /// limbs, zero-padded to exactly words() and fully reduced (< n), so
  /// limb-wise equality is value equality.
  using Limbs = BigUint::Limbs;

  /// Throws DosnError unless `modulus` is odd and > 1.
  explicit MontgomeryContext(const BigUint& modulus);

  const BigUint& modulus() const { return modulus_; }
  std::size_t words() const { return n_.size(); }

  /// x * R mod n (x is reduced mod n first, so any x is accepted).
  Limbs toMont(const BigUint& x) const;
  /// The Montgomery representation of 1 (R mod n).
  const Limbs& one() const { return one_; }
  BigUint fromMont(const Limbs& x) const;

  /// A read-only view of words() Montgomery-domain limbs: a Limbs value or
  /// one entry of a flat table.
  using LimbSpan = std::span<const std::uint64_t>;

  /// CIOS multiply-reduce: a * b * R^{-1} mod n for Montgomery-domain a, b
  /// (each exactly words() limbs).
  Limbs montMul(LimbSpan a, LimbSpan b) const;
  /// montMul into a caller-owned buffer, for loops that multiply without
  /// allocating: `t` holds words() + 2 limbs, must not overlap a or b, and
  /// receives the product in its low words() limbs. Runs the 4-limb kernel
  /// (montMulKernel()) when words() is 4 and the run-time-width CIOS
  /// otherwise.
  void montMulInto(LimbSpan a, LimbSpan b, std::span<std::uint64_t> t) const;

  /// base^exponent mod n via sliding-window recoding (width 4-6 by exponent
  /// size, odd powers only) entirely in the Montgomery domain; equals
  /// powModSimple(base, exponent, modulus()). The odd powers sit in one flat
  /// table and the loop multiplies through montMulInto; up to 4 limbs the
  /// only allocation is the result's.
  BigUint powMod(const BigUint& base, const BigUint& exponent) const;
  /// As powMod but in-domain at both ends: baseMont is Montgomery-form and so
  /// is the result (Miller-Rabin keeps squaring the result afterwards).
  Limbs powMont(const Limbs& baseMont, const BigUint& exponent) const;

  /// (a * b) mod n through the Montgomery domain; equals mulMod(a, b, n).
  BigUint mulMod(const BigUint& a, const BigUint& b) const;

 private:
  friend class FixedBasePowerTable;

  /// montMulInto on raw limbs: `t` holds words() + 2.
  void mulInto(const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* t) const;
  /// x * R mod n into out[0, words()); `out` holds words() + 2.
  void toMontInto(const BigUint& x, std::uint64_t* out) const;
  /// The value of words() Montgomery-domain limbs.
  BigUint fromMontLimbs(const std::uint64_t* x) const;
  /// powMont into out[0, words()); `out` holds words() + 2.
  void powInto(const std::uint64_t* baseMont, const BigUint& exponent,
               std::uint64_t* out) const;

  BigUint modulus_;
  Limbs n_;                  // modulus, 64-bit limbs
  Limbs rr_;                 // R^2 mod n (Montgomery form of R)
  Limbs one_;                // R mod n (Montgomery form of 1)
  std::uint64_t nInv_ = 0;   // -n^{-1} mod 2^64
};

/// The kernel montMulInto runs at 4 limbs in this process: "adx" (MULX with
/// ADCX/ADOX) or "portable" (the 4-limb CIOS instantiation).
const char* montMulKernel();

namespace detail {

/// A 4-limb Montgomery multiply: t[0, 4) = a * b * 2^-256 mod n for a, b < n,
/// odd n and nInv = -n^{-1} mod 2^64. `t` holds 6 limbs and must not overlap
/// a or b.
using MontMul4 = void (*)(const std::uint64_t* a, const std::uint64_t* b,
                          const std::uint64_t* n, std::uint64_t nInv,
                          std::uint64_t* t);

/// The 4-limb CIOS instantiation: the fallback and the oracle.
void montMul4Portable(const std::uint64_t* a, const std::uint64_t* b,
                      const std::uint64_t* n, std::uint64_t nInv,
                      std::uint64_t* t);

/// The MULX/ADCX/ADOX kernel, or nullptr if the CPU lacks BMI2 or ADX or the
/// build does not target x86-64.
MontMul4 montMul4Adx();

}  // namespace detail

class FixedBasePowerTable;

/// One power for FixedBasePowerTable::powMany: table->base() ^ *exponent mod
/// table->modulus(). Both pointers must outlive the call.
struct FixedBaseJob {
  const FixedBasePowerTable* table;
  const BigUint* exponent;
};

/// The kernel FixedBasePowerTable::powMany runs in this process: "ifma"
/// (AVX-512 IFMA lanes) or "portable" (the loop of pow).
const char* powManyKernel();

namespace detail {

/// A powMany implementation: out[i] = jobs[i].table->pow(*jobs[i].exponent).
using PowMany = void (*)(std::span<const FixedBaseJob> jobs,
                         std::span<BigUint> out);

/// The loop of pow: the fallback and the oracle.
void powManyPortable(std::span<const FixedBaseJob> jobs,
                     std::span<BigUint> out);

/// The AVX-512 IFMA lane kernel, or nullptr if CPUID lacks AVX512F or
/// AVX512IFMA, the OS does not save ZMM state, or the build does not target
/// x86-64. A batch the lanes do not fit runs the loop.
PowMany powManyIfma();

}  // namespace detail

/// Precomputed window table for a fixed base g and odd modulus p: pow(e)
/// computes g^e mod p with ~bits/4 Montgomery multiplies and *no squarings*,
/// by storing g^(j * 16^i) for every 4-bit window i and digit j. Repeated
/// g^x with the same (g, p) — DH handshakes, ElGamal encryptions, Schnorr
/// commitments and verifications, OPRF blinding, IBBE key wraps — amortizes
/// the table across calls (pkcrypto::DlogGroup builds one for its generator,
/// ibbe::Directory one per identity key, and social::IdentityRegistry one
/// per registered author's signing key, inside its prepared
/// pkcrypto::SchnorrVerifyingKey). Building costs 15 multiplies per window,
/// about three variable-base exponentiations; the entries sit in one
/// contiguous limb vector, 15 * windows * words() limbs (30 KiB at 256
/// bits).
///
/// powMany computes many such powers over one modulus at once. Each pow is a
/// chain of about bits/4 dependent multiplies; at 4 limbs an x86-64 CPU whose
/// CPUID reports AVX512F and AVX512IFMA runs up to 16 of those chains side by
/// side, one per 64-bit lane of two interleaved groups of zmm registers
/// (DESIGN.md §3b). The choice is made once per process, as montMulKernel's
/// is; pow's loop stays the fallback and the oracle.
class FixedBasePowerTable {
 public:
  using Job = FixedBaseJob;

  /// Covers exponents up to maxExponentBits bits; wider exponents fall back
  /// to the generic Montgomery powMod.
  FixedBasePowerTable(const BigUint& base, const BigUint& modulus,
                      std::size_t maxExponentBits);

  const BigUint& base() const { return base_; }
  const BigUint& modulus() const { return ctx_.modulus(); }
  std::size_t maxExponentBits() const { return windows_ * 4; }

  /// base^exponent mod modulus.
  BigUint pow(const BigUint& exponent) const;

  /// out[i] = jobs[i].table->pow(*jobs[i].exponent) for every i, equal limb
  /// for limb. Throws DosnError unless out has one slot per job. The lanes
  /// take a batch of two or more jobs whose tables share one 4-limb modulus
  /// and one window count, with every exponent within its table; any other
  /// batch runs the loop of pow.
  static void powMany(std::span<const Job> jobs, std::span<BigUint> out);

 private:
  friend detail::PowMany detail::powManyIfma();

  /// The lane kernel behind powManyIfma.
  static void powManyLanes(std::span<const Job> jobs, std::span<BigUint> out);

  MontgomeryContext ctx_;
  BigUint base_;
  std::size_t windows_;
  // Entry e = i * 15 + (j - 1) is Mont(base^(j * 16^i)), j in [1, 15], and
  // occupies limbs [e * words(), (e + 1) * words()).
  MontgomeryContext::Limbs table_;
  // 2^(4 * windows_) mod modulus, for 4-limb moduli only: the factor that
  // takes a product of windows_ entries out of the lanes' Montgomery domain.
  MontgomeryContext::Limbs laneCorrection_;
};

}  // namespace dosn::bignum
