// Experiment B1: bignum microbenchmark — the Montgomery/CIOS fast path vs
// the retained reference implementations, at the same fixed seed and with
// output equality asserted on every pair (a benchmark that silently computes
// different numbers measures nothing).
//
//   mulMod           (a*b) % m division path   vs MontgomeryContext::mulMod
//   powMod           powModSimple              vs Montgomery powMod (256-bit
//                                                 E19 width and up)
//   RSA sign         plain x^d mod n           vs CRT (dP/dQ/qInv)
//   ElGamal-style    g^x via powModSimple      vs cached FixedBasePowerTable
//   multiply         schoolbookMul             vs Karatsuba operator*
//   batch inversion  per-element invMod        vs batchInvMod, sweep 1/4/16/64
//   Schnorr page     per-item schnorrVerify    vs a prepared SchnorrVerifyingKey,
//                                                 same sweep (+ key preparation)
//   fixed-base batch the loop of pow           vs FixedBasePowerTable::powMany,
//                                                 1/2/9/16 jobs at 256 bits
//
// Runs on benchkit (BENCHMARKS.md): `--smoke` shrinks every kernel to a few
// iterations at CI-friendly sizes and asserts equality only — fast enough
// for CI (including sanitizer jobs), no timing thresholds that could flake.
// Each scenario records old/new ms-per-op and the speedup as JSON params, so
// BENCH_bignum.json is the artifact later bignum changes regress against.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "dosn/benchkit/benchkit.hpp"
#include "dosn/bignum/batch.hpp"
#include "dosn/bignum/modmath.hpp"
#include "dosn/bignum/montgomery.hpp"
#include "dosn/pkcrypto/group.hpp"
#include "dosn/pkcrypto/rsa.hpp"
#include "dosn/pkcrypto/schnorr.hpp"
#include "dosn/util/rng.hpp"

using namespace dosn;
using bignum::BigUint;
using benchkit::ScenarioContext;

namespace {

bool gHeaderPrinted = false;

void printHeader() {
  if (gHeaderPrinted) return;
  gHeaderPrinted = true;
  std::printf("B1: bignum microbench (old vs new, fixed seeds)\n");
  std::printf("  %-22s %10s %10s %9s\n", "kernel", "old ms/op", "new ms/op",
              "speedup");
}

void report(ScenarioContext& ctx, const char* name, double oldMs, double newMs,
            std::size_t iters) {
  if (ctx.printing()) {
    printHeader();
    std::printf("  %-22s %10.3f %10.3f %8.2fx   (%zu iters)\n", name,
                oldMs / static_cast<double>(iters),
                newMs / static_cast<double>(iters), oldMs / newMs, iters);
  }
  ctx.param("old_ms_per_op", oldMs / static_cast<double>(iters));
  ctx.param("new_ms_per_op", newMs / static_cast<double>(iters));
  ctx.param("speedup", oldMs / newMs);
  ctx.counter("iters", iters);
}

void check(ScenarioContext& ctx, const BigUint& oldResult,
           const BigUint& newResult, const char* what) {
  if (oldResult != newResult) {
    ctx.fail(std::string("differential mismatch in ") + what + ": old=" +
             oldResult.toHex() + " new=" + newResult.toHex());
  }
}

BigUint oddModulus(std::size_t bits, util::Rng& rng) {
  BigUint m = bignum::randomBits(bits, rng);
  if (m.isEven()) m += BigUint(1);
  return m;
}

// Chained mulMod: each product feeds the next so the work can't be hoisted.
void benchMulMod(ScenarioContext& ctx, std::size_t bits, std::size_t iters) {
  util::Rng rng(ctx.seed() + 959);
  const BigUint m = oddModulus(bits, rng);
  const BigUint b = bignum::randomBits(bits - 1, rng);
  const bignum::MontgomeryContext mont(m);

  BigUint accOld = bignum::randomBits(bits - 1, rng);
  BigUint accNew = accOld;
  benchkit::Timer timer;
  for (std::size_t i = 0; i < iters; ++i) accOld = bignum::mulMod(accOld, b, m);
  const double oldMs = timer.ms();
  timer.reset();
  for (std::size_t i = 0; i < iters; ++i) accNew = mont.mulMod(accNew, b);
  const double newMs = timer.ms();
  check(ctx, accOld, accNew, "mulMod");
  ctx.param("bits", static_cast<double>(bits));
  const std::string name = "mulMod " + std::to_string(bits) + "-bit";
  report(ctx, name.c_str(), oldMs, newMs, iters);
}

void benchPowMod(ScenarioContext& ctx, std::size_t bits, std::size_t iters) {
  util::Rng rng(ctx.seed() + 960);
  const BigUint m = oddModulus(bits, rng);
  const BigUint base = bignum::randomBits(bits - 1, rng);
  const BigUint e = bignum::randomBits(bits - 1, rng);

  BigUint oldResult, newResult;
  benchkit::Timer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    oldResult = bignum::powModSimple(base, e, m);
  }
  const double oldMs = timer.ms();
  timer.reset();
  for (std::size_t i = 0; i < iters; ++i) {
    newResult = bignum::powMod(base, e, m);  // dispatches to Montgomery
  }
  const double newMs = timer.ms();
  check(ctx, oldResult, newResult, "powMod");
  ctx.param("bits", static_cast<double>(bits));
  const std::string name = "powMod " + std::to_string(bits) + "-bit";
  report(ctx, name.c_str(), oldMs, newMs, iters);
}

void benchRsaSign(ScenarioContext& ctx, std::size_t bits, std::size_t iters) {
  util::Rng rng(ctx.seed() + 961);
  const auto key = pkcrypto::rsaGenerate(bits, rng);
  const auto plain = key.withoutCrt();
  const auto msg = util::toBytes("B1 signing benchmark message");

  util::Bytes oldSig, newSig;
  benchkit::Timer timer;
  for (std::size_t i = 0; i < iters; ++i) oldSig = pkcrypto::rsaSign(plain, msg);
  const double oldMs = timer.ms();
  timer.reset();
  for (std::size_t i = 0; i < iters; ++i) newSig = pkcrypto::rsaSign(key, msg);
  const double newMs = timer.ms();
  ctx.require(oldSig == newSig, "differential mismatch in rsaSign");
  ctx.param("bits", static_cast<double>(bits));
  const std::string name = "RSA-" + std::to_string(bits) + " sign";
  report(ctx, name.c_str(), oldMs, newMs, iters);
}

// ElGamal-style encryption is two fixed-base exponentiations (g^r, h^r); the
// representative kernel is g^x on the cached group generator.
void benchFixedBase(ScenarioContext& ctx, std::size_t bits, std::size_t iters) {
  const auto& group = pkcrypto::DlogGroup::cached(bits);
  util::Rng rng(ctx.seed() + 962);
  std::vector<BigUint> exps;
  exps.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) exps.push_back(group.randomScalar(rng));

  BigUint oldResult, newResult;
  benchkit::Timer timer;
  for (const BigUint& e : exps) {
    oldResult = bignum::powModSimple(group.g(), e, group.p());
  }
  const double oldMs = timer.ms();
  (void)group.exp(exps[0]);  // warm-up; the group built its table up front
  timer.reset();
  for (const BigUint& e : exps) newResult = group.exp(e);
  const double newMs = timer.ms();
  check(ctx, oldResult, newResult, "fixed-base exp");
  ctx.param("bits", static_cast<double>(bits));
  const std::string name = "g^x " + std::to_string(bits) + "-bit (ElGamal)";
  report(ctx, name.c_str(), oldMs, newMs, iters);
}

// Chained wide multiply: schoolbook reference vs the Karatsuba operator*
// (the crossover sits at 16 64-bit limbs = 1024 bits, so both sizes here
// recurse).
void benchKaratsuba(ScenarioContext& ctx, std::size_t bits, std::size_t iters) {
  util::Rng rng(ctx.seed() + 963);
  const BigUint a = bignum::randomBits(bits, rng);
  const BigUint b = bignum::randomBits(bits, rng);
  const BigUint m = oddModulus(bits, rng);

  // Feed each product back through % m so the operands stay at width and the
  // multiply can't be hoisted.
  BigUint accOld = a;
  benchkit::Timer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    accOld = bignum::schoolbookMul(accOld, b) % m;
  }
  const double oldMs = timer.ms();
  BigUint accNew = a;
  timer.reset();
  for (std::size_t i = 0; i < iters; ++i) accNew = (accNew * b) % m;
  const double newMs = timer.ms();
  check(ctx, accOld, accNew, "karatsuba");
  ctx.param("bits", static_cast<double>(bits));
  const std::string name = "mul " + std::to_string(bits) + "-bit";
  report(ctx, name.c_str(), oldMs, newMs, iters);
}

// Batch inversion sweep: n extended-Euclid invMod calls vs one batchInvMod
// (1 invMod + 3(n-1) Montgomery multiplies). Reported per batch size so
// EXPERIMENTS.md can quote the 64-element speedup directly.
void benchBatchInv(ScenarioContext& ctx, std::size_t bits, std::size_t rounds) {
  util::Rng rng(ctx.seed() + 964);
  const BigUint m = oddModulus(bits, rng);
  const bignum::MontgomeryContext mont(m);
  if (ctx.printing()) printHeader();
  for (const std::size_t n : {1u, 4u, 16u, 64u}) {
    std::vector<BigUint> values;
    while (values.size() < n) {
      BigUint v = bignum::randomBits(bits - 1, rng);
      if (bignum::invMod(v, m).has_value()) values.push_back(std::move(v));
    }
    std::vector<BigUint> oldInv(n), newInv;
    benchkit::Timer timer;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < n; ++i) oldInv[i] = *bignum::invMod(values[i], m);
    }
    const double oldMs = timer.ms();
    timer.reset();
    for (std::size_t r = 0; r < rounds; ++r) {
      newInv = *bignum::batchInvMod(values, mont);
    }
    const double newMs = timer.ms();
    for (std::size_t i = 0; i < n; ++i) check(ctx, oldInv[i], newInv[i], "batchInv");
    const std::string tag = std::to_string(n);
    const double items = static_cast<double>(n * rounds);
    ctx.param("old_ms_per_item." + tag, oldMs / items);
    ctx.param("new_ms_per_item." + tag, newMs / items);
    ctx.param("speedup." + tag, oldMs / newMs);
    if (ctx.printing()) {
      std::printf("  %-22s %10.4f %10.4f %8.2fx   (%zu rounds)\n",
                  ("invMod batch n=" + tag).c_str(), oldMs / items,
                  newMs / items, oldMs / newMs, rounds);
    }
  }
  ctx.param("bits", static_cast<double>(bits));
  ctx.counter("rounds", rounds);
}

// Feed-page Schnorr verification sweep: one-by-one schnorrVerify vs a key
// prepared once (SchnorrVerifyingKey, what the identity registry hands out
// per author), on single-author pages (the microblog shape). Preparation is
// timed on its own, as it is paid once per author rather than per page.
// Every page of 4 or more carries one forged signature that both paths must
// reject, and nothing else.
void benchSchnorrPage(ScenarioContext& ctx, std::size_t bits,
                      std::size_t rounds) {
  const auto& group = pkcrypto::DlogGroup::cached(bits);
  util::Rng rng(ctx.seed() + 965);
  const auto key = pkcrypto::schnorrGenerate(group, rng);
  if (ctx.printing()) printHeader();
  std::optional<pkcrypto::SchnorrVerifyingKey> prepared;
  benchkit::Timer timer;
  for (std::size_t r = 0; r < rounds; ++r) prepared.emplace(group, key.pub);
  const double prepareMs = timer.ms() / static_cast<double>(rounds);
  ctx.param("prepare_ms", prepareMs);
  if (ctx.printing()) {
    std::printf("  %-22s %10s %10.4f\n", "schnorr key prepare", "-",
                prepareMs);
  }
  for (const std::size_t n : {1u, 4u, 16u, 64u}) {
    std::vector<util::Bytes> messages;
    std::vector<pkcrypto::SchnorrSignature> sigs;
    std::vector<bool> expected(n, true);
    for (std::size_t i = 0; i < n; ++i) {
      messages.push_back(util::toBytes("feed post " + std::to_string(i)));
      sigs.push_back(pkcrypto::schnorrSign(group, key, messages.back(), rng));
    }
    if (n >= 4) {
      const std::size_t forged = n / 2;
      sigs[forged].s = bignum::addMod(sigs[forged].s, BigUint(1), group.q());
      expected[forged] = false;
    }
    std::vector<bool> oldOk(n);
    timer.reset();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        oldOk[i] =
            pkcrypto::schnorrVerify(group, key.pub, messages[i], sigs[i]);
      }
    }
    const double oldMs = timer.ms();
    std::vector<bool> newOk(n);
    timer.reset();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        newOk[i] = prepared->verify(messages[i], sigs[i]);
      }
    }
    const double newMs = timer.ms();
    ctx.require(oldOk == expected,
                "schnorrVerify did not reject exactly the forged signature");
    ctx.require(newOk == expected,
                "prepared key did not reject exactly the forged signature");
    const std::string tag = std::to_string(n);
    const double itemCount = static_cast<double>(n * rounds);
    ctx.param("old_ms_per_item." + tag, oldMs / itemCount);
    ctx.param("new_ms_per_item." + tag, newMs / itemCount);
    ctx.param("speedup." + tag, oldMs / newMs);
    if (ctx.printing()) {
      std::printf("  %-22s %10.4f %10.4f %8.2fx   (%zu rounds)\n",
                  ("schnorr page n=" + tag).c_str(), oldMs / itemCount,
                  newMs / itemCount, oldMs / newMs, rounds);
    }
  }
  ctx.param("bits", static_cast<double>(bits));
  ctx.counter("rounds", rounds);
}

// Fixed-base batch sweep at E19's width: n powers over one 256-bit modulus,
// each job its own table (the generator's, then identity keys) and
// exponent, computed by the loop of pow and by powMany (IFMA lanes where
// the CPU has them: powmany_kernel in the JSON header). Both must agree.
void benchFixedBaseBatch(ScenarioContext& ctx, std::size_t rounds) {
  const auto& group = pkcrypto::DlogGroup::cached(256);
  util::Rng rng(ctx.seed() + 966);
  std::vector<bignum::FixedBasePowerTable> identities;
  for (int i = 0; i < 15; ++i) {
    identities.emplace_back(group.exp(group.randomScalar(rng)), group.p(),
                            group.q().bitLength());
  }
  std::vector<BigUint> exponents;
  for (int i = 0; i < 16; ++i) exponents.push_back(group.randomScalar(rng));
  if (ctx.printing()) printHeader();
  for (const std::size_t n : {1u, 2u, 9u, 16u}) {
    std::vector<bignum::FixedBasePowerTable::Job> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      jobs.push_back({i == 0 ? &group.generatorTable() : &identities[i - 1],
                      &exponents[i]});
    }
    std::vector<BigUint> oldOut(n), newOut(n);
    benchkit::Timer timer;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        oldOut[i] = jobs[i].table->pow(*jobs[i].exponent);
      }
    }
    const double oldMs = timer.ms();
    timer.reset();
    for (std::size_t r = 0; r < rounds; ++r) {
      bignum::FixedBasePowerTable::powMany(jobs, newOut);
    }
    const double newMs = timer.ms();
    for (std::size_t i = 0; i < n; ++i) {
      check(ctx, oldOut[i], newOut[i], "fixed-base batch");
    }
    const std::string tag = std::to_string(n);
    const double items = static_cast<double>(n * rounds);
    ctx.param("old_ms_per_item." + tag, oldMs / items);
    ctx.param("new_ms_per_item." + tag, newMs / items);
    ctx.param("speedup." + tag, oldMs / newMs);
    if (ctx.printing()) {
      std::printf("  %-22s %10.4f %10.4f %8.2fx   (%zu rounds)\n",
                  ("g^x batch n=" + tag).c_str(), oldMs / items,
                  newMs / items, oldMs / newMs, rounds);
    }
  }
  ctx.param("bits", 256.0);
  ctx.counter("rounds", rounds);
}

}  // namespace

// Smoke runs every kernel once at CI-friendly sizes (correctness-only, also
// run under ASan/UBSan); full mode uses the B1 sizes from EXPERIMENTS.md.
BENCH_SCENARIO(b1_mulmod, {.hot = true}) {
  if (ctx.smoke()) {
    benchMulMod(ctx, 512, 64);
  } else {
    benchMulMod(ctx, 2048, 20000);
  }
}

// E19's width: its IBBE, Schnorr and ElGamal operations all run over 256-bit
// moduli, on the 4-limb CIOS instantiation. The other powMod scenarios run
// at 512 bits and up.
BENCH_SCENARIO(b1_powmod_256, {.hot = true}) {
  if (ctx.smoke()) {
    benchPowMod(ctx, 256, 4);
  } else {
    benchPowMod(ctx, 256, 200);
  }
}

BENCH_SCENARIO(b1_powmod_1024, {.hot = true}) {
  if (ctx.smoke()) {
    benchPowMod(ctx, 512, 1);
  } else {
    benchPowMod(ctx, 1024, 12);
  }
}

BENCH_SCENARIO(b1_powmod_2048, {.hot = true, .skipInSmoke = true}) {
  benchPowMod(ctx, 2048, 4);
}

BENCH_SCENARIO(b1_rsa_sign_1024, {.hot = true}) {
  if (ctx.smoke()) {
    benchRsaSign(ctx, 512, 1);
  } else {
    benchRsaSign(ctx, 1024, 12);
  }
}

BENCH_SCENARIO(b1_rsa_sign_2048, {.hot = true, .skipInSmoke = true}) {
  benchRsaSign(ctx, 2048, 4);
}

BENCH_SCENARIO(b1_fixed_base, {.hot = true}) {
  if (ctx.smoke()) {
    benchFixedBase(ctx, 512, 4);
  } else {
    benchFixedBase(ctx, 2048, 24);
  }
}

BENCH_SCENARIO(b1_karatsuba, {.hot = true}) {
  if (ctx.smoke()) {
    benchKaratsuba(ctx, 2048, 4);
  } else {
    benchKaratsuba(ctx, 8192, 400);
  }
}

BENCH_SCENARIO(b1_batch_inv, {.hot = true}) {
  if (ctx.smoke()) {
    benchBatchInv(ctx, 256, 1);
  } else {
    benchBatchInv(ctx, 256, 50);
  }
}

BENCH_SCENARIO(b1_schnorr_page, {.hot = true}) {
  if (ctx.smoke()) {
    benchSchnorrPage(ctx, 256, 1);
  } else {
    benchSchnorrPage(ctx, 256, 8);
  }
}

BENCH_SCENARIO(b1_fixed_base_batch, {.hot = true}) {
  if (ctx.smoke()) {
    benchFixedBaseBatch(ctx, 1);
  } else {
    benchFixedBaseBatch(ctx, 200);
  }
}

BENCHKIT_MAIN()
