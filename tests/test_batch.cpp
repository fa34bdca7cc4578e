// Differential tests for the batch-crypto throughput pass: Karatsuba multiply
// vs the retained schoolbook path, Montgomery batch inversion vs per-element
// invMod, Strauss multi-exponentiation vs products of single
// exponentiations, batched Schnorr proof verification vs the one-by-one path
// (including a randomized 1k-page differential), batched OPRF finalization,
// and byte-pinned Shamir/Lagrange reconstruction — every fast path against
// its retained simple reference (the test_montgomery pattern).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dosn/bignum/batch.hpp"
#include "dosn/bignum/biguint.hpp"
#include "dosn/bignum/modmath.hpp"
#include "dosn/bignum/montgomery.hpp"
#include "dosn/integrity/hash_chain.hpp"
#include "dosn/integrity/signed_post.hpp"
#include "dosn/pkcrypto/elgamal.hpp"
#include "dosn/pkcrypto/group.hpp"
#include "dosn/pkcrypto/multiexp.hpp"
#include "dosn/pkcrypto/oprf.hpp"
#include "dosn/pkcrypto/schnorr.hpp"
#include "dosn/policy/field.hpp"
#include "dosn/policy/shamir.hpp"
#include "dosn/search/hummingbird.hpp"
#include "dosn/search/zkp_access.hpp"
#include "dosn/util/error.hpp"
#include "dosn/util/rng.hpp"

namespace {

using dosn::bignum::batchInvMod;
using dosn::bignum::BigUint;
using dosn::bignum::invMod;
using dosn::bignum::MontgomeryContext;
using dosn::bignum::mulMod;
using dosn::bignum::powMod;
using dosn::bignum::powModSimple;
using dosn::bignum::randomBits;
using dosn::bignum::schoolbookMul;
using dosn::pkcrypto::DlogGroup;
using dosn::pkcrypto::multiPowMod;
using dosn::pkcrypto::PowTerm;
using dosn::util::Rng;

BigUint oddModulus(std::size_t bits, Rng& rng) {
  BigUint m = randomBits(bits, rng);
  if (m.isEven()) m += BigUint(1);
  return m;
}

BigUint evenModulus(std::size_t bits, Rng& rng) {
  BigUint m = randomBits(bits, rng);
  if (m.isOdd()) m += BigUint(1);
  return m;
}

// ---------------------------------------------------------------------------
// Karatsuba multiply vs the retained schoolbook path.

TEST(Karatsuba, MatchesSchoolbookAcrossLimbWidths) {
  Rng rng(101);
  // Widths straddle the 16-limb crossover: below it operator* IS schoolbook,
  // at/above it the Karatsuba recursion (and its base case) must agree.
  for (const std::size_t limbs : {1u, 2u, 15u, 16u, 17u, 24u, 32u, 33u, 64u}) {
    for (int i = 0; i < 4; ++i) {
      const BigUint a = randomBits(limbs * 64 - (i % 3), rng);
      const BigUint b = randomBits(limbs * 64 - ((i + 1) % 5), rng);
      EXPECT_EQ(a * b, schoolbookMul(a, b)) << "limbs=" << limbs << " i=" << i;
    }
  }
}

TEST(Karatsuba, AsymmetricOperandsAndEdges) {
  Rng rng(103);
  const BigUint wide = randomBits(64 * 32, rng);
  const BigUint narrow = randomBits(3 * 32, rng);
  EXPECT_EQ(wide * narrow, schoolbookMul(wide, narrow));
  EXPECT_EQ(narrow * wide, schoolbookMul(narrow, wide));
  // One operand above the crossover, the other just below it: the split
  // point m derives from the larger operand, so the low/high partition of
  // the smaller one is uneven.
  const BigUint mid = randomBits(40 * 32, rng);
  const BigUint big = randomBits(100 * 32, rng);
  EXPECT_EQ(mid * big, schoolbookMul(mid, big));
  EXPECT_EQ(wide * BigUint(0), BigUint(0));
  EXPECT_EQ(BigUint(0) * wide, BigUint(0));
  EXPECT_EQ(wide * BigUint(1), wide);
  // Maximal limbs (all-ones) maximize carry propagation in every helper.
  const BigUint ones = (BigUint(1) << (48 * 32)) - BigUint(1);
  EXPECT_EQ(ones * ones, schoolbookMul(ones, ones));
}

TEST(Karatsuba, AsymmetricRecombinationStaysInBounds) {
  // Regression for a heap overflow in the Karatsuba recombination: when the
  // split point m (derived from the LARGER operand) reaches the smaller
  // operand's width, a1 is empty and z1 = (a0+a1)(b0+b1) - z0 - z2 keeps its
  // full untrimmed product length even though the subtractions shrink its
  // value, so addInto(out, m, z1) indexed past the an+bn output allocation
  // (e.g. 16x31 limbs: off 16 + 33 untrimmed limbs > 47). Both operands must
  // be >= 16 64-bit limbs to take the Karatsuba path at all; these shapes
  // sweep the asymmetric region around and past the empty-a1 threshold
  // bn >= 2*an - 1.
  Rng rng(109);
  const std::size_t shapes[][2] = {{16, 30}, {16, 31}, {16, 32},  {16, 33},
                                   {16, 34}, {16, 48}, {16, 63},  {17, 32},
                                   {17, 100}, {20, 63}, {24, 48}, {32, 127}};
  for (const auto& shape : shapes) {
    const BigUint a = randomBits(shape[0] * 64, rng);
    const BigUint b = randomBits(shape[1] * 64, rng);
    EXPECT_EQ(a * b, schoolbookMul(a, b))
        << "an=" << shape[0] << " bn=" << shape[1];
    EXPECT_EQ(b * a, schoolbookMul(b, a))
        << "an=" << shape[1] << " bn=" << shape[0];
  }
}

// ---------------------------------------------------------------------------
// Montgomery batch inversion vs per-element invMod.

TEST(BatchInv, MatchesInvModElementwise) {
  Rng rng(107);
  for (const std::size_t bits : {64u, 255u, 256u}) {
    for (const bool odd : {true, false}) {
      const BigUint m = odd ? oddModulus(bits, rng) : evenModulus(bits, rng);
      for (const std::size_t n : {1u, 2u, 3u, 16u, 65u}) {
        std::vector<BigUint> values;
        for (std::size_t i = 0; i < n; ++i) {
          // Retry until invertible so the batch is well-defined.
          while (true) {
            BigUint v = randomBits(bits + 8, rng);
            if (invMod(v, m).has_value()) {
              values.push_back(std::move(v));
              break;
            }
          }
        }
        const auto batch = batchInvMod(values, m);
        ASSERT_TRUE(batch.has_value()) << "bits=" << bits << " n=" << n;
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ((*batch)[i], *invMod(values[i], m))
              << "bits=" << bits << " odd=" << odd << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(BatchInv, NonInvertibleElementYieldsNullopt) {
  Rng rng(109);
  const BigUint m = oddModulus(128, rng);
  std::vector<BigUint> values = {BigUint(3) % m, BigUint(0), BigUint(5) % m};
  EXPECT_FALSE(batchInvMod(values, m).has_value());  // 0 shares every factor
  const BigUint even = evenModulus(128, rng);
  EXPECT_FALSE(batchInvMod({BigUint(2)}, even).has_value());  // gcd 2
}

TEST(BatchInv, TrivialModulusAndEmptyInput) {
  const auto empty = batchInvMod({}, BigUint(7));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
  // invMod(a, 1) == 0 for every a; the batch must agree.
  const auto ones = batchInvMod({BigUint(4), BigUint(9)}, BigUint(1));
  ASSERT_TRUE(ones.has_value());
  EXPECT_EQ((*ones)[0], BigUint(0));
  EXPECT_EQ((*ones)[1], BigUint(0));
  EXPECT_THROW(batchInvMod({BigUint(3)}, BigUint(0)), dosn::util::DosnError);
}

TEST(BatchInv, ContextOverloadMatchesValueOverload) {
  Rng rng(113);
  const BigUint m = oddModulus(256, rng);
  const MontgomeryContext ctx(m);
  std::vector<BigUint> values;
  while (values.size() < 20) {
    BigUint v = randomBits(250, rng);
    if (invMod(v, m).has_value()) values.push_back(std::move(v));
  }
  const auto viaCtx = batchInvMod(values, ctx);
  const auto viaValue = batchInvMod(values, m);
  ASSERT_EQ(viaCtx.has_value(), viaValue.has_value());
  if (viaCtx) {
    EXPECT_EQ(*viaCtx, *viaValue);
  }
}

// ---------------------------------------------------------------------------
// Sliding-window powMod recoding: edge exponents across window widths.

TEST(SlidingWindow, EdgeExponentsAcrossWidths) {
  Rng rng(137);
  // Moduli sized so exponents exercise w=4 (<=128 bits), w=5 (<=768) and
  // w=6 (>768) recoding paths.
  const BigUint m = oddModulus(256, rng);
  const BigUint base = randomBits(260, rng);
  for (const std::size_t ebits : {1u, 2u, 5u, 64u, 128u, 129u, 300u, 768u, 900u}) {
    const BigUint e = randomBits(ebits, rng);
    EXPECT_EQ(powMod(base, e, m), powModSimple(base, e, m)) << "ebits=" << ebits;
    // All-ones exponents make every window maximal; 10...01 shapes make
    // zero-runs maximal between two single-bit windows.
    const BigUint allOnes = (BigUint(1) << ebits) - BigUint(1);
    EXPECT_EQ(powMod(base, allOnes, m), powModSimple(base, allOnes, m))
        << "ebits=" << ebits;
    const BigUint sparse = (BigUint(1) << ebits) + BigUint(1);
    EXPECT_EQ(powMod(base, sparse, m), powModSimple(base, sparse, m))
        << "ebits=" << ebits;
  }
  EXPECT_EQ(powMod(base, BigUint(0), m), BigUint(1));
  EXPECT_EQ(powMod(base, BigUint(1), m), base % m);
  EXPECT_EQ(powMod(base, BigUint(2), m), mulMod(base, base, m));
}

// ---------------------------------------------------------------------------
// Multi-exponentiation vs products of single exponentiations.

TEST(MultiExp, MultiPowMatchesProductOfPows) {
  Rng rng(149);
  const BigUint m = oddModulus(256, rng);
  const MontgomeryContext ctx(m);
  for (const std::size_t n : {1u, 2u, 3u, 8u, 33u}) {
    std::vector<PowTerm> terms;
    BigUint expected(1);
    for (std::size_t i = 0; i < n; ++i) {
      PowTerm t{randomBits(250, rng), randomBits(1 + (i * 37) % 200, rng)};
      expected = mulMod(expected, powModSimple(t.base, t.exponent, m), m);
      terms.push_back(std::move(t));
    }
    EXPECT_EQ(multiPowMod(ctx, terms), expected) << "n=" << n;
  }
  EXPECT_EQ(multiPowMod(ctx, {}), BigUint(1));
  EXPECT_EQ(multiPowMod(ctx, {PowTerm{randomBits(100, rng), BigUint(0)}}),
            BigUint(1));
}

// ---------------------------------------------------------------------------
// Batched Schnorr proof verification (random linear combination).

using dosn::pkcrypto::schnorrGenerate;
using dosn::pkcrypto::SchnorrProof;
using dosn::pkcrypto::SchnorrProofBatchItem;
using dosn::pkcrypto::schnorrProofVerify;
using dosn::pkcrypto::schnorrProofVerifyBatch;
using dosn::pkcrypto::schnorrProve;

TEST(SchnorrProofBatch, AllValidPageAccepts) {
  const DlogGroup& group = DlogGroup::cached(256);
  Rng rng(167);
  std::vector<SchnorrProofBatchItem> items;
  for (int i = 0; i < 8; ++i) {
    const auto key = schnorrGenerate(group, rng);
    const auto context = dosn::util::toBytes("ctx " + std::to_string(i));
    items.push_back(SchnorrProofBatchItem{
        key.pub, context, schnorrProve(group, key, context, rng)});
  }
  const auto results = schnorrProofVerifyBatch(group, items);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i]) << "i=" << i;
  }
}

TEST(SchnorrProofBatch, OffenderIsolatedViaFallback) {
  const DlogGroup& group = DlogGroup::cached(256);
  Rng rng(173);
  std::vector<SchnorrProofBatchItem> items;
  for (int i = 0; i < 12; ++i) {
    const auto key = schnorrGenerate(group, rng);
    const auto context = dosn::util::toBytes("res " + std::to_string(i));
    items.push_back(SchnorrProofBatchItem{
        key.pub, context, schnorrProve(group, key, context, rng)});
  }
  items[5].proof.s = (items[5].proof.s + BigUint(1)) % group.q();
  const auto results = schnorrProofVerifyBatch(group, items);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i != 5) << "i=" << i;
  }
}

TEST(SchnorrProofBatch, RandomizedPagesMatchOneByOne) {
  const DlogGroup& group = DlogGroup::cached(256);
  Rng rng(179);
  std::vector<SchnorrProofBatchItem> pool;
  for (int i = 0; i < 10; ++i) {
    const auto key = schnorrGenerate(group, rng);
    const auto context = dosn::util::toBytes("pool ctx " + std::to_string(i));
    pool.push_back(SchnorrProofBatchItem{
        key.pub, context, schnorrProve(group, key, context, rng)});
  }
  for (int page = 0; page < 200; ++page) {
    const std::size_t pageSize = 1 + rng.next() % 5;
    std::vector<SchnorrProofBatchItem> items;
    for (std::size_t i = 0; i < pageSize; ++i) {
      SchnorrProofBatchItem item = pool[rng.next() % pool.size()];
      switch (rng.next() % 6) {
        case 0:
          item.context.push_back(0x17);
          break;
        case 1:
          item.proof.s = (item.proof.s + BigUint(1)) % group.q();
          break;
        case 2:
          item.proof.r = group.p() - BigUint(1);  // order-2, not in subgroup
          break;
        case 3:
          item.proof.s = group.q();  // range violation
          break;
        default:
          break;
      }
      items.push_back(std::move(item));
    }
    const auto batch = schnorrProofVerifyBatch(group, items);
    ASSERT_EQ(batch.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const bool single = schnorrProofVerify(group, items[i].key,
                                             items[i].context, items[i].proof);
      ASSERT_EQ(batch[i], single) << "page=" << page << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Batched OPRF finalization and Hummingbird subscription rounds.

TEST(OprfBatch, FinalizeBatchMatchesPerReceiver) {
  const DlogGroup& group = DlogGroup::cached(256);
  Rng rng(181);
  dosn::pkcrypto::OprfSender sender(group, rng);
  std::vector<dosn::pkcrypto::OprfReceiver> receivers;
  std::vector<BigUint> replies;
  for (int i = 0; i < 17; ++i) {
    receivers.emplace_back(group,
                           dosn::util::toBytes("tag" + std::to_string(i)), rng);
    replies.push_back(sender.evaluateBlinded(receivers.back().blinded()));
  }
  std::vector<const dosn::pkcrypto::OprfReceiver*> ptrs;
  for (const auto& r : receivers) ptrs.push_back(&r);
  const auto batch = dosn::pkcrypto::oprfFinalizeBatch(ptrs, replies);
  ASSERT_EQ(batch.size(), receivers.size());
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    EXPECT_EQ(batch[i], receivers[i].finalize(replies[i])) << "i=" << i;
    // And both match the sender's direct evaluation (OPRF correctness).
    EXPECT_EQ(batch[i],
              sender.evaluate(dosn::util::toBytes("tag" + std::to_string(i))));
  }
  EXPECT_THROW(dosn::pkcrypto::oprfFinalizeBatch({ptrs[0]}, {}),
               dosn::util::CryptoError);
  EXPECT_THROW(dosn::pkcrypto::oprfFinalizeBatch({ptrs[0]}, {BigUint(0)}),
               dosn::util::CryptoError);
}

TEST(OprfBatch, HummingbirdSubscriptionRoundMatches) {
  const DlogGroup& group = DlogGroup::cached(256);
  Rng rng(191);
  dosn::search::HummingbirdPublisher publisher(group, 512, rng);
  dosn::search::HummingbirdSubscriber subscriber(group);
  std::vector<dosn::search::HummingbirdSubscriber::OprfRequest> requests;
  std::vector<BigUint> replies;
  for (int i = 0; i < 9; ++i) {
    requests.push_back(
        subscriber.beginOprf("#topic" + std::to_string(i), rng));
    replies.push_back(publisher.oprfEvaluate(requests.back().blinded()));
  }
  std::vector<const dosn::search::HummingbirdSubscriber::OprfRequest*> ptrs;
  for (const auto& r : requests) ptrs.push_back(&r);
  const auto subs = subscriber.finishOprfBatch(ptrs, replies);
  ASSERT_EQ(subs.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto single = subscriber.finishOprf(requests[i], replies[i]);
    EXPECT_EQ(subs[i].key, single.key) << "i=" << i;
    EXPECT_EQ(subs[i].index, single.index) << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Group scalar batch inversion and PrimeField::invBatch.

TEST(ScalarBatch, GroupScalarInvBatchMatches) {
  const DlogGroup& group = DlogGroup::cached(256);
  Rng rng(193);
  std::vector<BigUint> scalars;
  for (int i = 0; i < 33; ++i) scalars.push_back(group.randomScalar(rng));
  const auto batch = group.scalarInvBatch(scalars);
  ASSERT_EQ(batch.size(), scalars.size());
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    EXPECT_EQ(batch[i], group.scalarInv(scalars[i])) << "i=" << i;
  }
  EXPECT_THROW(group.scalarInvBatch({BigUint(0)}), dosn::util::CryptoError);
}

TEST(ScalarBatch, PrimeFieldInvBatchMatches) {
  const auto& field = dosn::policy::PrimeField::standard();
  Rng rng(197);
  std::vector<BigUint> values;
  for (int i = 0; i < 21; ++i) {
    // randomBits forces the MSB, so the value is nonzero and < p (prime):
    // always invertible.
    values.push_back(field.reduce(randomBits(254, rng)));
  }
  const auto batch = field.invBatch(values);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(batch[i], field.inv(values[i])) << "i=" << i;
  }
  EXPECT_THROW(field.invBatch({BigUint(0)}), dosn::util::DosnError);
}

// ---------------------------------------------------------------------------
// Shamir reconstruction: batched path pinned byte-identical to the
// per-coefficient reference.

TEST(ShamirBatch, ReconstructMatchesPerCoefficientReference) {
  const auto& field = dosn::policy::PrimeField::standard();
  Rng rng(199);
  for (const std::size_t k : {1u, 2u, 3u, 5u, 12u}) {
    const BigUint secret = field.reduce(randomBits(250, rng));
    const auto shares = dosn::policy::shamirShare(field, secret, k, k + 3, rng);
    // Any k-subset reconstructs; use the first k shares.
    std::vector<dosn::policy::Share> subset(shares.begin(), shares.begin() + k);
    // Reference: the retained per-coefficient path, one inversion each.
    BigUint reference{};
    for (std::size_t i = 0; i < subset.size(); ++i) {
      const BigUint li =
          dosn::policy::lagrangeCoefficientAtZero(field, subset, i);
      reference = field.add(reference, field.mul(subset[i].y, li));
    }
    const BigUint batched = dosn::policy::shamirReconstruct(field, subset);
    EXPECT_EQ(batched, reference) << "k=" << k;
    EXPECT_EQ(batched, secret) << "k=" << k;
    // Byte-identical encodings, not merely equal values.
    EXPECT_EQ(field.encode(batched), field.encode(reference)) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Consumer wiring: signed posts, hash chains, ZKP access, ElGamal.

// verifyPost checks each author's posts through the registry's prepared
// key; every verdict equals schnorrVerify under the registered key.
TEST(Consumers, VerifyPostMatchesSchnorrVerify) {
  const DlogGroup& group = DlogGroup::cached(256);
  Rng rng(211);
  dosn::social::IdentityRegistry registry;
  const auto alice = dosn::social::createKeyring(group, "alice", rng);
  const auto bob = dosn::social::createKeyring(group, "bob", rng);
  registry.registerIdentity(dosn::social::publicIdentity(alice));
  registry.registerIdentity(dosn::social::publicIdentity(bob));

  std::vector<dosn::integrity::SignedPost> posts;
  for (int i = 0; i < 10; ++i) {
    dosn::social::Post post;
    post.author = (i % 2 == 0) ? "alice" : "bob";
    post.id = static_cast<std::uint64_t>(i);
    post.text = "hello " + std::to_string(i);
    posts.push_back(dosn::integrity::signPost(
        group, (i % 2 == 0) ? alice : bob, post, rng));
  }
  posts[3].signature.s = (posts[3].signature.s + BigUint(1)) % group.q();
  posts[6].post.author = "mallory";  // unregistered author
  for (std::size_t i = 0; i < posts.size(); ++i) {
    const auto identity = registry.lookup(posts[i].post.author);
    const bool expected =
        identity && dosn::pkcrypto::schnorrVerify(
                        group, identity->signingKey, posts[i].post.serialize(),
                        posts[i].signature);
    EXPECT_EQ(dosn::integrity::verifyPost(group, registry, posts[i]), expected)
        << "i=" << i;
    EXPECT_EQ(expected, i != 3 && i != 6) << "i=" << i;
  }
}

TEST(Consumers, VerifyChainStillCatchesEveryTamper) {
  const DlogGroup& group = DlogGroup::cached(256);
  Rng rng(223);
  const auto keyring = dosn::social::createKeyring(group, "carol", rng);
  dosn::integrity::Timeline timeline(group, keyring);
  for (int i = 0; i < 8; ++i) {
    timeline.append(dosn::util::toBytes("entry " + std::to_string(i)), rng);
  }
  auto entries = timeline.entries();
  EXPECT_TRUE(dosn::integrity::verifyChain(group, keyring.signing.pub, entries));
  EXPECT_TRUE(dosn::integrity::verifyChain(group, keyring.signing.pub, {}));

  auto tamperedSig = entries;
  tamperedSig[4].signature.s =
      (tamperedSig[4].signature.s + BigUint(1)) % group.q();
  EXPECT_FALSE(
      dosn::integrity::verifyChain(group, keyring.signing.pub, tamperedSig));

  auto tamperedPayload = entries;
  tamperedPayload[2].payload.push_back(0x01);
  EXPECT_FALSE(
      dosn::integrity::verifyChain(group, keyring.signing.pub, tamperedPayload));

  auto reordered = entries;
  std::swap(reordered[1], reordered[2]);
  EXPECT_FALSE(
      dosn::integrity::verifyChain(group, keyring.signing.pub, reordered));
}

TEST(Consumers, CheckAccessBatchMatchesCheckAccess) {
  const DlogGroup& group = DlogGroup::cached(256);
  Rng rng(227);
  dosn::search::AccessGate gate(group);
  std::vector<dosn::search::Pseudonym> pseudonyms;
  std::vector<dosn::search::AccessGate::AccessRequest> requests;
  for (int i = 0; i < 6; ++i) {
    auto p = dosn::search::createPseudonym(group, rng);
    const std::string resource = "album/" + std::to_string(i % 3);
    gate.authorize(resource, p.handle, p.key.pub);
    requests.push_back(dosn::search::AccessGate::AccessRequest{
        resource, p.handle,
        dosn::search::proveAccess(group, p, resource, rng)});
    pseudonyms.push_back(std::move(p));
  }
  // A tampered proof, a revoked pseudonym, and an unknown resource.
  requests[1].proof.s = (requests[1].proof.s + BigUint(1)) % group.q();
  gate.revoke("album/2", pseudonyms[2].handle);
  requests.push_back(dosn::search::AccessGate::AccessRequest{
      "no-such-resource", pseudonyms[0].handle, requests[0].proof});
  const auto batch = gate.checkAccessBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batch[i], gate.checkAccess(requests[i].resource,
                                         requests[i].handle, requests[i].proof))
        << "i=" << i;
  }
  EXPECT_TRUE(batch[0]);
  EXPECT_FALSE(batch[1]);
  EXPECT_FALSE(batch.back());
}

TEST(Consumers, ElGamalFermatDecryptRoundTrips) {
  const DlogGroup& group = DlogGroup::cached(256);
  Rng rng(229);
  const auto key = dosn::pkcrypto::elgamalGenerate(group, rng);
  for (int i = 0; i < 6; ++i) {
    // A random subgroup element as the message.
    const BigUint m = group.exp(group.randomScalar(rng));
    const auto ct =
        dosn::pkcrypto::elgamalEncryptElement(group, key.pub, m, rng);
    EXPECT_EQ(dosn::pkcrypto::elgamalDecryptElement(group, key, ct), m);
    // Differential against the historical inv-based decryption.
    const BigUint shared = group.exp(ct.c1, key.x);
    EXPECT_EQ(group.mul(ct.c2, group.inv(shared)),
              dosn::pkcrypto::elgamalDecryptElement(group, key, ct));
  }
  // Degenerate c1 == 0 rejects (the inv path threw on the non-unit too).
  dosn::pkcrypto::ElGamalElementCiphertext bad{BigUint(0), BigUint(5)};
  EXPECT_THROW(dosn::pkcrypto::elgamalDecryptElement(group, key, bad),
               dosn::util::CryptoError);
}

}  // namespace
