// Unit tests for dosn/crypto against published test vectors (FIPS 180-4,
// RFC 4231, RFC 5869, RFC 8439) plus behavioural/property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dosn/crypto/aead.hpp"
#include "dosn/crypto/chacha20.hpp"
#include "dosn/crypto/hkdf.hpp"
#include "dosn/crypto/hmac.hpp"
#include "dosn/crypto/merkle.hpp"
#include "dosn/crypto/poly1305.hpp"
#include "dosn/crypto/sha256.hpp"
#include "dosn/util/error.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::crypto {
namespace {

using util::Bytes;
using util::fromHex;
using util::toBytes;
using util::toHex;

std::string hexDigest(const Digest& d) { return toHex(util::BytesView(d)); }

// --- SHA-256 ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hexDigest(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hexDigest(sha256(toBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      hexDigest(sha256(toBytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, FourBlockMessage) {
  // The 896-bit NIST message (FIPS 180-4 §A / SHA-2 test corpus).
  EXPECT_EQ(
      hexDigest(sha256(toBytes(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hexDigest(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const Bytes data = toBytes("the quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (std::size_t i = 0; i < data.size(); ++i) {
    h.update(util::BytesView(&data[i], 1));
  }
  EXPECT_EQ(h.finish(), sha256(data));
}

TEST(Sha256, BoundaryLengths) {
  // Padding edge cases: 55, 56, 63, 64, 65 bytes.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u}) {
    const Bytes data(len, 'x');
    Sha256 streaming;
    streaming.update(util::BytesView(data.data(), len / 2));
    streaming.update(util::BytesView(data.data() + len / 2, len - len / 2));
    EXPECT_EQ(streaming.finish(), sha256(data)) << "len=" << len;
  }
}

TEST(Sha256, FinishTwiceThrows) {
  Sha256 h;
  h.update(toBytes("x"));
  h.finish();
  EXPECT_THROW(h.finish(), util::CryptoError);
}

// --- SHA-256 block functions (differential) ---

// Whole-message SHA-256 on the scalar block function alone: FIPS 180-4
// padding written out here, independent of Sha256's streaming buffer.
Digest scalarDigest(util::BytesView data) {
  detail::Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                               0x1f83d9ab, 0x5be0cd19};
  Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % kSha256BlockSize != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{data.size()} * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  detail::sha256CompressScalar(state, padded.data(),
                               padded.size() / kSha256BlockSize);
  Digest out{};
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out;
}

TEST(Sha256Kernels, ScalarOracleMatchesKnownAnswers) {
  EXPECT_EQ(hexDigest(scalarDigest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      hexDigest(scalarDigest(toBytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Kernels, DispatchNamesTheChosenKernel) {
  const std::string kernel = sha256Kernel();
  EXPECT_EQ(kernel,
            detail::sha256CompressShaNi() != nullptr ? "sha-ni" : "portable");
}

TEST(Sha256Kernels, ShaNiMatchesScalarOnRandomStatesAndBlocks) {
  const detail::Sha256Compress shaNi = detail::sha256CompressShaNi();
  if (shaNi == nullptr) {
    GTEST_SKIP() << "CPU or build has no SHA-NI; the scalar block function "
                    "is the only one and the known-answer tests cover it";
  }
  util::Rng rng(20261017);
  for (const std::size_t blocks : {1u, 2u, 3u, 8u}) {
    for (int trial = 0; trial < 64; ++trial) {
      detail::Sha256State state{};
      for (auto& word : state) word = static_cast<std::uint32_t>(rng.next());
      const Bytes data = rng.bytes(blocks * kSha256BlockSize);
      detail::Sha256State expected = state;
      detail::sha256CompressScalar(expected, data.data(), blocks);
      detail::Sha256State actual = state;
      shaNi(actual, data.data(), blocks);
      EXPECT_EQ(actual, expected) << "blocks=" << blocks << " trial=" << trial;
    }
  }
}

// Sha256 runs the dispatched block function (SHA-NI where the CPU has it);
// every length from 0 to 1,100 bytes, fed in random pieces, must give the
// scalar oracle's digest.
TEST(Sha256Kernels, StreamedDigestsMatchScalarOracleAtEveryLength) {
  util::Rng rng(20261018);
  for (std::size_t len = 0; len <= 1100; ++len) {
    const Bytes data = rng.bytes(len);
    Sha256 h;
    std::size_t offset = 0;
    while (offset < len) {
      const std::size_t take = 1 + rng.uniform(std::min<std::size_t>(
                                       len - offset, 3 * kSha256BlockSize));
      h.update(util::BytesView(data.data() + offset, take));
      offset += take;
    }
    EXPECT_EQ(h.finish(), scalarDigest(data)) << "len=" << len;
  }
}

// --- HMAC-SHA256 (RFC 4231) ---

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hexDigest(hmacSha256(key, toBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      hexDigest(hmacSha256(toBytes("Jefe"),
                           toBytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(hexDigest(hmacSha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case4CombinedKeyAndData) {
  Bytes key;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key.push_back(b);
  const Bytes msg(50, 0xcd);
  EXPECT_EQ(hexDigest(hmacSha256(key, msg)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      hexDigest(hmacSha256(
          key, toBytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7LongKeyLongData) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      hexDigest(hmacSha256(
          key,
          toBytes("This is a test using a larger than block-size key and a "
                  "larger than block-size data. The key needs to be hashed "
                  "before being used by the HMAC algorithm."))),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, VerifyDetectsTamper) {
  const Bytes key = toBytes("k");
  const Bytes msg = toBytes("m");
  const Digest tag = hmacSha256(key, msg);
  EXPECT_TRUE(verifyHmacSha256(key, msg, util::BytesView(tag)));
  Digest bad = tag;
  bad[0] ^= 1;
  EXPECT_FALSE(verifyHmacSha256(key, msg, util::BytesView(bad)));
  EXPECT_FALSE(verifyHmacSha256(key, toBytes("m2"), util::BytesView(tag)));
}

// --- HKDF (RFC 5869) ---

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = *fromHex("000102030405060708090a0b0c");
  const Bytes info = *fromHex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(ikm, salt, info, 42);
  EXPECT_EQ(toHex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case2LongInputs) {
  // 80-byte IKM/salt/info and an output spanning three expand blocks — the
  // only published vector exercising the T(n-1) chaining across rounds.
  Bytes ikm, salt, info;
  for (int b = 0x00; b <= 0x4f; ++b) ikm.push_back(static_cast<std::uint8_t>(b));
  for (int b = 0x60; b <= 0xaf; ++b) salt.push_back(static_cast<std::uint8_t>(b));
  for (int b = 0xb0; b <= 0xff; ++b) info.push_back(static_cast<std::uint8_t>(b));
  const Bytes okm = hkdf(ikm, salt, info, 82);
  EXPECT_EQ(toHex(okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

TEST(Hkdf, Rfc5869Case3NoSaltNoInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf(ikm, {}, {}, 42);
  EXPECT_EQ(toHex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// RFC 5869 §2.2: a salt not provided is HashLen zero bytes. The empty salt
// runs through one HMAC keyed once per process and copied per call; it must
// agree with an explicit zero salt, call after call.
TEST(Hkdf, EmptySaltEqualsHashLenZeros) {
  const Bytes ikm = toBytes("input keying material");
  const Bytes zeros(32, 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(hkdf(ikm, {}, toBytes("info"), 42),
              hkdf(ikm, zeros, toBytes("info"), 42));
    EXPECT_EQ(deriveKey(ikm, "label"),
              hkdf(ikm, zeros, toBytes("label"), 32));
  }
}

TEST(Hkdf, LengthLimit) {
  EXPECT_THROW(hkdfExpand(Bytes(32, 1), {}, 255 * 32 + 1), util::CryptoError);
  EXPECT_EQ(hkdfExpand(Bytes(32, 1), {}, 255 * 32).size(), 255u * 32u);
}

TEST(Hkdf, DeriveKeyDomainSeparation) {
  const Bytes secret = toBytes("secret");
  EXPECT_NE(deriveKey(secret, "a"), deriveKey(secret, "b"));
  EXPECT_EQ(deriveKey(secret, "a"), deriveKey(secret, "a"));
  EXPECT_EQ(deriveKey(secret, "a").size(), 32u);
}

// --- ChaCha20 (RFC 8439 §2.4.2) ---

TEST(ChaCha20, Rfc8439Encryption) {
  const Bytes key = *fromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = *fromHex("000000000000004a00000000");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const Bytes ct = chacha20Xor(key, nonce, 1, toBytes(plaintext));
  EXPECT_EQ(toHex(util::BytesView(ct.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
  // Decryption is the same operation.
  EXPECT_EQ(chacha20Xor(key, nonce, 1, ct), toBytes(plaintext));
}

TEST(ChaCha20, Rfc8439AppendixA1KeystreamBlock) {
  // Appendix A.1 test vector #1: all-zero key, nonce and counter. XORing
  // zeros exposes the raw first keystream block.
  const Bytes zeros(64, 0x00);
  EXPECT_EQ(toHex(chacha20Xor(Bytes(32, 0), Bytes(12, 0), 0, zeros)),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586");
}

TEST(ChaCha20, RejectsBadKeyNonce) {
  EXPECT_THROW(chacha20Xor(Bytes(31, 0), Bytes(12, 0), 0, {}),
               util::CryptoError);
  EXPECT_THROW(chacha20Xor(Bytes(32, 0), Bytes(11, 0), 0, {}),
               util::CryptoError);
}

// --- Poly1305 (RFC 8439 §2.5.2) ---

TEST(Poly1305, Rfc8439Vector) {
  const Bytes key = *fromHex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const PolyTag tag =
      poly1305(key, toBytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(toHex(util::BytesView(tag)), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, Rfc8439AppendixA3DegenerateKeys) {
  // Vector #1: r = s = 0 forces a zero tag for any message.
  const PolyTag zeroTag = poly1305(Bytes(32, 0), Bytes(64, 0));
  EXPECT_EQ(toHex(util::BytesView(zeroTag)), "00000000000000000000000000000000");
  // Vector #2: r = 0 makes the polynomial vanish, so the tag is exactly s —
  // for the RFC's 375-byte message or any other.
  Bytes key(16, 0x00);
  const Bytes s = *fromHex("36e5f6b5c5e06070f0efca96227a863e");
  key.insert(key.end(), s.begin(), s.end());
  const PolyTag tag =
      poly1305(key, toBytes("Any submission to the IETF intended by the "
                            "Contributor for publication"));
  EXPECT_EQ(toHex(util::BytesView(tag)), toHex(s));
}

// --- AEAD (RFC 8439 §2.8.2) ---

TEST(Aead, Rfc8439SealVector) {
  const Bytes key = *fromHex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const Bytes nonce = *fromHex("070000004041424344454647");
  const Bytes aad = *fromHex("50515253c0c1c2c3c4c5c6c7");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const Bytes sealed = aeadSeal(key, nonce, toBytes(plaintext), aad);
  // Tag from the RFC.
  EXPECT_EQ(toHex(util::BytesView(sealed).last(16)),
            "1ae10b594f09e26a7e902ecbd0600691");
  const auto opened = aeadOpen(key, nonce, sealed, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, toBytes(plaintext));
}

TEST(Aead, TamperDetected) {
  util::Rng rng(5);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  Bytes sealed = aeadSeal(key, nonce, toBytes("attack at dawn"));
  sealed[3] ^= 1;
  EXPECT_FALSE(aeadOpen(key, nonce, sealed).has_value());
}

TEST(Aead, WrongAadRejected) {
  util::Rng rng(5);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  const Bytes sealed = aeadSeal(key, nonce, toBytes("msg"), toBytes("aad1"));
  EXPECT_FALSE(aeadOpen(key, nonce, sealed, toBytes("aad2")).has_value());
  EXPECT_TRUE(aeadOpen(key, nonce, sealed, toBytes("aad1")).has_value());
}

TEST(Aead, WithNonceRoundTrip) {
  util::Rng rng(6);
  const Bytes key = rng.bytes(32);
  const Bytes box = sealWithNonce(key, toBytes("hello"), rng);
  EXPECT_EQ(openWithNonce(key, box).value(), toBytes("hello"));
  EXPECT_FALSE(openWithNonce(rng.bytes(32), box).has_value());
  EXPECT_FALSE(openWithNonce(key, Bytes(10, 0)).has_value());
}

TEST(Aead, EmptyPlaintext) {
  util::Rng rng(7);
  const Bytes key = rng.bytes(32);
  const Bytes box = sealWithNonce(key, {}, rng);
  EXPECT_EQ(openWithNonce(key, box).value(), Bytes{});
}

// --- Merkle tree ---

TEST(Merkle, SingleLeaf) {
  MerkleTree tree({toBytes("only")});
  EXPECT_EQ(tree.leafCount(), 1u);
  EXPECT_TRUE(merkleVerify(tree.root(), toBytes("only"), tree.prove(0)));
}

TEST(Merkle, ProofsVerifyForAllLeaves) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < 9; ++i) leaves.push_back(toBytes("leaf" + std::to_string(i)));
  MerkleTree tree(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_TRUE(merkleVerify(tree.root(), leaves[i], tree.prove(i))) << i;
  }
}

TEST(Merkle, WrongLeafFails) {
  MerkleTree tree({toBytes("a"), toBytes("b"), toBytes("c")});
  EXPECT_FALSE(merkleVerify(tree.root(), toBytes("x"), tree.prove(1)));
}

TEST(Merkle, ProofForWrongPositionFails) {
  MerkleTree tree({toBytes("a"), toBytes("b"), toBytes("c"), toBytes("d")});
  EXPECT_FALSE(merkleVerify(tree.root(), toBytes("a"), tree.prove(1)));
}

TEST(Merkle, RootChangesWithContent) {
  MerkleTree t1({toBytes("a"), toBytes("b")});
  MerkleTree t2({toBytes("a"), toBytes("c")});
  MerkleTree t3({toBytes("b"), toBytes("a")});
  EXPECT_NE(t1.root(), t2.root());
  EXPECT_NE(t1.root(), t3.root());  // order matters
}

TEST(Merkle, LeafNodeDomainSeparation) {
  // A leaf equal to an inner-node encoding must not produce the same hash.
  const Digest leaf = merkleLeafHash(toBytes("x"));
  Digest a{};
  Digest b{};
  EXPECT_NE(merkleNodeHash(a, b), merkleLeafHash(util::Bytes{0x01}));
  EXPECT_NE(leaf, merkleNodeHash(leaf, leaf));
}

TEST(Merkle, OutOfRangeProofThrows) {
  MerkleTree tree({toBytes("a")});
  EXPECT_THROW(tree.prove(1), util::DosnError);
}

class MerkleParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleParam, AllProofsVerifyAtSize) {
  const std::size_t n = GetParam();
  std::vector<Bytes> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(toBytes("item-" + std::to_string(i)));
  }
  MerkleTree tree(leaves);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(merkleVerify(tree.root(), leaves[i], tree.prove(i)))
        << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleParam,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 15, 16, 33));

}  // namespace
}  // namespace dosn::crypto
