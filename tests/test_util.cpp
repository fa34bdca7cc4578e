// Unit tests for dosn/util: bytes, rng, codec, strings.
#include <gtest/gtest.h>

#include <array>

#include "dosn/util/bytes.hpp"
#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"
#include "dosn/util/rng.hpp"
#include "dosn/util/strings.hpp"

namespace dosn::util {
namespace {

// --- bytes ---

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(toHex(data), "0001abff7f");
  EXPECT_EQ(fromHex("0001abff7f").value(), data);
  EXPECT_EQ(fromHex("0001ABFF7F").value(), data);
}

TEST(Bytes, HexRejectsBadInput) {
  EXPECT_FALSE(fromHex("abc").has_value());   // odd length
  EXPECT_FALSE(fromHex("zz").has_value());    // non-hex
  EXPECT_TRUE(fromHex("").has_value());       // empty is valid
  EXPECT_TRUE(fromHex("").value().empty());
}

TEST(Bytes, Base64KnownVectors) {
  // RFC 4648 test vectors.
  EXPECT_EQ(toBase64(toBytes("")), "");
  EXPECT_EQ(toBase64(toBytes("f")), "Zg==");
  EXPECT_EQ(toBase64(toBytes("fo")), "Zm8=");
  EXPECT_EQ(toBase64(toBytes("foo")), "Zm9v");
  EXPECT_EQ(toBase64(toBytes("foob")), "Zm9vYg==");
  EXPECT_EQ(toBase64(toBytes("fooba")), "Zm9vYmE=");
  EXPECT_EQ(toBase64(toBytes("foobar")), "Zm9vYmFy");
}

TEST(Bytes, Base64RoundTrip) {
  Rng rng(1);
  for (std::size_t len : {0u, 1u, 2u, 3u, 31u, 32u, 33u, 255u}) {
    const Bytes data = rng.bytes(len);
    EXPECT_EQ(fromBase64(toBase64(data)).value(), data) << "len=" << len;
  }
}

TEST(Bytes, Base64RejectsBadInput) {
  EXPECT_FALSE(fromBase64("!!!!").has_value());
  EXPECT_FALSE(fromBase64("Zg=?").has_value());
  // Non-canonical trailing bits.
  EXPECT_FALSE(fromBase64("Zh==").has_value());
}

TEST(Bytes, ConstantTimeEqual) {
  EXPECT_TRUE(constantTimeEqual(toBytes("same"), toBytes("same")));
  EXPECT_FALSE(constantTimeEqual(toBytes("same"), toBytes("sane")));
  EXPECT_FALSE(constantTimeEqual(toBytes("short"), toBytes("longer")));
  EXPECT_TRUE(constantTimeEqual({}, {}));
}

TEST(Bytes, XorAndConcat) {
  const Bytes a = {0xf0, 0x0f};
  const Bytes b = {0xff, 0xff};
  EXPECT_EQ(xorBytes(a, b), (Bytes{0x0f, 0xf0}));
  EXPECT_THROW(xorBytes(a, Bytes{0x01}), std::invalid_argument);
  EXPECT_EQ(concat(a, b), (Bytes{0xf0, 0x0f, 0xff, 0xff}));
  EXPECT_EQ(concat(a, b, a), (Bytes{0xf0, 0x0f, 0xff, 0xff, 0xf0, 0x0f}));
}

// --- rng ---

TEST(Rng, DeterministicUnderSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  EXPECT_THROW(rng.uniform(0), std::invalid_argument);
}

TEST(Rng, RangeInclusive) {
  Rng rng(7);
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    sawLo |= (v == 3);
    sawHi |= (v == 5);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniformReal();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, FillAndBytes) {
  Rng rng(13);
  const Bytes a = rng.bytes(33);
  EXPECT_EQ(a.size(), 33u);
  Rng rng2(13);
  EXPECT_EQ(rng2.bytes(33), a);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(19);
  const std::size_t n = 100;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.zipf(n, 1.0)];
  // Rank 0 must dominate rank 50 heavily under s=1.
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(Rng, ZipfZeroExponentIsUniformish) {
  Rng rng(21);
  const std::size_t n = 10;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.zipf(n, 0.0)];
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GT(counts[i], 700) << "rank " << i;
    EXPECT_LT(counts[i], 1300) << "rank " << i;
  }
}

// --- codec ---

TEST(Codec, RoundTripAllTypes) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.boolean(true);
  w.bytes(toBytes("payload"));
  w.str("text");
  w.raw(toBytes("raw"));

  Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.bytes(), toBytes("payload"));
  EXPECT_EQ(r.str(), "text");
  EXPECT_EQ(r.raw(3), toBytes("raw"));
  EXPECT_TRUE(r.atEnd());
  EXPECT_NO_THROW(r.expectEnd());
}

TEST(Codec, TruncationThrows) {
  Writer w;
  w.u32(5);
  Reader r(w.buffer());
  r.u16();
  EXPECT_THROW(r.u32(), CodecError);
}

TEST(Codec, TruncatedBytesThrows) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow
  Reader r(w.buffer());
  EXPECT_THROW(r.bytes(), CodecError);
}

TEST(Codec, CountBoundedByRemainingInput) {
  // 27 bytes follow the count: room for three 8-byte items, not four.
  const auto readCount = [](std::uint32_t count) {
    Writer w;
    w.u32(count);
    w.raw(Bytes(27, 0));
    Reader r(w.buffer());
    return r.count(8);
  };
  EXPECT_EQ(readCount(3), 3u);
  EXPECT_THROW(readCount(4), CodecError);
  EXPECT_THROW(readCount(0xffffffffu), CodecError);
  EXPECT_EQ(readCount(0), 0u);
}

TEST(Codec, InvalidBooleanThrows) {
  Writer w;
  w.u8(2);
  Reader r(w.buffer());
  EXPECT_THROW(r.boolean(), CodecError);
}

TEST(Codec, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.buffer());
  r.u8();
  EXPECT_THROW(r.expectEnd(), CodecError);
}

// The non-copying reads: bytesView() returns a view into the input and
// rawInto() fills a fixed-size array, each reading what bytes() and raw()
// read and throwing CodecError wherever they throw.
TEST(Codec, NonCopyingReadsRoundTripWithWriter) {
  const Bytes payload = toBytes("a length-prefixed field");
  std::array<std::uint8_t, 20> id{};
  for (std::size_t i = 0; i < id.size(); ++i) {
    id[i] = static_cast<std::uint8_t>(3 * i + 1);
  }
  Writer w;
  w.bytes(payload);
  w.raw(BytesView(id));
  w.bytes({});
  const Bytes encoded = w.take();

  Reader r(encoded);
  const BytesView field = r.bytesView();
  EXPECT_EQ(Bytes(field.begin(), field.end()), payload);
  EXPECT_EQ(field.data(), encoded.data() + 4);  // a view, not a copy
  std::array<std::uint8_t, 20> back{};
  r.rawInto(back);
  EXPECT_EQ(back, id);
  EXPECT_TRUE(r.bytesView().empty());
  EXPECT_NO_THROW(r.expectEnd());

  // The copying reads agree on the same input.
  Reader copying(encoded);
  EXPECT_EQ(copying.bytes(), payload);
  EXPECT_EQ(copying.raw(id.size()), Bytes(id.begin(), id.end()));
}

TEST(Codec, NonCopyingReadsThrowAtEveryTruncation) {
  Writer w;
  w.bytes(toBytes("field"));
  const std::array<std::uint8_t, 8> id = {1, 2, 3, 4, 5, 6, 7, 8};
  w.raw(BytesView(id));
  const Bytes encoded = w.take();
  const auto readAll = [](BytesView input) {
    Reader r(input);
    r.bytesView();
    std::array<std::uint8_t, 8> out{};
    r.rawInto(out);
  };
  EXPECT_NO_THROW(readAll(encoded));
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_THROW(readAll(BytesView(encoded).first(cut)), CodecError)
        << "cut=" << cut;
  }
  // A length prefix claiming more than the input holds.
  Writer liar;
  liar.u32(100);
  liar.raw(toBytes("short"));
  Reader r(liar.buffer());
  EXPECT_THROW(r.bytesView(), CodecError);
}

TEST(Codec, IntegerEncodersMatchWriter) {
  Writer w;
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  const auto u32 = encodeU32(0xdeadbeef);
  const auto u64 = encodeU64(0x0123456789abcdefull);
  Bytes expected(u32.begin(), u32.end());
  expected.insert(expected.end(), u64.begin(), u64.end());
  EXPECT_EQ(w.buffer(), expected);
}

// --- strings ---

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ToLower) { EXPECT_EQ(toLower("AbC123"), "abc123"); }

TEST(Strings, Tokenize) {
  EXPECT_EQ(tokenize("Hello, World! 42"),
            (std::vector<std::string>{"hello", "world", "42"}));
  EXPECT_EQ(tokenize("...:::"), (std::vector<std::string>{}));
}

}  // namespace
}  // namespace dosn::util
