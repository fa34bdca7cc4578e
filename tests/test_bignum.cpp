// Unit + property tests for dosn/bignum: arithmetic identities, Knuth
// division, known answers pinned from Python's int, modular math, primality.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "dosn/bignum/biguint.hpp"
#include "dosn/bignum/modmath.hpp"
#include "dosn/bignum/prime.hpp"
#include "dosn/util/error.hpp"

namespace dosn::bignum {
namespace {

TEST(BigUint, ConstructionAndU64) {
  EXPECT_TRUE(BigUint{}.isZero());
  EXPECT_TRUE(BigUint(0).isZero());
  EXPECT_EQ(BigUint(1).toUint64(), 1u);
  EXPECT_EQ(BigUint(0xffffffffffffffffull).toUint64(), 0xffffffffffffffffull);
}

TEST(BigUint, HexRoundTrip) {
  const auto v = BigUint::fromHex("deadbeef00112233445566778899aabb");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->toHex(), "deadbeef00112233445566778899aabb");
  EXPECT_EQ(BigUint(0).toHex(), "0");
  EXPECT_FALSE(BigUint::fromHex("xyz").has_value());
  EXPECT_FALSE(BigUint::fromHex("").has_value());
}

TEST(BigUint, DecimalRoundTrip) {
  const auto v = BigUint::fromDecimal("123456789012345678901234567890");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->toDecimal(), "123456789012345678901234567890");
  EXPECT_EQ(BigUint(0).toDecimal(), "0");
  EXPECT_FALSE(BigUint::fromDecimal("12a").has_value());
}

TEST(BigUint, BytesRoundTrip) {
  util::Rng rng(3);
  for (std::size_t len : {1u, 7u, 16u, 33u}) {
    util::Bytes data = rng.bytes(len);
    data[0] |= 1;  // avoid leading zero ambiguity
    const BigUint v = BigUint::fromBytes(data);
    EXPECT_EQ(v.toBytes(), data);
  }
  EXPECT_EQ(BigUint(0x1234).toBytesPadded(4), (util::Bytes{0, 0, 0x12, 0x34}));
  EXPECT_THROW(BigUint(0x123456).toBytesPadded(2), util::DosnError);
}

// The shift-and-add import fromBytes used to run (quadratic: one allocating
// shift and add per byte), kept as the oracle for the limb-filling one.
BigUint fromBytesShiftAdd(util::BytesView data) {
  BigUint out;
  for (std::uint8_t b : data) out = (out << 8) + BigUint(b);
  return out;
}

TEST(BigUint, FromBytesMatchesShiftAddOracle) {
  util::Rng rng(11);
  const auto expectSame = [](const util::Bytes& data) {
    const BigUint fast = BigUint::fromBytes(data);
    const BigUint oracle = fromBytesShiftAdd(data);
    // == also compares limb counts, so an untrimmed zero limb fails here.
    EXPECT_TRUE(fast == oracle)
        << data.size() << " bytes: " << fast.toHex() << " vs " << oracle.toHex();
    EXPECT_EQ(fast.bitLength(), oracle.bitLength());
  };
  for (std::size_t len = 0; len <= 80; ++len) {
    const util::Bytes data = rng.bytes(len);
    expectSame(data);
    for (std::size_t zeros : {1u, 3u, 4u, 5u, 9u}) {
      util::Bytes padded(zeros, 0);
      padded.insert(padded.end(), data.begin(), data.end());
      expectSame(padded);
    }
    expectSame(util::Bytes(len, 0));
    EXPECT_TRUE(BigUint::fromBytes(util::Bytes(len, 0)).isZero());
  }
}

TEST(BigUint, Comparison) {
  EXPECT_LT(BigUint(1), BigUint(2));
  EXPECT_GT(BigUint(1) << 64, BigUint(0xffffffffffffffffull));
  EXPECT_EQ(BigUint(5), BigUint(5));
}

TEST(BigUint, AddSub) {
  const BigUint a = *BigUint::fromHex("ffffffffffffffffffffffffffffffff");
  const BigUint one(1);
  const BigUint sum = a + one;
  EXPECT_EQ(sum.toHex(), "100000000000000000000000000000000");
  EXPECT_EQ(sum - one, a);
  EXPECT_THROW(one - sum, util::DosnError);
}

TEST(BigUint, MulKnownValue) {
  const BigUint a = *BigUint::fromDecimal("12345678901234567890");
  const BigUint b = *BigUint::fromDecimal("98765432109876543210");
  EXPECT_EQ((a * b).toDecimal(), "1219326311370217952237463801111263526900");
}

TEST(BigUint, Shifts) {
  const BigUint v(0x1234);
  EXPECT_EQ((v << 4).toUint64(), 0x12340u);
  EXPECT_EQ((v >> 4).toUint64(), 0x123u);
  EXPECT_EQ((v << 100) >> 100, v);
  EXPECT_TRUE((v >> 64).isZero());
}

TEST(BigUint, BitAccess) {
  const BigUint v(0b1010);
  EXPECT_FALSE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(100));
  EXPECT_EQ(v.bitLength(), 4u);
  EXPECT_EQ(BigUint(0).bitLength(), 0u);
  EXPECT_EQ((BigUint(1) << 255).bitLength(), 256u);
}

TEST(BigUint, DivModSmall) {
  const auto [q, r] = BigUint(100).divmod(BigUint(7));
  EXPECT_EQ(q.toUint64(), 14u);
  EXPECT_EQ(r.toUint64(), 2u);
  EXPECT_THROW(BigUint(1).divmod(BigUint(0)), util::DosnError);
}

TEST(BigUint, DivModDividendSmaller) {
  const auto [q, r] = BigUint(5).divmod(BigUint(100));
  EXPECT_TRUE(q.isZero());
  EXPECT_EQ(r.toUint64(), 5u);
}

// Property: for random a, b: a == (a/b)*b + (a%b) and a%b < b.
class DivModProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DivModProperty, Identity) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const std::size_t aBits = 8 + rng.uniform(512);
    const std::size_t bBits = 8 + rng.uniform(256);
    const BigUint a = randomBits(aBits, rng);
    const BigUint b = randomBits(bBits, rng);
    const auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DivModProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BigUint, DivisionStressKnuthAddBack) {
  // Divisors engineered to trigger the rare q-hat correction path: top limbs
  // of the form 0x80000000... with dividends just below a multiple.
  const BigUint b = (BigUint(1) << 96) - BigUint(1);
  const BigUint a = (b * BigUint(0x7fffffff)) + (b - BigUint(1));
  const auto [q, r] = a.divmod(b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);

  // The pair above was built for 32-bit limbs; this one takes the add-back
  // branch with 64-bit limbs. The divisor is normalized already (top limb
  // 2^63), and the top three dividend limbs are exactly q * (v2 * 2^64 + v1)
  // for q = 0x5a5a...5a, so the three-by-two estimate q_hat = q survives the
  // correction test; the divisor's nonzero low limb then makes q_hat * v
  // exceed the dividend by less than v. Found with a Python model of
  // divmod's loop.
  const BigUint u = *BigUint::fromHex(
      "2d2d2d2d2d2d2d2d0066cd339a0066ccd26c059f38d26c060000000000001111");
  const BigUint v =
      *BigUint::fromHex("80000000000000000123456789abcdeffedcba9876543210");
  const auto [q64, r64] = u.divmod(v);
  EXPECT_EQ(q64.toHex(), "5a5a5a5a5a5a5a59");
  EXPECT_EQ(r64.toHex(), "7fffffffffffffffa72fb840c951da632ba31a9209810981");
}

// --- known answers, independent of the limb width ---
//
// Generated once with Python's arbitrary-precision int (operands drawn from
// random.Random(2015) with the top bit forced) and pasted in. Widths straddle
// the 64-bit limb boundaries (63/64/65, 127/128/129, 1023/1024/1025 bits) and
// the Karatsuba crossover at 16 limbs: 960 bits (15 limbs) multiplies by
// schoolbook, 961 bits (16 limbs) by Karatsuba, and the two mixed-width
// products take one path each.

struct MulKat {
  std::size_t aBits;
  std::size_t bBits;
  const char* a;
  const char* b;
  const char* product;
};

// Dividends have divisorBits + 200 bits.
struct DivKat {
  std::size_t divisorBits;
  const char* dividend;
  const char* divisor;
  const char* quotient;
  const char* remainder;
};

struct ShiftKat {
  std::size_t shift;
  const char* value;
  const char* left;   // value << shift
  const char* right;  // value >> shift
};

constexpr MulKat kMulKats[] = {
    {63, 63,
     "49db2591ba0fbc6c",
     "5327d6d7a3e59936",
     "17fd8b8c6043979115af00b0f78a4ac8"},
    {64, 64,
     "8a5f722afabaf005",
     "bee00ecb217ae5e3",
     "672bf23ecfb8bef6cc4cde6393d94d6f"},
    {65, 65,
     "1bae0b151a3d78dc9",
     "1a751c0b5cc2702f7",
     "2dc56b379079726be9f8472fc89b45eef"},
    {127, 127,
     "515fd031eda1037ec43d1a266b993fd1",
     "774ab6fd98bbfb49d984a7b4b7458060",
     "25eb49a41e256dee64a197b7de2af6b545cdb017b78d36bc5868c71593b56e60"},
    {128, 128,
     "91914f300807d9c8591fa0b8bf211d90",
     "eb45cf441d8f2676833e82e0a3d85603",
     "85c815b6a9c11a4bba18cfdda7d3a884615537a465f8e08acfcd4a22fed1b8b0"},
    {129, 129,
     "1a987c3329a085d1103bf3de24b5e12d8",
     "1898169dac350578aa24e82acdd8ca711",
     "28e1888065c4a64fabd130b9fe8c5c569b15cdfcff9faf9ec0a79820825aa285"
     "8"},
    {960, 960,
     "afc42576458fd6515b4163305f59c589a7af51c227c8d75af22a90e1fcebc816"
     "10d6d7f92fb55566140629da6dfc74227a48fc3da98fc2ef1e7c164aadee3703"
     "6b3f29b71f249a0c2635bd623d5a584c03cc3447e26881664912900ea36b5771"
     "8c1213ce657c3b191eaf03086411f693e7d2a18d753bf357",
     "bbc1510a4cfc0d58db873505bce1c9060950f3361db3dee8d300ef39c824bfee"
     "697fbcb180bc11e31e3040af7aeda2ac2ab5507bad1295a706db41fc89cf3b37"
     "e08703c2c98374f8e669d4521d630300a8a0ba07031161b3fd006808a491ce75"
     "f4b05f9d712799486ab951241be36f229e805af9e604822d",
     "80e901e1c559aefd308d5d182fb5b346fb4de46d071e2b5db2896873705dbb81"
     "fa142b0eefb3509394075d1f77c3698708bc47f09bdce79b1262cfea5959b336"
     "d2aac9099ecd6b19967e56bd3bda12f7abaaa5a87e3bfcb17c29ccf2620cb6ff"
     "822a00165beb7395315151aedc6947fc14577a0bfed026a49e32b643ccf08c5f"
     "f5e8cece2a86751e174d542950b9264294c2f3af3799e15c96746eb3aa8783e7"
     "15511bfd9439557c15f330eda1799f6570a858d29174bde4ee6f948463aa58ec"
     "926118870cca01dcc05175d836f1d6cf1d70bb5899dd83f934b0dee5a602fe78"
     "b1a60e2b9454d6adcbf632950477f44b"},
    {961, 961,
     "12acede4241d75803056d0b18b868701ab2c10e807e0e92ff5b59e21658d16ed"
     "77bf8ff813b811fae3e97430562893a82fa03a4b5b8afb15cb6817a47ea5b4c8"
     "c0155001b87a36c4f64383b8eba655e33a45be254d3f5f227ccd0f89aaefa0b4"
     "7e76c72ca7a5264e7217d49bb85ca2d84c0fc76c24afc7643",
     "1cf6790b5bdde11eedc4d05222955fbadb76a941e69c982ad0df00f0a89706f6"
     "383a1f729e72c742ed08c94993d91c5f773be6b2b456d5bdd5bb0ae2fd44db97"
     "ceaeceb0f5ec86e3bd38780a6b1ab59ee86abaf8772ba470b3ce4f1a13304dfe"
     "6aa0ee1a399e9adcd356537ecad4b99160bc0804e47d0735d",
     "21ce5061dc0a34e1dc1141d0a1e0d3c70b2de3814c403a14bb51c9470c97cfbe"
     "754b0757ba7a1609d9fd6f8d41ffed9d2ed56edf4216e657522a0f07c6c4634a"
     "e62c78bcfbafad014e4d3daa9792ff5eaf4a30acae58bbdca108589fce9e760d"
     "fb70c9d06a7743a382b14d77c4e673cf57c00d68837623db61f4d3b6a72b239c"
     "e0dcac7a2cc37ec4ab84a4c49b75d22b474c96ed1b469b353abcece1f7766736"
     "23cc0f5cd1805f2eaef33215a690762673fd12ee2e98e7edb1aa9279c8e50f02"
     "66f87cde53e162d5a157e1b75ebdeb650452240e70c13a2dd8ad98d38af2927c"
     "e852bf4abee879ddc8d06e69b52470f57"},
    {1023, 1023,
     "429969febb8cf33c364c8c52876db8d374f0b3a6c5767930674935624f38b6bc"
     "00c5ae9a587b31e80476ecda33b2e59644cf806200cabc7a6218bc956d70fb5d"
     "d8cefd7c004943421e54e3e8c42abe2b86447fc5888c1038e701b283b2d32eea"
     "5b854f41a97b3fcdcf2b78a4fa35a803c80e1ac3c1c29de7b33fb1b911ea1675",
     "74af147798af87d208bf50f68f1bf51abe4419a850026de2b61cd2518716d4fb"
     "523ed1cf9aa5c8661197aa5e894583da532b5704ff8e9643ba6d7c890f0930be"
     "8cbc004bc1468e37442564bed54d15c1dbd3b63ff01511fe5b636c59be7343cd"
     "12b31b49e6eaf77389f7df30658990f7d3da77bd57e46472958ba1b41829e777",
     "1e5b1039fb6f00c5ffcc519ddf4f95ad66d3e5c1fa8f8b59fdfda76cb624655a"
     "e349840b266fa5360d9eb50cfb9e3e65d2c15ee9a153c195e554376c9cc12247"
     "90b231f4d65dc86635b891ff62b53772802ca32671812ef73b3bdd135a3753ff"
     "52bd42f2b36864a6d0f9b4d72ec78988a8a93984c505f93581511c19d0db2fa0"
     "5f3491e12f179087a90c8ea70438929cff85dea0b9238bdf04a6faa70d6f2d0c"
     "664d50bed59a6389d318a74456cae83830f3e8e3e03435cdb59313f97419cfe3"
     "5fa1974bf2160e82e43f39697ee10bb5351b36cade1570a0203b312036b83447"
     "8cf19f573c048771c8c48f30a2735024111a69622d8d2efab789cc0e1ed10363"},
    {1024, 1024,
     "ee3bea4a5ea6af1abd049a3bbf6aefb2105390ab8cec087c0fe976c8bd316b80"
     "05218ff8755bd0a1aed01c8047c3a0249a5b1319d71cd263c7e80dc554b4ccfa"
     "fa40c42dc2e8b2848c785780fd5d99de18dace254aab834264ab8dffb6858302"
     "2f064d215eea655f04e19f29ef89a0a34dfdf51d91a20919a1ba34250961b6d5",
     "eb8094db54127a6106f2a6fec29d3207c11cc99cdbe8b9d17c812f79497d65cb"
     "2b15d13d69b872b94cc82923534931fa0cc812f84119250e7709dc781aa8e41b"
     "e0cf7ed79872e21b353b76ae393952e5236dfd94c69763cf0f591e7888d07316"
     "e577eb61eb855ff2254ea0fc9fe37d00e1a6bcd853a3b4b3393ea9d20f05a6c5",
     "db28a88e29039d6627d0c507dc33011b416872b1176ef99d9f80a5d79cb6771a"
     "eddbc548628092981fff416c7fe290ca1dccdbfcb51b5158ca393a6e0e90b1ff"
     "ca14cb8a3921c0abdb1cf765e1595d8cbfea67d037de7fa554ec3abf081b4d75"
     "07b83af5d77ef9da19d41cef96efd6562b926fa31feb361fe30afde709ab63ef"
     "2b146120e8f3d05cc2289ce14ab352dc149d4e62a6865f60183e394e54805d34"
     "b5d981f91eb15997ebd8fdcbcddd8595c8f170b1827c5cab4e4f460bfed2dc0f"
     "25f2062de52e3772cac80608e919f4cb5d1672d96f8b8ca3fa58ebd287e67f23"
     "93c4d572b4d14525412817d769d1bf8635f0fe17054b8d2b4ad0a4eea1e8cfe9"},
    {1025, 1025,
     "180ce2be66e30fec61095e22bbb0646354906ad082b029a7b40aec3248b3068b"
     "6cbcdc914d2036428d0556055eef49d5a5b3266615e01d2c66ae501eccd83a13"
     "518cb1be530b04d5c926b52de5224de90c4f4268c7d2825e9b77b75296d8b898"
     "db9cc018d042f274c2868984fe1afe7bc6d3ba0a7e3009be8d169997ff92e32f"
     "1",
     "1fcdbb25b8b7a7d234695d825c9aeec022e500239f83a7b0759c282a72846409"
     "d1a76617c351f71db1c0e8889015d9c602b45c77ffb4b3605ce120119911ee9f"
     "f01f624ebc2c4774324284f62fde1d92859d2df930b05ca220dc0a2cb93877cb"
     "fa08f30b5026de9ccc9d57e03f4967df06e34272aee2045ea06e2a2a1e4b4bc6"
     "6",
     "2fce35b95c6416132f44823dca2d1307f708d8f48e45e54598086a52e7a147c9"
     "0ea3573eb8225c6fe721bf0ed1c2dbd5c76474122a33effcb8efba2e0f8043f1"
     "24447de77fdd8f7b7c34fb7b23013c2615bd1770c809d16018f3236095e5b157"
     "2989fed4894b1070f33d6fa48a496245a6a22d9a11aa38b1769b087753d3889b"
     "954c4669f931be42d730f05dde9fb63931bde08344e55e7ba59942a540a8356f"
     "ac3094795fa009df5a044b3160ea41c05f416d72db12e0f064cddbfc8d868c6c"
     "61827ef58f6214dd5b0a4ccfc477ba108f7de914d59c50f285715f0888047f93"
     "32fed635f7fd4620c976727effa47810ee74b28748c657df275c20966ab45480"
     "6"},
    {1024, 961,
     "c9687fc46708a39ff7690cc3e3076d33569548da230abe3e3ab9341f6316f69d"
     "cf0ee47d90fe70b05c88f65d7d2d9bc1e3c0f83ce150a5b45faecf4fcaddccc4"
     "26e283257ed9139d94917a4ba20f8d1538ce514da38d15dd39579aa585105719"
     "80f346578240a4f1412044c540f25e3ce5d904a97664dd1f5f4c57be2f9358ea",
     "134e97459930496f7db79c5fbab6571c2b2027b690a56deed5564c25203ba7a8"
     "c21cff453c89cbfde6c028a433c12adf1124ff6ac314ea2b4c12527bed3619c3"
     "d0c4fdf14a40925606aae63832db6c22fe8fcf4e5a8399455d697260eb6e2643"
     "b77505b8fa9c173afe456d63728e123bdad706d8b5d1826d0",
     "f309655e689c33772000111b9e1cab6226d06e05d19bd24aea78c6140bcf4d6c"
     "037efc3dd8ca3dd9817dcd650b4767cb478f41459e69640062e6f182ed53d302"
     "4e385c6071ca32d07643c7e0e4c907e5e36202c43d9900b88583d81959a66887"
     "bc196c653fbc9314453fb09cbfa026cdd8652b2857141f5aacb5590682f24caa"
     "776cdce61276517f21c06d74d26254c9b28ef70dcf4fe80055b59f862c5e8882"
     "55b2f4adca112d7483e879ab1f7e6b863134248030fc59b802d48912a03e6b5b"
     "60f746928b3b5094162bcee9d0e32d8572819a1300fe4557938cb7daf7eca569"
     "38dd2c764957cfe56f7fb7f06f1ba17fae676bc1dedafa20"},
    {960, 1025,
     "ddbd60da4173967bdfda55b24f5dda9714aed21f2f639d0a6657dc45d338ff26"
     "556c6d8116ac60f277b53c84e6306da4188e0467eb76156b27bf31ebb15e39ff"
     "4414f10e040ee291d989324afccc7c8afe3088c752d97402a872ecfa04cad475"
     "ba684d9f051f6b1931a618b66caffd53153f6dffcb90811f",
     "17be151bb28a4f138c35374d24c6fd618f3ee6b99a73ccedee127e3f1e899505"
     "d561a55ac8ef16804e0f5715bbebdb174124cfb5fc2c31a4da7a89eb5ee79ad9"
     "7f14421539bfe845ab526387886a2e61cb1b2c8596f138f95d6d5acb758f0d58"
     "f478ad95a43652774dff3c1d7177f90ed3dd7d8762b638520e0dc253ac2d74f6"
     "c",
     "1490a88a046e8e9e8a22a495d692a7aaba7f18bea09a3d508c0f7b6515a743ba"
     "8de5a8f59db927211ba640eb0773304728d91b6c2397d2b38cc56200d9f7edf4"
     "e520db399367177e2b3d17a7327c7284cc97c27887003e407b54d0d8cd26832b"
     "2477f02b18114b3166bd7b224707c2bac6749f4ba2b67353b4bb700d9689a280"
     "6a459b867bda6f0de3da6e84fc3e761b672361c48f2036b3e6799ad8ba945f40"
     "543f8cd8a004d29de66366c60b143201a518f3e2ea1e117bf75e9fde39815c9f"
     "7877726c810a34e35ffd019a1acc0880628c67c0195b61a28c87898933eaf2e9"
     "4851a9faf2ca47c085b86d785dea4f0a6dbd68bf767d80a14"},
};

constexpr DivKat kDivKats[] = {
    {63,
     "60b79f43f3055a05d067dcfc5cfd6c904a55ca710ca5b68ad122786b66464b2d"
     "77",
     "6069eb9b3a8d42bd",
     "100ce50c9e1139b54d231b347daa46d9d4ef585db059741e44f",
     "1ff4496cf8464124"},
    {64,
     "dd8174fd39abd543c58430eaa31de80425498f4c716ef588b736ee2b9aa40f04"
     "3b",
     "ac8fe97d89aa032b",
     "1489bdf8f612b87dd2cb65a16784cc4024f13ab64bdcb45e35a",
     "1ad1b65189e3c61d"},
    {65,
     "156a12f1d272aa50dcd9cac1c0735ca139d2684c5ee8ebc8e62c8e0a0893a932"
     "be5",
     "11ea3f2993731a435",
     "1320115dfd38ef554c2ea3ddc583c862c6ea12520bc76a8a10f",
     "4011bca8959d37ca"},
    {127,
     "7bd0373fab228989bc1d90d281b028b842ece0211066b3a62ff0d05286cf5887"
     "e2344d9bb5e1f9d4c0",
     "52fa88c7b45f2e5aa51330a49461565e",
     "17dfaf9f452cb3ba95cbdf98733f60e1e47ad365eb2b95feb8b",
     "4aea820fe0bbb9f951b5253efbf5a5b6"},
    {128,
     "b628a965980f4ef20388b9edb0323a0673bdac21b9d8ded5c613b5d491e3cddc"
     "6676ebb0f988e79663",
     "9b435c0c6fba4eddc0537825cdd20943",
     "12c589501ef1a8695f494270cebef7167bd666b90e7bdfc91e0",
     "83dcad2960c31ebc49ed6f44e4ec88c3"},
    {129,
     "16c4ae7788c313df0ccc6611e05ada46e36e79bdc6f0e6b388019f59782b68bd"
     "c64e44f1544185e9948",
     "1a773ac8d92465681d62cb5cce8564820",
     "dc3c26bc2e658fc208d4e500010276d2d22660a232b04155ed",
     "b120fc422b20561f54d17ae0a6b33a8"},
    {960,
     "ebe7198f78d1bb5711a09abd0a724b71262bff6413a06f0f7b68720f343dde85"
     "ffe2a3865c897acecbfa09a8a5b4b0092221b7f085d1accfe8f2498921d080c2"
     "29f38d61f0569aea9b21141ee1a214d3f162210a46dc6d09d46973f6485f2319"
     "b5dade71013444e4805e46cffba0eaab3da15d08dbba2936616f5b9e91475c1a"
     "ab2581673aab8df4dfaa37c0515499c0b8",
     "f86de3eb641663bfa137210bc72cbb1fda34c3956a4f6e3adeecf68dd669bf05"
     "0c580e11a81b417c61b5e41ea7254feb3705d20345beeaa8548e79d095e70bfe"
     "2c874ebce79848c0ffb9ab8ca2b9b6af38a74325fa541db3391dce80a58c05e9"
     "e24ac841aee750c2c5ea835935b9674b93bddd0854c5bdb5",
     "f3177c026670392092e3a401bf37ccb715cd824085ad950594",
     "9638793057e7038e8a80049cc759d9f92e9097a6aa7e2af808d799078054ced3"
     "4e3f2d70cf53550f5bb1d752389644c01742c70334298b31aef1e4f783f41931"
     "9bbf8382c54f096e3a6e381bd8078eacc8a4363a60df3e34a8744c60ff29ff0d"
     "7f50744a7c1d37085ba42b9e4a7134b882ed0684ba3a8b14"},
    {961,
     "15bd3c4de19bd8d4f72adb9a8e779f88ef4a4779b06c27650c8d1effda5caff6"
     "15f4ac3649896f4df19b98ed0be2a1ad1d3adb59919e41fd94e329d6d2b8d9d1"
     "b8b229b0ae3b1ef2b60efa534d893c49e9416bbb8f0c228751a183cde0fc386c"
     "efbbb1a0d45c20af7f58d101181fc5609510e04aeb18813cdcc9075623631f0f"
     "d617abdcfa7e09163ed4719e09fcd3c9581",
     "127acbec02978c4ef1ae1c568a6dd32bc7e9580d71b04e1e036e2b23c67ad5a6"
     "d72e6db79f17d0aba29efd9e04439115337da78b201ffa29dd7f6e23124b22c6"
     "90ebeed209cc9e6b18a4965144f56836f5a603c4766bc49dfe2b0a269c681e5e"
     "0867380e9e98947326735fc46e29fdc972a09710c3d439c2b",
     "12d27882ab5d835d686f163694427457e6bb18bf80d3c209bbe",
     "ed915c2d6002d1668dca8144cae636ed7ba683fe7d0f0c851eb3da634d06f1de"
     "6320ed7c90f42f1214f59532d33c2c0bfa458a4d216681065858cbf7e3341f07"
     "53bd176917fd5a9ab0cc2c591faac4fa1497ad587cdc0485c0f10a9027fcc687"
     "1dc3c9f5247c9174f322a8c13be6a1fa3ab07935cc20a497"},
    {1023,
     "5e0b889d97c718df10ad26c157710d5f56a89e2fa6a2a8dc73fdcebf5a5f71a7"
     "342269bab6a35ac7962ca41de42634e44c5fd72e4dc8fcc73b9e8c9efa4e8715"
     "9952ab1ab016769ea90bbedc180fce21ba1c59d585c94595adfb8a2a7de6e893"
     "db72c59fa6186baa669013c33a68049356c2fbdc6262eabe31e8c0d3131255ac"
     "7ee828fb42ac6f9ffbe77c79cf00877e35376d38372b3a0edf",
     "617d668704481e0df47fe7b27e02af20ee2943f781b5093231163749ea353b69"
     "a54f25a9a90db5d26dd080182c0882461ad507eb5da27203a1a4a6e0af4e34c0"
     "e1bfc58f1bdd149019e65990c759ef3012c33291038d92025692fecd5ea901a9"
     "b7cebb5d5c4403168c8270af2a75c9172d091a9d4ce101b3fc9d498743492e3d",
     "f6f44b0646e5aef3fcc86fb971d8f6560775881a2ed552e581",
     "53b830dd5a8a10cca38dfa95d511f5a57531fca750224ed34c8c427537f782b3"
     "3b4c39ec5a9ac36b002a3e8f89945c0a4dbb1b97472e0bab882f7e652a13b04c"
     "2fb719b880c0b1a5c8cc2074bebc82869c4a1f88c8e1c94857fcbc3b09392d29"
     "7856160bdd091b7559d6c3019046306003257f8f1d4bf32a29d539fe3c733122"},
    {1024,
     "f284e79b485df704f7e149fff646dc7bb9faecc4ca8a24862fef637316d3b984"
     "43539649bdc4f8ecb89319b8b5935eb95b9c0168caa13eaef3aebb57f67c462b"
     "e492d1ae4bec1280bd7b84663350e2cb6a61b83a63693a66108b22467ad08d04"
     "d2d8dbce1b945542a705c643d1ca5d5081ade34e3bae9d08416de5932085e5d9"
     "98960e2330c955e24e812040ebaf68cdc7dd00162606aa54e6",
     "f016a2e5f3a03e9abdf3238ab620d7655501d14e7cb05a9e96d41f280c0a75f1"
     "bd775e38b66cfd024519864c00a74f8d85c1584ebeda95479b4d21892ade131d"
     "c8168a735f2237de6ec73f16d42d4031e4feedc3e2f57e4d6d04744b7d130403"
     "bd8ee6d3f71e177b60dbc39791f95d5ece48c38b4504b11b88bc7459bff00fbf",
     "10297822cbc4b097f5e7922cbd84157c2a7f72c54ad527a001a",
     "63889da12f32830e92f3f864745b742a2f0ab78ae48f7a7019f6ffef98497561"
     "205df78bad2d352c9bb16bddb99d10fbff5d28d2954f382f16300d225d2144bc"
     "336991cebe6a093250d441b137b696e69aff4102fe933ce1c4716006668dbad3"
     "8a88378d831aa70c06c5ff3a4ff4005c8c901bf2a46b96394f629782d942bb80"},
    {1025,
     "149eafea6ef8bd2be1c2a8cc853a75852b6aa74f34c11219a859cf869b9d15e6"
     "508681350493728adaf0202343edd454dc60142ba3f20d6a082748668a6f3335"
     "40ce862a60c65a2d4240a63423025f5ea6b3a36e01c8988e26c3d25aa874b374"
     "247c86cc1054c2f93a28a53d0e046c71c34d03e38ff7207a70bfde0052c9b4b6"
     "369de745d2080060432675d7b66d106174cdafc05d4d2717d26",
     "17748bb44cdc27015069ace6bb651a5894e6a65b666fadf030583210e2e3e089"
     "cdbd0fd7bc84a952a9e9dcf77876fa1ed4a4f2989d19645331bf75bbf2819432"
     "dcac8ba0d4b45cc4efd8b94b61f04008d73f04cf515492c7d9c61176c870527f"
     "5284009c83be5e94bbf3f8eb4795b7e299cfed5bca8d2e6a864ee9e28e21efd6"
     "0",
     "e10db0ed5ad0381f0d1bf3ed01aaff27de3f82db8bb9919025",
     "10e952e134ae736bee54b2cb50552d5b5f6dee938f9da259f1c583e002ee512d"
     "1ae0ccb6a3352407467cdf3b05ffd5c9ac6f0c87f2ce91e20f17beb1f7180ae9"
     "33aa59454024dabd0690711d3717d8b3813035edb3c10ca8344bc570f2c61d8a"
     "707b608585fb3661e6de2c2c3c30adb8898b19c1311bc5c256a2fef2d210de46"},
};

constexpr ShiftKat kShiftKats[] = {
    {0,
     "2ad9ecfe505f5e63a5d335c7b99dfe1ecc30a60cb390b943",
     "2ad9ecfe505f5e63a5d335c7b99dfe1ecc30a60cb390b943",
     "2ad9ecfe505f5e63a5d335c7b99dfe1ecc30a60cb390b943"},
    {1,
     "2ad9ecfe505f5e63a5d335c7b99dfe1ecc30a60cb390b943",
     "55b3d9fca0bebcc74ba66b8f733bfc3d98614c1967217286",
     "156cf67f282faf31d2e99ae3dcceff0f6618530659c85ca1"},
    {63,
     "2ad9ecfe505f5e63a5d335c7b99dfe1ecc30a60cb390b943",
     "156cf67f282faf31d2e99ae3dcceff0f6618530659c85ca18000000000000000",
     "55b3d9fca0bebcc74ba66b8f733bfc3d"},
    {64,
     "2ad9ecfe505f5e63a5d335c7b99dfe1ecc30a60cb390b943",
     "2ad9ecfe505f5e63a5d335c7b99dfe1ecc30a60cb390b9430000000000000000",
     "2ad9ecfe505f5e63a5d335c7b99dfe1e"},
    {65,
     "2ad9ecfe505f5e63a5d335c7b99dfe1ecc30a60cb390b943",
     "55b3d9fca0bebcc74ba66b8f733bfc3d98614c19672172860000000000000000",
     "156cf67f282faf31d2e99ae3dcceff0f"},
    {0,
     "d58e4e30d081848668b7269246a1f6882a76c4ece6e1368f",
     "d58e4e30d081848668b7269246a1f6882a76c4ece6e1368f",
     "d58e4e30d081848668b7269246a1f6882a76c4ece6e1368f"},
    {1,
     "d58e4e30d081848668b7269246a1f6882a76c4ece6e1368f",
     "1ab1c9c61a103090cd16e4d248d43ed1054ed89d9cdc26d1e",
     "6ac727186840c243345b93492350fb44153b627673709b47"},
    {63,
     "d58e4e30d081848668b7269246a1f6882a76c4ece6e1368f",
     "6ac727186840c243345b93492350fb44153b627673709b478000000000000000",
     "1ab1c9c61a103090cd16e4d248d43ed10"},
    {64,
     "d58e4e30d081848668b7269246a1f6882a76c4ece6e1368f",
     "d58e4e30d081848668b7269246a1f6882a76c4ece6e1368f0000000000000000",
     "d58e4e30d081848668b7269246a1f688"},
    {65,
     "d58e4e30d081848668b7269246a1f6882a76c4ece6e1368f",
     "1ab1c9c61a103090cd16e4d248d43ed1054ed89d9cdc26d1e000000000000000"
     "0",
     "6ac727186840c243345b93492350fb44"},
};

BigUint fromKatHex(const char* hex) {
  const auto v = BigUint::fromHex(hex);
  EXPECT_TRUE(v.has_value()) << hex;
  return v.value_or(BigUint{});
}

TEST(BigUint, ProductsMatchKnownAnswers) {
  for (const MulKat& k : kMulKats) {
    const BigUint a = fromKatHex(k.a);
    const BigUint b = fromKatHex(k.b);
    EXPECT_EQ(a.bitLength(), k.aBits);
    EXPECT_EQ(b.bitLength(), k.bBits);
    EXPECT_EQ((a * b).toHex(), k.product) << k.aBits << "x" << k.bBits;
    EXPECT_EQ((b * a).toHex(), k.product) << k.aBits << "x" << k.bBits;
    EXPECT_EQ(schoolbookMul(a, b).toHex(), k.product)
        << k.aBits << "x" << k.bBits;
  }
}

TEST(BigUint, DivModMatchesKnownAnswers) {
  for (const DivKat& k : kDivKats) {
    const BigUint divisor = fromKatHex(k.divisor);
    EXPECT_EQ(divisor.bitLength(), k.divisorBits);
    const auto [q, r] = fromKatHex(k.dividend).divmod(divisor);
    EXPECT_EQ(q.toHex(), k.quotient) << k.divisorBits;
    EXPECT_EQ(r.toHex(), k.remainder) << k.divisorBits;
  }
}

TEST(BigUint, ShiftsMatchKnownAnswers) {
  for (const ShiftKat& k : kShiftKats) {
    const BigUint v = fromKatHex(k.value);
    EXPECT_EQ((v << k.shift).toHex(), k.left) << k.shift;
    EXPECT_EQ((v >> k.shift).toHex(), k.right) << k.shift;
  }
}

TEST(BigUint, HexBytesDecimalKnownAnswers) {
  for (const MulKat& k : kMulKats) {
    for (const std::string hex : {k.a, k.b, k.product}) {
      const BigUint v = fromKatHex(hex.c_str());
      EXPECT_EQ(v.toHex(), hex);
      std::string upper = hex;
      for (char& c : upper) c = static_cast<char>(std::toupper(c));
      EXPECT_EQ(BigUint::fromHex(upper), v);
      // Big-endian bytes are the hex digits themselves, one nibble of zero
      // padding for odd lengths.
      const util::Bytes bytes =
          *util::fromHex(hex.size() % 2 ? "0" + hex : hex);
      EXPECT_EQ(v.toBytes(), bytes) << hex;
      EXPECT_EQ(BigUint::fromBytes(bytes), v) << hex;
      util::Bytes padded(3, 0);
      padded.insert(padded.end(), bytes.begin(), bytes.end());
      EXPECT_EQ(v.toBytesPadded(bytes.size() + 3), padded) << hex;
      EXPECT_EQ(BigUint::fromBytes(padded), v) << hex;
    }
  }
  // Leading zero digits spanning more than two limbs.
  EXPECT_EQ(fromKatHex("0000000000000000000000000000000000001f").toHex(), "1f");
  EXPECT_EQ(fromKatHex("000000000000000000000000000000000000").toHex(), "0");

  const char* kDecimal1025 =
      "2702195114019855767917751515674336145252304184715903809889696638"
      "6163675995342800484023739835085280719019759258827866285512248063"
      "5062789021780832364984120697046778511716626154574842258232246545"
      "1299609544906559807219879842347829488891399919381489366110878546"
      "87164914773904599899860732304683108784353081580991217";
  ASSERT_EQ(kMulKats[10].aBits, 1025u);
  const BigUint v1025 = fromKatHex(kMulKats[10].a);
  EXPECT_EQ(v1025.toDecimal(), kDecimal1025);
  EXPECT_EQ(BigUint::fromDecimal(kDecimal1025), v1025);
  ASSERT_EQ(kMulKats[1].aBits, 64u);
  EXPECT_EQ(fromKatHex(kMulKats[1].a).toDecimal(), "9970813628942315525");
}

// --- modmath ---

TEST(ModMath, AddSubMulMod) {
  const BigUint m(97);
  EXPECT_EQ(addMod(BigUint(90), BigUint(10), m).toUint64(), 3u);
  EXPECT_EQ(subMod(BigUint(5), BigUint(10), m).toUint64(), 92u);
  EXPECT_EQ(mulMod(BigUint(96), BigUint(96), m).toUint64(), 1u);
}

TEST(ModMath, PowModKnownValues) {
  EXPECT_EQ(powMod(BigUint(2), BigUint(10), BigUint(1000)).toUint64(), 24u);
  EXPECT_EQ(powMod(BigUint(5), BigUint(0), BigUint(7)).toUint64(), 1u);
  EXPECT_EQ(powMod(BigUint(5), BigUint(117), BigUint(1)).toUint64(), 0u);
}

TEST(ModMath, PowModFermat) {
  // a^(p-1) = 1 mod p for prime p and a not divisible by p.
  const BigUint p(1000003);
  for (std::uint64_t a : {2ull, 3ull, 999999ull}) {
    EXPECT_EQ(powMod(BigUint(a), p - BigUint(1), p), BigUint(1)) << a;
  }
}

TEST(ModMath, PowModMatchesNaive) {
  // The u64 loop is an oracle for both powMod paths: the odd modulus takes
  // Montgomery, the even one powModSimple.
  util::Rng rng(9);
  for (const std::uint64_t modulus : {1000003ull, 1000000ull}) {
    const BigUint m(modulus);
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t base = rng.uniform(1000000) + 1;
      const std::uint64_t exp = rng.uniform(50);
      std::uint64_t expected = 1;
      for (std::uint64_t e = 0; e < exp; ++e) expected = expected * base % modulus;
      EXPECT_EQ(powMod(BigUint(base), BigUint(exp), m).toUint64(), expected)
          << base << "^" << exp << " mod " << modulus;
    }
  }
}

TEST(ModMath, Gcd) {
  EXPECT_EQ(gcd(BigUint(48), BigUint(36)).toUint64(), 12u);
  EXPECT_EQ(gcd(BigUint(17), BigUint(13)).toUint64(), 1u);
  EXPECT_EQ(gcd(BigUint(0), BigUint(5)).toUint64(), 5u);
}

TEST(ModMath, InvMod) {
  const auto inv = invMod(BigUint(3), BigUint(11));
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(inv->toUint64(), 4u);
  EXPECT_FALSE(invMod(BigUint(6), BigUint(9)).has_value());  // gcd != 1
}

TEST(ModMath, InvModProperty) {
  util::Rng rng(11);
  const BigUint p = *BigUint::fromDecimal("1000003");
  for (int i = 0; i < 50; ++i) {
    const BigUint a(rng.uniform(1000002) + 1);
    const auto inv = invMod(a, p);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(mulMod(a, *inv, p), BigUint(1));
  }
}

TEST(ModMath, InvModLarge) {
  util::Rng rng(13);
  const BigUint p = randomPrime(128, rng);
  for (int i = 0; i < 10; ++i) {
    const BigUint a = randomUnit(p, rng);
    const auto inv = invMod(a, p);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(mulMod(a, *inv, p), BigUint(1));
  }
}

TEST(ModMath, JacobiKnownValues) {
  // (a/7) for a = 0..6: residues are {1, 2, 4}.
  const int expected7[] = {0, 1, 1, -1, 1, -1, -1};
  for (std::uint64_t a = 0; a < 7; ++a) {
    EXPECT_EQ(jacobi(BigUint(a), BigUint(7)), expected7[a]) << a;
  }
  // Composite modulus: (2/15) = (2/3)(2/5) = (-1)(-1) = 1 even though 2 is
  // a non-residue mod 15 — the Jacobi symbol is only a residue test for
  // prime moduli.
  EXPECT_EQ(jacobi(BigUint(2), BigUint(15)), 1);
  EXPECT_EQ(jacobi(BigUint(5), BigUint(15)), 0);  // shared factor
  EXPECT_EQ(jacobi(BigUint(1001), BigUint(9907)), -1);  // textbook example
  EXPECT_THROW(jacobi(BigUint(3), BigUint(10)), util::DosnError);  // even n
}

TEST(ModMath, JacobiMatchesEulerCriterion) {
  // For prime p, (a/p) == 1 iff a^((p-1)/2) == 1 — differential test of the
  // binary Jacobi against the powMod reference across several prime widths.
  util::Rng rng(23);
  for (std::size_t bits : {64u, 128u, 256u}) {
    const BigUint p = randomPrime(bits, rng);
    const BigUint halfOrder = (p - BigUint(1)) >> 1;
    for (int i = 0; i < 25; ++i) {
      const BigUint a = randomUnit(p, rng);
      const BigUint euler = powMod(a, halfOrder, p);
      const int viaEuler = euler == BigUint(1) ? 1 : -1;
      EXPECT_EQ(jacobi(a, p), viaEuler) << "bits=" << bits;
    }
    EXPECT_EQ(jacobi(p, p), 0);
    EXPECT_EQ(jacobi(BigUint(0), p), 0);
    EXPECT_EQ(jacobi(BigUint(1), p), 1);
  }
}

TEST(ModMath, JacobiIsMultiplicative) {
  util::Rng rng(29);
  const BigUint n = randomPrime(96, rng);
  for (int i = 0; i < 25; ++i) {
    const BigUint a = randomBelow(n, rng);
    const BigUint b = randomBelow(n, rng);
    EXPECT_EQ(jacobi(mulMod(a, b, n), n), jacobi(a, n) * jacobi(b, n));
  }
}

TEST(ModMath, RandomBelowInRange) {
  util::Rng rng(15);
  const BigUint bound(1000);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(randomBelow(bound, rng), bound);
  }
}

TEST(ModMath, RandomBitsExactWidth) {
  util::Rng rng(17);
  for (std::size_t bits : {8u, 17u, 64u, 129u}) {
    EXPECT_EQ(randomBits(bits, rng).bitLength(), bits);
  }
}

// --- primality ---

TEST(Prime, KnownPrimes) {
  util::Rng rng(19);
  for (std::uint64_t p : {2ull, 3ull, 5ull, 101ull, 65537ull, 1000003ull,
                          2147483647ull}) {
    EXPECT_TRUE(isProbablePrime(BigUint(p), rng)) << p;
  }
}

TEST(Prime, KnownComposites) {
  util::Rng rng(21);
  for (std::uint64_t n : {1ull, 4ull, 100ull, 65539ull * 3, 561ull /*Carmichael*/,
                          1000001ull}) {
    EXPECT_FALSE(isProbablePrime(BigUint(n), rng)) << n;
  }
}

TEST(Prime, LargeCarmichaelRejected) {
  util::Rng rng(23);
  // 1729 and 294409 are Carmichael numbers.
  EXPECT_FALSE(isProbablePrime(BigUint(1729), rng));
  EXPECT_FALSE(isProbablePrime(BigUint(294409), rng));
}

TEST(Prime, RandomPrimeHasRequestedBits) {
  util::Rng rng(25);
  for (std::size_t bits : {16u, 32u, 64u, 128u}) {
    const BigUint p = randomPrime(bits, rng);
    EXPECT_EQ(p.bitLength(), bits);
    EXPECT_TRUE(isProbablePrime(p, rng));
  }
}

TEST(Prime, SafePrimeStructure) {
  util::Rng rng(27);
  const BigUint p = randomSafePrime(64, rng);
  EXPECT_TRUE(isProbablePrime(p, rng));
  const BigUint q = (p - BigUint(1)) >> 1;
  EXPECT_TRUE(isProbablePrime(q, rng));
}

TEST(Prime, RsaLikeModulusFactorsBehave) {
  util::Rng rng(29);
  const BigUint p = randomPrime(64, rng);
  const BigUint q = randomPrime(64, rng);
  const BigUint n = p * q;
  EXPECT_FALSE(isProbablePrime(n, rng));
  EXPECT_EQ(gcd(n, p), p);
}

}  // namespace
}  // namespace dosn::bignum
