#include "dosn/crypto/poly1305.hpp"

#include <algorithm>

#include "dosn/util/error.hpp"

namespace dosn::crypto {

namespace {

std::uint32_t load32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

// 26-bit limb implementation (5 limbs represent a 130-bit accumulator).
Poly1305::Poly1305(util::BytesView key) {
  if (key.size() != kPolyKeySize) {
    throw util::CryptoError("poly1305: key must be 32 bytes");
  }
  // r is clamped per the RFC.
  r0_ = load32(&key[0]) & 0x3ffffff;
  r1_ = (load32(&key[3]) >> 2) & 0x3ffff03;
  r2_ = (load32(&key[6]) >> 4) & 0x3ffc0ff;
  r3_ = (load32(&key[9]) >> 6) & 0x3f03fff;
  r4_ = (load32(&key[12]) >> 8) & 0x00fffff;

  s1_ = r1_ * 5;
  s2_ = r2_ * 5;
  s3_ = r3_ * 5;
  s4_ = r4_ * 5;
  std::copy(key.begin() + 16, key.end(), pad_.begin());
}

void Poly1305::block(const std::uint8_t* data, std::uint32_t hibit) {
  std::uint32_t h0 = h0_, h1 = h1_, h2 = h2_, h3 = h3_, h4 = h4_;
  h0 += load32(data) & 0x3ffffff;
  h1 += (load32(data + 3) >> 2) & 0x3ffffff;
  h2 += (load32(data + 6) >> 4) & 0x3ffffff;
  h3 += (load32(data + 9) >> 6) & 0x3ffffff;
  h4 += (load32(data + 12) >> 8) | hibit;

  // h *= r (mod 2^130 - 5)
  const std::uint64_t d0 =
      static_cast<std::uint64_t>(h0) * r0_ + static_cast<std::uint64_t>(h1) * s4_ +
      static_cast<std::uint64_t>(h2) * s3_ + static_cast<std::uint64_t>(h3) * s2_ +
      static_cast<std::uint64_t>(h4) * s1_;
  std::uint64_t d1 =
      static_cast<std::uint64_t>(h0) * r1_ + static_cast<std::uint64_t>(h1) * r0_ +
      static_cast<std::uint64_t>(h2) * s4_ + static_cast<std::uint64_t>(h3) * s3_ +
      static_cast<std::uint64_t>(h4) * s2_;
  std::uint64_t d2 =
      static_cast<std::uint64_t>(h0) * r2_ + static_cast<std::uint64_t>(h1) * r1_ +
      static_cast<std::uint64_t>(h2) * r0_ + static_cast<std::uint64_t>(h3) * s4_ +
      static_cast<std::uint64_t>(h4) * s3_;
  std::uint64_t d3 =
      static_cast<std::uint64_t>(h0) * r3_ + static_cast<std::uint64_t>(h1) * r2_ +
      static_cast<std::uint64_t>(h2) * r1_ + static_cast<std::uint64_t>(h3) * r0_ +
      static_cast<std::uint64_t>(h4) * s4_;
  std::uint64_t d4 =
      static_cast<std::uint64_t>(h0) * r4_ + static_cast<std::uint64_t>(h1) * r3_ +
      static_cast<std::uint64_t>(h2) * r2_ + static_cast<std::uint64_t>(h3) * r1_ +
      static_cast<std::uint64_t>(h4) * r0_;

  std::uint64_t carry = d0 >> 26;
  h0 = static_cast<std::uint32_t>(d0) & 0x3ffffff;
  d1 += carry;
  carry = d1 >> 26;
  h1 = static_cast<std::uint32_t>(d1) & 0x3ffffff;
  d2 += carry;
  carry = d2 >> 26;
  h2 = static_cast<std::uint32_t>(d2) & 0x3ffffff;
  d3 += carry;
  carry = d3 >> 26;
  h3 = static_cast<std::uint32_t>(d3) & 0x3ffffff;
  d4 += carry;
  carry = d4 >> 26;
  h4 = static_cast<std::uint32_t>(d4) & 0x3ffffff;
  h0 += static_cast<std::uint32_t>(carry) * 5;
  h1 += h0 >> 26;
  h0 &= 0x3ffffff;
  h0_ = h0;
  h1_ = h1;
  h2_ = h2;
  h3_ = h3;
  h4_ = h4;
}

Poly1305& Poly1305::update(util::BytesView data) {
  std::size_t offset = 0;
  if (bufferLen_ > 0) {
    const std::size_t take = std::min(data.size(), 16 - bufferLen_);
    std::copy_n(data.begin(), take, buffer_.begin() + bufferLen_);
    bufferLen_ += take;
    offset = take;
    if (bufferLen_ < 16) return *this;
    block(buffer_.data(), 1u << 24);
    bufferLen_ = 0;
  }
  for (; offset + 16 <= data.size(); offset += 16) {
    block(data.data() + offset, 1u << 24);
  }
  bufferLen_ = data.size() - offset;
  std::copy_n(data.begin() + offset, bufferLen_, buffer_.begin());
  return *this;
}

PolyTag Poly1305::finish() {
  if (bufferLen_ > 0) {
    // The final partial block: its bytes, then a 1, then zeros.
    std::array<std::uint8_t, 16> last{};
    std::copy_n(buffer_.begin(), bufferLen_, last.begin());
    last[bufferLen_] = 1;
    block(last.data(), 0);
    bufferLen_ = 0;
  }
  std::uint32_t h0 = h0_, h1 = h1_, h2 = h2_, h3 = h3_, h4 = h4_;

  // Full carry propagation.
  std::uint32_t carry = h1 >> 26;
  h1 &= 0x3ffffff;
  h2 += carry;
  carry = h2 >> 26;
  h2 &= 0x3ffffff;
  h3 += carry;
  carry = h3 >> 26;
  h3 &= 0x3ffffff;
  h4 += carry;
  carry = h4 >> 26;
  h4 &= 0x3ffffff;
  h0 += carry * 5;
  carry = h0 >> 26;
  h0 &= 0x3ffffff;
  h1 += carry;

  // Compute h + -p to select h mod p.
  std::uint32_t g0 = h0 + 5;
  carry = g0 >> 26;
  g0 &= 0x3ffffff;
  std::uint32_t g1 = h1 + carry;
  carry = g1 >> 26;
  g1 &= 0x3ffffff;
  std::uint32_t g2 = h2 + carry;
  carry = g2 >> 26;
  g2 &= 0x3ffffff;
  std::uint32_t g3 = h3 + carry;
  carry = g3 >> 26;
  g3 &= 0x3ffffff;
  std::uint32_t g4 = h4 + carry - (1u << 26);

  const std::uint32_t mask = (g4 >> 31) - 1;  // all-ones if h >= p
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);
  h3 = (h3 & ~mask) | (g3 & mask);
  h4 = (h4 & ~mask) | (g4 & mask);

  // Serialize h as 128 bits and add s (second half of the key).
  std::uint64_t f0 = (static_cast<std::uint64_t>(h0) |
                      (static_cast<std::uint64_t>(h1) << 26)) & 0xffffffff;
  std::uint64_t f1 = ((static_cast<std::uint64_t>(h1) >> 6) |
                      (static_cast<std::uint64_t>(h2) << 20)) & 0xffffffff;
  std::uint64_t f2 = ((static_cast<std::uint64_t>(h2) >> 12) |
                      (static_cast<std::uint64_t>(h3) << 14)) & 0xffffffff;
  std::uint64_t f3 = ((static_cast<std::uint64_t>(h3) >> 18) |
                      (static_cast<std::uint64_t>(h4) << 8)) & 0xffffffff;

  f0 += load32(pad_.data());
  f1 += load32(pad_.data() + 4) + (f0 >> 32);
  f2 += load32(pad_.data() + 8) + (f1 >> 32);
  f3 += load32(pad_.data() + 12) + (f2 >> 32);

  PolyTag tag{};
  const std::array<std::uint64_t, 4> fs = {f0, f1, f2, f3};
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t b = 0; b < 4; ++b) {
      tag[4 * w + b] = static_cast<std::uint8_t>(fs[w] >> (8 * b));
    }
  }
  return tag;
}

PolyTag poly1305(util::BytesView key, util::BytesView message) {
  return Poly1305(key).update(message).finish();
}

}  // namespace dosn::crypto
