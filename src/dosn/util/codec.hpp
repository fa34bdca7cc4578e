// Length-checked binary serialization used for every wire/storage format in
// the library: envelopes, overlay messages, signed posts, proofs.
//
// Format: little-endian fixed-width integers; byte strings and text are
// length-prefixed with a u32. Reader throws CodecError on truncation.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "dosn/util/bytes.hpp"
#include "dosn/util/error.hpp"

namespace dosn::util {

/// Writer's integer encodings as fixed arrays (little-endian), for code that
/// streams an encoding into a hash instead of assembling it in a Writer.
template <std::size_t N>
std::array<std::uint8_t, N> littleEndian(std::uint64_t v) {
  std::array<std::uint8_t, N> le{};
  for (std::size_t i = 0; i < N; ++i) {
    le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return le;
}
inline std::array<std::uint8_t, 4> encodeU32(std::uint32_t v) {
  return littleEndian<4>(v);
}
inline std::array<std::uint8_t, 8> encodeU64(std::uint64_t v) {
  return littleEndian<8>(v);
}

class Writer {
 public:
  /// Starts with room for a small frame (an id, a header, a short reply), so
  /// those take one allocation; callers that know a frame's size reserve it.
  Writer() { buf_.reserve(kInitialCapacity); }
  /// Starts with room for exactly `capacity` bytes, for a frame whose size
  /// the caller knows up front.
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append(littleEndian<2>(v)); }
  void u32(std::uint32_t v) { append(littleEndian<4>(v)); }
  void u64(std::uint64_t v) { append(littleEndian<8>(v)); }
  void boolean(bool v);
  /// Length-prefixed byte string.
  void bytes(BytesView data);
  /// Length-prefixed UTF-8 text.
  void str(std::string_view text);
  /// Raw bytes with no length prefix (fixed-size fields).
  void raw(BytesView data);

  const Bytes& buffer() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  static constexpr std::size_t kInitialCapacity = 64;

  // An encoded integer, appended in one insert.
  template <std::size_t N>
  void append(const std::array<std::uint8_t, N>& le) {
    buf_.insert(buf_.end(), le.begin(), le.end());
  }

  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  bool boolean();
  Bytes bytes();
  /// A length-prefixed byte string as a view into the input, for callers
  /// that only hash, compare or re-parse it; valid while the input is.
  /// Throws CodecError where bytes() does.
  BytesView bytesView();
  std::string str();
  /// Reads exactly n raw bytes.
  Bytes raw(std::size_t n);
  /// Reads exactly out.size() raw bytes into `out` (fixed-size fields: ids,
  /// digests).
  void rawInto(std::span<std::uint8_t> out);
  /// Reads a u32 item count and throws CodecError if the rest of the input
  /// cannot hold that many items of at least minItemBytes each, so a caller
  /// may reserve the count before decoding the items.
  std::uint32_t count(std::size_t minItemBytes);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool atEnd() const { return remaining() == 0; }
  /// Throws CodecError unless the whole input was consumed.
  void expectEnd() const;

 private:
  void need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace dosn::util
