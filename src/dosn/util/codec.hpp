// Length-checked binary serialization used for every wire/storage format in
// the library: envelopes, overlay messages, signed posts, proofs.
//
// Format: little-endian fixed-width integers; byte strings and text are
// length-prefixed with a u32. Reader throws CodecError on truncation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "dosn/util/bytes.hpp"
#include "dosn/util/error.hpp"

namespace dosn::util {

class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
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
  std::string str();
  /// Reads exactly n raw bytes.
  Bytes raw(std::size_t n);
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
