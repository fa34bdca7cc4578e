#include "dosn/util/codec.hpp"

#include <algorithm>

namespace dosn::util {

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::bytes(BytesView data) {
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void Writer::str(std::string_view text) {
  u32(static_cast<std::uint32_t>(text.size()));
  buf_.insert(buf_.end(), text.begin(), text.end());
}

void Writer::raw(BytesView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw CodecError("Reader: truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw CodecError("Reader: invalid boolean");
  return v == 1;
}

Bytes Reader::bytes() {
  const std::uint32_t n = u32();
  return raw(n);
}

BytesView Reader::bytesView() {
  const std::uint32_t n = u32();
  need(n);
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

Bytes Reader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

void Reader::rawInto(std::span<std::uint8_t> out) {
  need(out.size());
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), out.size(),
              out.begin());
  pos_ += out.size();
}

std::uint32_t Reader::count(std::size_t minItemBytes) {
  const std::uint32_t n = u32();
  if (minItemBytes != 0 && n > remaining() / minItemBytes) {
    throw CodecError("Reader: count exceeds input");
  }
  return n;
}

void Reader::expectEnd() const {
  if (!atEnd()) throw CodecError("Reader: trailing bytes");
}

}  // namespace dosn::util
