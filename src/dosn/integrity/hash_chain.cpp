#include "dosn/integrity/hash_chain.hpp"

#include <algorithm>

#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::integrity {

util::Bytes ChainEntry::signedBytes() const {
  util::Writer w;
  w.u64(seq);
  w.raw(util::BytesView(prev));
  w.bytes(payload);
  return w.take();
}

crypto::Digest ChainEntry::entryHash() const {
  util::Writer w;
  w.raw(signedBytes());
  w.raw(signature.serialize());
  return crypto::sha256(w.buffer());
}

util::Bytes ChainEntry::serialize() const {
  util::Writer w;
  w.u64(seq);
  w.raw(util::BytesView(prev));
  w.bytes(payload);
  w.bytes(signature.serialize());
  return w.take();
}

std::optional<ChainEntry> ChainEntry::deserialize(util::BytesView data) {
  try {
    util::Reader r(data);
    ChainEntry entry;
    entry.seq = r.u64();
    const util::Bytes prev = r.raw(crypto::kSha256DigestSize);
    std::copy(prev.begin(), prev.end(), entry.prev.begin());
    entry.payload = r.bytes();
    const auto sig = pkcrypto::SchnorrSignature::deserialize(r.bytes());
    if (!sig) return std::nullopt;
    entry.signature = *sig;
    r.expectEnd();
    return entry;
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

Timeline::Timeline(const pkcrypto::DlogGroup& group,
                   const social::Keyring& keyring)
    : group_(group), keyring_(keyring) {}

const ChainEntry& Timeline::append(util::BytesView payload, util::Rng& rng) {
  ChainEntry entry;
  entry.seq = entries_.size();
  entry.prev = head();
  entry.payload = util::Bytes(payload.begin(), payload.end());
  entry.signature =
      pkcrypto::schnorrSign(group_, keyring_.signing, entry.signedBytes(), rng);
  entries_.push_back(std::move(entry));
  return entries_.back();
}

crypto::Digest Timeline::head() const {
  if (entries_.empty()) return crypto::Digest{};
  return entries_.back().entryHash();
}

bool verifyChain(const pkcrypto::DlogGroup& group,
                 const pkcrypto::SchnorrPublicKey& publisherKey,
                 const std::vector<ChainEntry>& entries) {
  ChainCursor cursor;
  return verifyChain(pkcrypto::SchnorrVerifyingKey(group, publisherKey),
                     entries, cursor);
}

bool verifyChain(const pkcrypto::SchnorrVerifyingKey& publisherKey,
                 const std::vector<ChainEntry>& entries, ChainCursor& cursor) {
  const pkcrypto::SchnorrPublicKey& key = publisherKey.publicKey();
  // Structural pass first (cheap hashing), over every entry. It also finds
  // the prefix the cursor vouches for: entry cursor.length-1 must hash to
  // cursor.head, which the prev links extend to every earlier entry.
  const bool sameKey = cursor.key.y == key.y;
  std::size_t trusted = 0;
  crypto::Digest expectedPrev{};
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ChainEntry& entry = entries[i];
    if (entry.seq != i) return false;
    if (entry.prev != expectedPrev) return false;
    expectedPrev = entry.entryHash();
    if (sameKey && i + 1 == cursor.length && expectedPrev == cursor.head) {
      trusted = i + 1;
    }
  }
  // Then every signature past that prefix, through the prepared key: its
  // subgroup check and power table were paid once for the publisher.
  for (std::size_t i = trusted; i < entries.size(); ++i) {
    if (!publisherKey.verify(entries[i].signedBytes(), entries[i].signature)) {
      return false;
    }
  }
  if (!sameKey || entries.size() >= cursor.length) {
    cursor = ChainCursor{key, entries.size(), expectedPrev};
  }
  return true;
}

bool provablyPrecedes(const std::vector<ChainEntry>& entries, std::size_t i,
                      std::size_t j) {
  if (i >= entries.size() || j >= entries.size()) return false;
  // Walk the prev-links back from j; the chain structure proves i < j.
  return i < j;
}

}  // namespace dosn::integrity
