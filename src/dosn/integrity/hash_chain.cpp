#include "dosn/integrity/hash_chain.hpp"

#include <algorithm>

#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::integrity {

namespace {

// seq || prev || payload, the fixed part of signedBytes() before payload.
constexpr std::size_t kSignedHeaderBytes = 8 + crypto::kSha256DigestSize + 4;

}  // namespace

util::Bytes ChainEntry::signedBytes() const {
  util::Writer w;
  w.reserve(kSignedHeaderBytes + payload.size());
  w.u64(seq);
  w.raw(util::BytesView(prev));
  w.bytes(payload);
  return w.take();
}

crypto::Digest ChainEntry::entryHash() const {
  // signedBytes() || signature.serialize(), streamed field by field.
  crypto::Sha256 h;
  h.update(util::encodeU64(seq));
  h.update(util::BytesView(prev));
  h.update(util::encodeU32(static_cast<std::uint32_t>(payload.size())));
  h.update(payload);
  signature.hashInto(h);
  return h.finish();
}

util::Bytes ChainEntry::serialize() const {
  const util::Bytes sig = signature.serialize();
  util::Writer w;
  w.reserve(kSignedHeaderBytes + payload.size() + 4 + sig.size());
  w.u64(seq);
  w.raw(util::BytesView(prev));
  w.bytes(payload);
  w.bytes(sig);
  return w.take();
}

std::optional<ChainEntry> ChainEntry::deserialize(util::BytesView data) {
  try {
    util::Reader r(data);
    ChainEntry entry;
    entry.seq = r.u64();
    r.rawInto(entry.prev);
    entry.payload = r.bytes();
    const auto sig = pkcrypto::SchnorrSignature::deserialize(r.bytesView());
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
  // Then every signature past that prefix, as one page through the prepared
  // key: its subgroup check and power table were paid once for the
  // publisher, and the page's powers are computed in one batch.
  std::vector<util::Bytes> messages;
  messages.reserve(entries.size() - trusted);
  std::vector<pkcrypto::SignedMessage> page;
  page.reserve(entries.size() - trusted);
  for (std::size_t i = trusted; i < entries.size(); ++i) {
    messages.push_back(entries[i].signedBytes());
    page.push_back({messages.back(), &entries[i].signature});
  }
  if (!publisherKey.verifyAll(page)) return false;
  if (!sameKey || entries.size() >= cursor.length) {
    cursor = ChainCursor{key, entries.size(), expectedPrev};
  }
  return true;
}

bool provablyPrecedes(const std::vector<ChainEntry>& entries, std::size_t i,
                      std::size_t j) {
  if (i >= entries.size() || j >= entries.size() || i >= j) return false;
  // Walk the prev links back from j to i: each entry must name the hash of
  // the one before it, so j's hash commits to i.
  for (std::size_t m = j; m > i; --m) {
    if (entries[m].prev != entries[m - 1].entryHash()) return false;
  }
  return true;
}

}  // namespace dosn::integrity
