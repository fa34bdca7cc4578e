#include "dosn/store/cache_store.hpp"

namespace dosn::store {

LruCache::LruCache(std::size_t capacityBlocks, std::size_t capacityBytes)
    : capacityBlocks_(capacityBlocks), capacityBytes_(capacityBytes) {
  if (capacityBlocks_ == 0 || capacityBytes_ == 0) {
    throw StoreError("LruCache: zero capacity");
  }
}

void LruCache::touch(Entry& entry) {
  // Relinks the entry's recency node at the front: no node is freed or
  // allocated, and the iterator stays valid.
  recency_.splice(recency_.begin(), recency_, entry.recency);
}

void LruCache::put(const BlockId& id, util::BytesView data) {
  if (data.size() > capacityBytes_) {
    erase(id);
    return;
  }
  const auto it = entries_.find(id);
  if (it != entries_.end()) {
    cachedBytes_ -= it->second.data.size();
    it->second.data.assign(data.begin(), data.end());
    cachedBytes_ += it->second.data.size();
    touch(it->second);
  } else {
    recency_.push_front(id);
    entries_.emplace(id, Entry{recency_.begin(),
                               util::Bytes(data.begin(), data.end())});
    cachedBytes_ += data.size();
  }
  evictToFit();
}

void LruCache::evictToFit() {
  while (entries_.size() > capacityBlocks_ || cachedBytes_ > capacityBytes_) {
    const BlockId victim = recency_.back();
    recency_.pop_back();
    const auto it = entries_.find(victim);
    cachedBytes_ -= it->second.data.size();
    entries_.erase(it);
    ++evictions_;
  }
}

std::optional<util::BytesView> LruCache::get(const BlockId& id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  touch(it->second);
  return util::BytesView(it->second.data);
}

void LruCache::erase(const BlockId& id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  cachedBytes_ -= it->second.data.size();
  recency_.erase(it->second.recency);
  entries_.erase(it);
}

CacheStats LruCache::cacheStats() const {
  return CacheStats{hits_, misses_, evictions_, entries_.size(), cachedBytes_};
}

std::vector<BlockId> LruCache::cachedIds() const {
  return std::vector<BlockId>(recency_.begin(), recency_.end());
}

CacheStore::CacheStore(std::unique_ptr<BlockStore> inner,
                       std::size_t capacityBlocks, std::size_t capacityBytes)
    : StoreDecorator(std::move(inner)), lru_(capacityBlocks, capacityBytes) {}

void CacheStore::put(const BlockId& id, util::BytesView data) {
  ++counters_.puts;
  counters_.putBytes += data.size();
  inner_->put(id, data);  // write-through first: inner is authoritative
  lru_.put(id, data);
}

std::optional<util::Bytes> CacheStore::get(const BlockId& id) {
  ++counters_.gets;
  if (const auto cached = lru_.get(id)) {
    ++counters_.hits;
    counters_.getBytes += cached->size();
    return util::Bytes(cached->begin(), cached->end());  // the caller owns it
  }
  auto value = inner_->get(id);
  // A miss answered below still counts as a miss for the hit-ratio metric;
  // the fetched block is promoted so repeat reads hit.
  ++counters_.misses;
  if (!value) return std::nullopt;
  counters_.getBytes += value->size();
  lru_.put(id, *value);
  return value;
}

bool CacheStore::erase(const BlockId& id) {
  lru_.erase(id);
  const bool removed = inner_->erase(id);
  if (removed) ++counters_.erases;
  return removed;
}

bool CacheStore::has(const BlockId& id) const {
  return lru_.contains(id) || inner_->has(id);
}

double CacheStore::hitRatio() const {
  const std::uint64_t total = counters_.hits + counters_.misses;
  if (total == 0) return 0.0;
  return static_cast<double>(counters_.hits) / static_cast<double>(total);
}

}  // namespace dosn::store
