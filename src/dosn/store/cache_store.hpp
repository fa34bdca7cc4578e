// Bounded LRU block caching.
//
// LruCache is the cache itself: capacity is bounded both in blocks and in
// bytes; whichever bound is exceeded first evicts from the least-recently-used
// end. Eviction order is fully deterministic (recency list, no hashing), which
// the eviction-order test pins. The microblog friend-cache tier uses one
// directly, so it keeps a single copy of each block.
//
// CacheStore puts an LruCache as a hot tier in front of a slower backend
// (file, crypt, async stacks). Write-through — every put lands in the inner
// store before it is cached, so the cache never holds dirtier state than the
// tier below it; get() serves hits from memory and promotes misses.
#pragma once

#include <list>
#include <map>

#include "dosn/store/block_store.hpp"

namespace dosn::store {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t cachedBlocks = 0;
  std::size_t cachedBytes = 0;
};

class LruCache {
 public:
  /// Throws StoreError if either bound is zero.
  LruCache(std::size_t capacityBlocks, std::size_t capacityBytes);

  /// Caches the block as most-recent, evicting to fit. A block larger than
  /// the byte budget is not cached (caching it would evict everything for a
  /// single entry), and any smaller value cached for its id is dropped.
  void put(const BlockId& id, util::BytesView data);
  /// The cached bytes, promoted to most-recent; nullopt on a miss. The view
  /// stays valid until the cache's next put or erase.
  std::optional<util::BytesView> get(const BlockId& id);
  /// Drops the block if cached.
  void erase(const BlockId& id);
  bool contains(const BlockId& id) const { return entries_.count(id) != 0; }

  CacheStats cacheStats() const;
  /// Cached ids, most-recently-used first (the eviction-order pin).
  std::vector<BlockId> cachedIds() const;

 private:
  struct Entry {
    std::list<BlockId>::iterator recency;
    util::Bytes data;
  };

  void touch(Entry& entry);
  void evictToFit();

  std::size_t capacityBlocks_;
  std::size_t capacityBytes_;
  std::list<BlockId> recency_;  // front = most recent, back = next victim
  std::map<BlockId, Entry> entries_;
  std::size_t cachedBytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

class CacheStore final : public StoreDecorator {
 public:
  CacheStore(std::unique_ptr<BlockStore> inner, std::size_t capacityBlocks,
             std::size_t capacityBytes);

  void put(const BlockId& id, util::BytesView data) override;
  std::optional<util::Bytes> get(const BlockId& id) override;
  bool erase(const BlockId& id) override;
  bool has(const BlockId& id) const override;
  std::string describe() const override {
    return "cache(" + inner_->describe() + ")";
  }

  CacheStats cacheStats() const { return lru_.cacheStats(); }
  double hitRatio() const;
  std::vector<BlockId> cachedIds() const { return lru_.cachedIds(); }

 private:
  LruCache lru_;
};

}  // namespace dosn::store
