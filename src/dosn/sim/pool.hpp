// Fixed-size block pool for the simulator hot path (DESIGN.md §3d), plus the
// two clients that put it on every message's critical path:
//
//  - EventClosure: the move-only type-erased closure stored in the event
//    queue. The handle is one pointer; the capture always takes one pool
//    block behind a small header (a capture larger than a block spills to
//    the heap). Every scheduled event used to cost at least one
//    std::function heap allocation; now it recycles a freed block.
//  - PooledBytes: the owning payload buffer of an in-flight sim::Message.
//    Small payloads are copied into pool blocks; oversized ones spill to a
//    regular heap buffer (util::Bytes), and buffers adopted from an rvalue
//    util::Bytes keep their storage without any copy.
//
// The pool is a free list over slab-carved blocks: allocation is a pointer
// pop, deallocation a pointer push, and slabs are only returned to the
// system on reset(). Everything is single-threaded, like the simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "dosn/util/bytes.hpp"
#include "dosn/util/error.hpp"

namespace dosn::sim {

class Pool {
 public:
  explicit Pool(std::size_t blockSize = 256, std::size_t blocksPerSlab = 1024);
  ~Pool() = default;

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Block-sized or smaller requests come from the free list (or a fresh
  /// slab); anything larger spills to ::operator new. Never returns null.
  void* allocate(std::size_t n);
  /// `n` must be the size passed to allocate() — it selects pool vs spill.
  void deallocate(void* p, std::size_t n) noexcept;

  std::size_t blockSize() const { return blockSize_; }
  std::size_t blocksPerSlab() const { return blocksPerSlab_; }

  // Observability (bench_scale reports these; tests pin reuse/spill/reset).
  std::uint64_t blockAllocs() const { return blockAllocs_; }  ///< pool-served
  std::uint64_t reuses() const { return reuses_; }  ///< served from free list
  std::uint64_t spills() const { return spills_; }  ///< oversized -> heap
  std::size_t slabCount() const { return slabs_.size(); }
  std::size_t liveBlocks() const { return liveBlocks_; }
  std::size_t liveSpills() const { return liveSpills_; }

  /// Releases every slab back to the system and clears the free list (the
  /// cumulative counters survive). Throws util::DosnError while any block
  /// or spill allocation is still outstanding.
  void reset();

 private:
  struct FreeNode {
    FreeNode* next;
  };

  std::size_t blockSize_;
  std::size_t blocksPerSlab_;
  std::vector<std::unique_ptr<unsigned char[]>> slabs_;
  FreeNode* freeList_ = nullptr;
  std::size_t slabUsed_ = 0;  // blocks carved from the newest slab

  std::uint64_t blockAllocs_ = 0;
  std::uint64_t reuses_ = 0;
  std::uint64_t spills_ = 0;
  std::size_t liveBlocks_ = 0;
  std::size_t liveSpills_ = 0;
};

/// The process-wide pool PooledBytes draws from (message payloads).
Pool& payloadPool();

/// Pool-backed owning byte buffer for in-flight message payloads. Converts
/// implicitly from/to the library-wide util::Bytes / util::BytesView so
/// handlers and tests keep reading payloads the way they always did.
///
/// Storage tiers by payload size: <= kInlineSize bytes live inline in the
/// object itself — for an in-flight message that means inside the delivery
/// closure's pool block, zero extra allocations and one contiguous cache
/// run per message; <= the pool's block size takes one payloadPool() block;
/// anything bigger spills to a regular heap buffer.
class PooledBytes {
 public:
  /// Covers control-plane frames (pings, digests, lookups); picked so the
  /// delivery closure + inline payload still fit one event-pool block.
  static constexpr std::size_t kInlineSize = 64;

  PooledBytes() = default;
  PooledBytes(util::BytesView data) { assign(data); }
  PooledBytes(const util::Bytes& data) { assign(util::BytesView(data)); }
  /// Adopts the vector's storage: no copy, no pool traffic. Copies made
  /// from this buffer later still go through the inline/pool tiers.
  PooledBytes(util::Bytes&& data) noexcept : spill_(std::move(data)) {}

  PooledBytes(const PooledBytes& other) { assign(other.view()); }
  PooledBytes(PooledBytes&& other) noexcept
      : block_(other.block_), size_(other.size_), inlined_(other.inlined_),
        spill_(std::move(other.spill_)) {
    if (inlined_) __builtin_memcpy(inline_, other.inline_, size_);
    other.block_ = nullptr;
    other.size_ = 0;
    other.inlined_ = false;
  }
  PooledBytes& operator=(const PooledBytes& other) {
    if (this != &other) {
      release();
      assign(other.view());
    }
    return *this;
  }
  PooledBytes& operator=(PooledBytes&& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      size_ = other.size_;
      inlined_ = other.inlined_;
      spill_ = std::move(other.spill_);
      if (inlined_) __builtin_memcpy(inline_, other.inline_, size_);
      other.block_ = nullptr;
      other.size_ = 0;
      other.inlined_ = false;
    }
    return *this;
  }
  ~PooledBytes() { release(); }

  const std::uint8_t* data() const {
    return inlined_ ? inline_ : block_ ? block_ : spill_.data();
  }
  std::uint8_t* data() {
    return inlined_ ? inline_ : block_ ? block_ : spill_.data();
  }
  std::size_t size() const {
    return (inlined_ || block_) ? size_ : spill_.size();
  }
  bool empty() const { return size() == 0; }
  /// True when the bytes live in a payloadPool() block (not inline/spill).
  bool pooled() const { return block_ != nullptr; }
  /// True when the bytes live inside the object itself.
  bool inlined() const { return inlined_; }

  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size(); }

  util::BytesView view() const { return {data(), size()}; }
  operator util::BytesView() const { return view(); }
  operator util::Bytes() const { return util::Bytes(begin(), end()); }

 private:
  void assign(util::BytesView data);
  void release() noexcept;

  std::uint8_t* block_ = nullptr;  // pool block when set (and not inlined_)
  std::uint32_t size_ = 0;         // payload size when inline or pooled
  bool inlined_ = false;
  util::Bytes spill_;
  std::uint8_t inline_[kInlineSize];
};

/// Move-only type-erased void() closure for simulator events. The handle is
/// ONE pointer: the capture lives in a pool block behind a small header
/// (dispatch table, owning pool, block size), so the events sifting through
/// the queue's heaps are 24-byte PODs whose moves are two stores — no inline
/// buffer to relocate, no branches. Invocation is one indirect call; the
/// block is recycled through the pool free list immediately after it runs,
/// so consecutive events reuse the same cache-hot lines.
class EventClosure {
 public:
  EventClosure() = default;

  template <class F, class Fn = std::decay_t<F>>
  EventClosure(Pool& pool, F&& fn) {
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "EventClosure: over-aligned callables are not supported");
    const std::size_t bytes = sizeof(Header) + sizeof(Fn);
    block_ = static_cast<Header*>(pool.allocate(bytes));
    // One combined entry for the hot path (invoke + destroy in a single
    // indirect call); `destroy` alone is only for dropping unrun closures.
    block_->run = [](void* p) {
      Fn* fn = static_cast<Fn*>(p);
      (*fn)();
      fn->~Fn();
    };
    block_->destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    block_->pool = &pool;
    block_->bytes = static_cast<std::uint32_t>(bytes);
    ::new (capture()) Fn(std::forward<F>(fn));
  }

  EventClosure(const EventClosure&) = delete;
  EventClosure& operator=(const EventClosure&) = delete;

  EventClosure(EventClosure&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  EventClosure& operator=(EventClosure&& other) noexcept {
    if (this != &other) {
      reset();
      block_ = other.block_;
      other.block_ = nullptr;
    }
    return *this;
  }
  ~EventClosure() { reset(); }

  /// Runs the closure, then releases its block back to the pool (the
  /// capture is single-shot, like the events it carries).
  void operator()() {
    Header* h = block_;
    block_ = nullptr;
    h->run(static_cast<void*>(h + 1));
    h->pool->deallocate(h, h->bytes);
  }
  explicit operator bool() const { return block_ != nullptr; }

  /// The closure's pool block, for best-effort prefetching by the event
  /// loop (the block was last touched when the event was scheduled, many
  /// thousands of events ago — it is essentially always cold).
  const void* block() const noexcept { return block_; }

 private:
  struct Header {
    void (*run)(void*);      // invoke + destroy the capture (hot path)
    void (*destroy)(void*);  // destroy only (closure dropped unrun)
    Pool* pool;
    std::uint32_t bytes;
  };

  void* capture() { return static_cast<void*>(block_ + 1); }

  void reset() noexcept {
    if (!block_) return;
    block_->destroy(static_cast<void*>(block_ + 1));
    block_->pool->deallocate(block_, block_->bytes);
    block_ = nullptr;
  }

  Header* block_ = nullptr;
};

}  // namespace dosn::sim
