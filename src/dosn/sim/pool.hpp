// Fixed-size block pool for the simulator hot path (DESIGN.md §3d), and its
// one client, EventClosure: the move-only type-erased closure stored in the
// event queue. The handle is one pointer; the capture always takes one pool
// block behind a small header (a capture larger than a block spills to the
// heap). Every scheduled event used to cost at least one std::function heap
// allocation; now it recycles a freed block. Message payloads do not come
// from here: they are shared buffers (sim::Payload, network.hpp).
//
// The pool is a free list over slab-carved blocks: allocation is a pointer
// pop, deallocation a pointer push, and slabs are returned to the system
// when the pool is destroyed. Everything is single-threaded, like the
// simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

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

  // Observability (tests pin reuse and spills).
  std::uint64_t blockAllocs() const { return blockAllocs_; }  ///< pool-served
  std::uint64_t reuses() const { return reuses_; }  ///< served from free list
  std::uint64_t spills() const { return spills_; }  ///< oversized -> heap
  std::size_t slabCount() const { return slabs_.size(); }
  std::size_t liveBlocks() const { return liveBlocks_; }
  std::size_t liveSpills() const { return liveSpills_; }

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
