#include "dosn/sim/pool.hpp"

#include <algorithm>

namespace dosn::sim {

namespace {

std::size_t roundUp(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

}  // namespace

Pool::Pool(std::size_t blockSize, std::size_t blocksPerSlab)
    : blockSize_(roundUp(std::max(blockSize, sizeof(FreeNode)),
                         alignof(std::max_align_t))),
      blocksPerSlab_(std::max<std::size_t>(blocksPerSlab, 1)) {}

void* Pool::allocate(std::size_t n) {
  if (n > blockSize_) {
    ++spills_;
    ++liveSpills_;
    return ::operator new(n);
  }
  ++blockAllocs_;
  ++liveBlocks_;
  if (freeList_) {
    ++reuses_;
    FreeNode* node = freeList_;
    freeList_ = node->next;
    return node;
  }
  if (slabs_.empty() || slabUsed_ == blocksPerSlab_) {
    // new unsigned char[] is aligned for any type without extended
    // alignment, and blockSize_ is a multiple of alignof(max_align_t), so
    // every carved block keeps that alignment.
    slabs_.push_back(
        std::make_unique<unsigned char[]>(blockSize_ * blocksPerSlab_));
    slabUsed_ = 0;
  }
  return slabs_.back().get() + blockSize_ * slabUsed_++;
}

void Pool::deallocate(void* p, std::size_t n) noexcept {
  if (!p) return;
  if (n > blockSize_) {
    --liveSpills_;
    ::operator delete(p);
    return;
  }
  --liveBlocks_;
  FreeNode* node = static_cast<FreeNode*>(p);
  node->next = freeList_;
  freeList_ = node;
}

}  // namespace dosn::sim
