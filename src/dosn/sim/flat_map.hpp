// Open-addressing hash tables keyed by NodeAddr (DESIGN.md §3d). The sim's
// per-node / per-peer lookups (fault islands, RTT state, overlay link state)
// sat on std::map — every hit a pointer chase per tree level. At 100k–1M
// nodes those lookups dominate; AddrMap replaces them with one splitmix64
// hash and a short linear probe over a flat slot array.
//
// Design points:
//  - kNoAddr (~0) is the reserved empty-slot marker; it is already the
//    sentinel "no such node" address everywhere in the sim, so no legal key
//    collides with it.
//  - Deletion is backward-shift (no tombstones): probe chains stay compact,
//    so load factor and probe length never degrade with erase-heavy churn.
//  - Iteration order is the probe-table order, i.e. NOT deterministic across
//    table sizes. Anything feeding user-visible output must sort first
//    (see sortedKeys()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <algorithm>
#include <utility>
#include <vector>

namespace dosn::sim {

namespace detail {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace detail

/// Open-addressing map from NodeAddr to V. The reserved key ~0 (kNoAddr)
/// cannot be stored.
template <class V>
class AddrMap {
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

 public:
  AddrMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    size_ = 0;
    mask_ = 0;
  }

  /// Pointer to the value for `key`, or nullptr if absent.
  V* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = detail::splitmix64(key) & mask_;;
         i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmpty) return nullptr;
    }
  }
  const V* find(std::uint64_t key) const {
    return const_cast<AddrMap*>(this)->find(key);
  }
  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// The value for `key`, default-constructed and inserted if absent. One
  /// probe, and the table grows only when a key is inserted.
  V& operator[](std::uint64_t key) {
    if (!slots_.empty()) {
      for (std::size_t i = detail::splitmix64(key) & mask_;;
           i = (i + 1) & mask_) {
        Slot& s = slots_[i];
        if (s.key == key) return s.value;
        if (s.key == kEmpty) {
          if (!full()) return claim(s, key);
          break;
        }
      }
    }
    grow();
    for (std::size_t i = detail::splitmix64(key) & mask_;;
         i = (i + 1) & mask_) {
      if (slots_[i].key == kEmpty) return claim(slots_[i], key);
    }
  }

  /// Removes `key` if present; returns whether it was.
  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    std::size_t i = detail::splitmix64(key) & mask_;
    for (;; i = (i + 1) & mask_) {
      if (slots_[i].key == key) break;
      if (slots_[i].key == kEmpty) return false;
    }
    // Backward-shift: pull each displaced follower of the probe chain into
    // the hole so no tombstone is needed.
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
      if (slots_[j].key == kEmpty) break;
      const std::size_t home = detail::splitmix64(slots_[j].key) & mask_;
      // Move j into the hole unless j still sits between its home slot and
      // the hole (cyclic comparison — the standard Robin-Hood test).
      const bool between = ((j - home) & mask_) < ((j - hole) & mask_);
      if (!between) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].key = kEmpty;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

  /// Visits every (key, value) pair in table order (not sorted).
  template <class F>
  void forEach(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) f(s.key, s.value);
    }
  }
  template <class F>
  void forEach(F&& f) {
    for (Slot& s : slots_) {
      if (s.key != kEmpty) f(s.key, s.value);
    }
  }

  /// All keys, ascending — for deterministic output paths.
  std::vector<std::uint64_t> sortedKeys() const {
    std::vector<std::uint64_t> keys;
    keys.reserve(size_);
    forEach([&](std::uint64_t k, const V&) { keys.push_back(k); });
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    V value{};
  };

  // Grow at 70% load: one more key would pass it.
  bool full() const { return (size_ + 1) * 10 > slots_.size() * 7; }

  V& claim(Slot& s, std::uint64_t key) {
    s.key = key;
    s.value = V{};
    ++size_;
    return s.value;
  }

  void grow() {
    if (slots_.empty()) {
      slots_.resize(16);
      mask_ = 15;
      return;
    }
    // Rehash by draining into a doubled table.
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (Slot& s : old) {
      if (s.key == kEmpty) continue;
      for (std::size_t i = detail::splitmix64(s.key) & mask_;;
           i = (i + 1) & mask_) {
        if (slots_[i].key == kEmpty) {
          slots_[i] = std::move(s);
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// Open-addressing set of NodeAddr — AddrMap's membership-only sibling.
class AddrSet {
 public:
  AddrSet() = default;
  AddrSet(std::initializer_list<std::uint64_t> keys) {
    for (const std::uint64_t k : keys) insert(k);
  }
  template <class Iter>
  AddrSet(Iter first, Iter last) {
    for (; first != last; ++first) insert(*first);
  }

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  bool contains(std::uint64_t key) const { return map_.contains(key); }
  /// std::set-compatible spelling (0 or 1).
  std::size_t count(std::uint64_t key) const { return contains(key) ? 1 : 0; }
  void insert(std::uint64_t key) { map_[key] = Unit{}; }
  bool erase(std::uint64_t key) { return map_.erase(key); }
  void clear() { map_.clear(); }
  std::vector<std::uint64_t> sortedKeys() const { return map_.sortedKeys(); }

 private:
  struct Unit {};
  AddrMap<Unit> map_;
};

}  // namespace dosn::sim
