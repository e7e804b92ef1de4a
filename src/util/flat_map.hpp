// Open-addressing hash maps specialized for the hot paths of the library.
//
// FlatMap32 maps uint32 keys to a small trivially copyable payload with
// linear probing, power-of-two capacity and backward-shift deletion.
// Compared to std::unordered_map it avoids per-node allocations, which
// dominate the root adjacency of the merge phase under heavy merge churn.
// (A summary's superedges live in util/signed_edge_list.hpp instead: a map
// never shrinks, so scans would probe the slots its moved edges left.)
#ifndef SLUGGER_UTIL_FLAT_MAP_HPP_
#define SLUGGER_UTIL_FLAT_MAP_HPP_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/random.hpp"

namespace slugger {

/// Open-addressing map from uint32 keys to V (a trivially copyable value).
/// The key 0xFFFFFFFF is reserved as the empty sentinel.
template <typename V>
class FlatMap32 {
 public:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  struct Slot {
    uint32_t key;
    V value;
  };

  FlatMap32() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    mask_ = 0;
    size_ = 0;
  }

  /// Empties the map but keeps its capacity (no deallocation); preferred
  /// for maps that are refilled every round.
  void SoftClear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) s.key = kEmpty;
    size_ = 0;
  }

  /// Allocates, once, the capacity that n inserts into an empty map would
  /// grow it to; a map that already holds that much is left as it is.
  void Reserve(size_t n) {
    size_t cap = 8;
    while (n * 4 > cap * 3) cap *= 2;
    if (n != 0 && cap > capacity()) Rehash(cap);
  }

  /// Inserts or overwrites; returns true if the key was newly inserted.
  bool Put(uint32_t key, V value) {
    assert(key != kEmpty);
    if (slots_.empty() || (size_ + 1) * 4 > capacity() * 3) Grow();
    size_t i = IndexFor(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == kEmpty) {
        s.key = key;
        s.value = value;
        ++size_;
        return true;
      }
      if (s.key == key) {
        s.value = value;
        return false;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Returns a pointer to the value for `key`, or nullptr if absent.
  V* Find(uint32_t key) {
    if (slots_.empty()) return nullptr;
    size_t i = IndexFor(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == kEmpty) return nullptr;
      if (s.key == key) return &s.value;
      i = (i + 1) & mask_;
    }
  }
  const V* Find(uint32_t key) const {
    return const_cast<FlatMap32*>(this)->Find(key);
  }

  bool Contains(uint32_t key) const { return Find(key) != nullptr; }

  /// Returns the value for `key`, inserting `def` first if absent.
  V& GetOrInsert(uint32_t key, V def) {
    assert(key != kEmpty);
    if (slots_.empty() || (size_ + 1) * 4 > capacity() * 3) Grow();
    size_t i = IndexFor(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == kEmpty) {
        s.key = key;
        s.value = def;
        ++size_;
        return s.value;
      }
      if (s.key == key) return s.value;
      i = (i + 1) & mask_;
    }
  }

  /// Removes `key`; returns true if it was present. Uses backward-shift
  /// deletion so probe sequences stay contiguous (no tombstones).
  bool Erase(uint32_t key) {
    if (slots_.empty()) return false;
    size_t i = IndexFor(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == kEmpty) return false;
      if (s.key == key) break;
      i = (i + 1) & mask_;
    }
    // Backward-shift: close the hole by moving displaced entries up.
    size_t hole = i;
    size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      Slot& cand = slots_[j];
      if (cand.key == kEmpty) break;
      size_t home = IndexFor(cand.key);
      // cand may move into the hole if its home position does not lie
      // (cyclically) strictly after the hole on the probe path to j.
      bool reachable;
      if (j > hole) {
        reachable = home <= hole || home > j;
      } else {  // wrapped
        reachable = home <= hole && home > j;
      }
      if (reachable) {
        slots_[hole] = cand;
        hole = j;
      }
    }
    slots_[hole].key = kEmpty;
    --size_;
    return true;
  }

  /// Invokes fn(key, value) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) fn(s.key, s.value);
    }
  }

  /// Invokes fn(key, value&) for every entry; values may be mutated.
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.key != kEmpty) fn(s.key, s.value);
    }
  }

  size_t capacity() const { return slots_.size(); }

 private:
  size_t IndexFor(uint32_t key) const {
    return static_cast<size_t>(Mix64(key)) & mask_;
  }

  void Grow() { Rehash(slots_.empty() ? 8 : slots_.size() * 2); }

  void Rehash(size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{kEmpty, V{}});
    mask_ = new_cap - 1;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.key != kEmpty) Put(s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Root adjacency: neighbor root id -> number of superedges between trees.
using FlatCountMap = FlatMap32<uint32_t>;

}  // namespace slugger

#endif  // SLUGGER_UTIL_FLAT_MAP_HPP_
