// Packed adjacency of one supernode: the live superedges of a summary.
//
// A FlatMap32 keeps every slot it ever grew to, so a scan over a supernode
// whose edges have moved up to a new parent still probes the emptied slots.
// SignedEdgeList holds exactly the live entries, contiguously: an erase
// moves the last entry into the hole, and the block shrinks as the list
// does. Short lists are searched linearly; a longer one carries an
// open-addressed index of entry positions in the same block.
#ifndef SLUGGER_UTIL_SIGNED_EDGE_LIST_HPP_
#define SLUGGER_UTIL_SIGNED_EDGE_LIST_HPP_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <new>
#include <utility>

#include "util/random.hpp"
#include "util/types.hpp"

namespace slugger {

/// The signed edges {other, sign} of one supernode, in unspecified order,
/// with a count of n-edges (sign < 0). `other` may be any uint32 value.
///
/// Layout: one heap block of `capacity` 8-byte entries, the first size()
/// of them live. A block of more than kLinearMax entries also holds, after
/// the entries, an index of 2^k >= 2 * capacity uint32 slots: linear
/// probing on Mix64(other), each slot an entry position or kNone, deletion
/// by backward shift. The index is built when the block grows past
/// kLinearMax entries, kept in step on insert and swap-erase, and dropped
/// when the block shrinks back (at a quarter full it halves; empty, it is
/// freed). The list object itself is 24 bytes.
class SignedEdgeList {
 public:
  struct Entry {
    uint32_t other;
    EdgeSign sign;
  };

  /// Blocks of at most this many entries are searched linearly.
  static constexpr uint32_t kLinearMax = 16;

  SignedEdgeList() = default;
  SignedEdgeList(const SignedEdgeList& o)
      : size_(o.size_), cap_(o.cap_), neg_(o.neg_) {
    if (cap_ == 0) return;
    data_ = Allocate(cap_);
    std::memcpy(data_, o.data_, size_ * sizeof(Entry));
    if (has_index()) {
      std::memcpy(Index(), o.Index(), IndexSlots(cap_) * sizeof(uint32_t));
    }
  }
  SignedEdgeList(SignedEdgeList&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        cap_(std::exchange(o.cap_, 0)),
        neg_(std::exchange(o.neg_, 0)) {}
  /// Copy and move assignment (by value, then swap).
  SignedEdgeList& operator=(SignedEdgeList o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    std::swap(cap_, o.cap_);
    std::swap(neg_, o.neg_);
    return *this;
  }
  ~SignedEdgeList() { ::operator delete(data_); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t negative_count() const { return neg_; }
  size_t capacity() const { return cap_; }
  bool has_index() const { return cap_ > kLinearMax; }

  /// Sign of the entry for `other`, or 0 if there is none.
  EdgeSign Get(uint32_t other) const {
    if (!has_index()) {
      for (uint32_t i = 0; i < size_; ++i) {
        if (data_[i].other == other) return data_[i].sign;
      }
      return 0;
    }
    const uint32_t pos = Index()[SlotOf(other)];
    return pos == kNone ? 0 : data_[pos].sign;
  }

  /// Appends an entry for `other`, which must be absent; sign is ±1.
  void Add(uint32_t other, EdgeSign sign) {
    assert(Get(other) == 0 && "duplicate entry");
    if (size_ == cap_) Reallocate(cap_ == 0 ? kMinCapacity : 2 * cap_);
    data_[size_] = {other, sign};
    if (has_index()) Index()[SlotOf(other)] = size_;
    ++size_;
    neg_ += sign < 0;
  }

  /// Removes the entry for `other`; returns its sign, or 0 if absent. The
  /// last entry moves into the hole.
  EdgeSign Erase(uint32_t other) {
    uint32_t pos = kNone;
    const uint32_t last = size_ - 1;
    if (has_index()) {
      uint32_t* index = Index();
      const size_t slot = SlotOf(other);
      pos = index[slot];
      if (pos == kNone) return 0;
      Unlink(slot);
      if (pos != last) index[SlotOf(data_[last].other)] = pos;
    } else {
      for (uint32_t i = 0; i < size_; ++i) {
        if (data_[i].other == other) {
          pos = i;
          break;
        }
      }
      if (pos == kNone) return 0;
    }
    const EdgeSign sign = data_[pos].sign;
    data_[pos] = data_[last];
    size_ = last;
    neg_ -= sign < 0;
    if (size_ == 0) {
      ::operator delete(std::exchange(data_, nullptr));
      cap_ = 0;
    } else if (cap_ > kMinCapacity && size_ * 4 <= cap_) {
      Reallocate(std::max(kMinCapacity, cap_ / 2));
    }
    return sign;
  }

  /// Replaces the contents with one entry per element of `others`, each
  /// with `sign`, in that order. The elements must be distinct. One block
  /// of exactly their number is allocated, and the index built at most
  /// once; no element is looked up.
  template <typename Range>
  void Assign(const Range& others, EdgeSign sign) {
    ::operator delete(std::exchange(data_, nullptr));
    const auto n = static_cast<uint32_t>(std::size(others));
    size_ = cap_ = neg_ = 0;
    if (n == 0) return;
    data_ = Allocate(n);
    cap_ = n;
    for (uint32_t other : others) data_[size_++] = {other, sign};
    if (sign < 0) neg_ = n;
    if (has_index()) BuildIndex();
  }

  /// Invokes fn(other, sign) once per entry, in storage order. fn must not
  /// modify the list.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const Entry* const end = data_ + size_;
    for (const Entry* e = data_; e != end; ++e) fn(e->other, e->sign);
  }

 private:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;
  static constexpr uint32_t kMinCapacity = 4;

  static size_t IndexSlots(uint32_t cap) {
    return std::bit_ceil(size_t{2} * cap);
  }
  static Entry* Allocate(uint32_t cap) {
    size_t bytes = size_t{cap} * sizeof(Entry);
    if (cap > kLinearMax) bytes += IndexSlots(cap) * sizeof(uint32_t);
    return static_cast<Entry*>(::operator new(bytes));
  }

  /// The index slots, which follow the block's entries.
  uint32_t* Index() const {
    return reinterpret_cast<uint32_t*>(reinterpret_cast<std::byte*>(data_) +
                                       size_t{cap_} * sizeof(Entry));
  }

  /// Index slot holding `other`'s position, or the empty slot where its
  /// probe sequence ends.
  size_t SlotOf(uint32_t other) const {
    const uint32_t* index = Index();
    const size_t mask = IndexSlots(cap_) - 1;
    size_t slot = Mix64(other) & mask;
    while (index[slot] != kNone && data_[index[slot]].other != other) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// Empties index slot `hole` by backward shift: each later slot of the
  /// run moves up unless its home lies cyclically in (hole, slot].
  void Unlink(size_t hole) {
    uint32_t* index = Index();
    const size_t mask = IndexSlots(cap_) - 1;
    for (size_t j = (hole + 1) & mask; index[j] != kNone; j = (j + 1) & mask) {
      const size_t home = Mix64(data_[index[j]].other) & mask;
      const bool stays =
          hole <= j ? hole < home && home <= j : hole < home || home <= j;
      if (!stays) {
        index[hole] = index[j];
        hole = j;
      }
    }
    index[hole] = kNone;
  }

  void BuildIndex() {
    uint32_t* index = Index();
    std::fill_n(index, IndexSlots(cap_), kNone);
    for (uint32_t i = 0; i < size_; ++i) index[SlotOf(data_[i].other)] = i;
  }

  void Reallocate(uint32_t cap) {
    Entry* fresh = Allocate(cap);
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(Entry));
    ::operator delete(data_);
    data_ = fresh;
    cap_ = cap;
    if (has_index()) BuildIndex();
  }

  Entry* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t cap_ = 0;
  uint32_t neg_ = 0;
};

}  // namespace slugger

#endif  // SLUGGER_UTIL_SIGNED_EDGE_LIST_HPP_
