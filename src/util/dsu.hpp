// Disjoint-set union with path halving and union by size.
#ifndef SLUGGER_UTIL_DSU_HPP_
#define SLUGGER_UTIL_DSU_HPP_

#include <cstdint>
#include <numeric>
#include <vector>

namespace slugger {

/// Classic union-find over dense uint32 ids.
class Dsu {
 public:
  explicit Dsu(uint32_t n = 0) { Reset(n); }

  void Reset(uint32_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), 0u);
    size_.assign(n, 1);
  }

  /// Appends a fresh singleton set and returns its id.
  uint32_t Add() {
    uint32_t id = static_cast<uint32_t>(parent_.size());
    parent_.push_back(id);
    size_.push_back(1);
    return id;
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Unites the sets of a and b; returns the surviving representative.
  uint32_t Unite(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return a;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return a;
  }

  bool Same(uint32_t a, uint32_t b) { return Find(a) == Find(b); }

  uint32_t SetSize(uint32_t x) { return size_[Find(x)]; }

  uint32_t universe_size() const { return static_cast<uint32_t>(parent_.size()); }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
};

}  // namespace slugger

#endif  // SLUGGER_UTIL_DSU_HPP_
