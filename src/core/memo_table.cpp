#include "core/memo_table.hpp"

#include <cassert>

namespace slugger::core {

uint64_t MemoTable::PackKey(const Universe& universe, const int8_t* target) {
  // 3 bits per class (supports targets in [-3, 3]), up to 10 classes ->
  // 30 bits, plus the universe code above them.
  uint64_t key = static_cast<uint64_t>(universe.code) << 32;
  for (int c = 0; c < universe.num_classes; ++c) {
    int8_t t = (universe.active_mask >> c & 1) ? target[c] : 0;
    assert(t >= -3 && t <= 3);
    key |= static_cast<uint64_t>(t + 3) << (3 * c);
  }
  return key;
}

const SolvedEncoding& MemoTable::Solve(const Universe& universe,
                                       const int8_t* target) {
  uint64_t key = PackKey(universe, target);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  SolvedEncoding solved = SolveMinimumEncoding(universe, target);
  return cache_.emplace(key, std::move(solved)).first->second;
}

size_t MemoTable::WarmUp() {
  size_t before = cache_.size();
  auto warm_universe = [&](const Universe& u) {
    // Enumerate {0,1} assignments over active classes.
    int active[16];
    int num_active = 0;
    for (int c = 0; c < u.num_classes; ++c) {
      if (u.active_mask >> c & 1) active[num_active++] = c;
    }
    uint32_t combos = 1u << num_active;
    int8_t target[16] = {0};
    for (uint32_t bits = 0; bits < combos; ++bits) {
      for (int i = 0; i < num_active; ++i) {
        target[active[i]] = static_cast<int8_t>(bits >> i & 1);
      }
      Solve(u, target);
    }
  };

  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      warm_universe(GetCase1Universe(static_cast<SideShape>(a),
                                     static_cast<SideShape>(b)));
    }
  }
  for (int bits = 0; bits < 8; ++bits) {
    warm_universe(GetCase2Universe(bits & 4, bits & 2, bits & 1));
  }
  return cache_.size() - before;
}

size_t MemoTable::ApproxBytes() const {
  size_t bytes = cache_.bucket_count() * sizeof(void*) +
                 cache_.size() * (sizeof(uint64_t) + sizeof(SolvedEncoding) +
                                  2 * sizeof(void*));
  for (const auto& [key, enc] : cache_) {
    bytes += enc.edges.capacity() * sizeof(std::pair<uint8_t, int8_t>);
  }
  return bytes;
}

}  // namespace slugger::core
