#include "util/radix_sort.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

namespace slugger {

namespace {

/// Widest digit one counting pass sorts on.
constexpr unsigned kRadixDigitBits = 11;

}  // namespace

void RadixSortBits(std::span<uint64_t> keys, unsigned shift, unsigned bits,
                   std::vector<uint64_t>* buffer) {
  assert(shift + bits <= 64);
  const size_t n = keys.size();
  if (n < 2 || bits == 0) return;
  const unsigned passes = (bits + kRadixDigitBits - 1) / kRadixDigitBits;
  const unsigned width = (bits + passes - 1) / passes;
  buffer->resize(n);
  uint64_t* src = keys.data();
  uint64_t* dst = buffer->data();
  std::array<size_t, size_t{1} << kRadixDigitBits> start;
  for (unsigned p = 0; p < passes; ++p) {
    const unsigned at = shift + p * width;
    const uint64_t mask =
        (uint64_t{1} << std::min(width, bits - p * width)) - 1;
    std::fill_n(start.begin(), mask + 1, size_t{0});
    for (size_t i = 0; i < n; ++i) ++start[(src[i] >> at) & mask];
    size_t sum = 0;
    for (uint64_t d = 0; d <= mask; ++d) sum += std::exchange(start[d], sum);
    for (size_t i = 0; i < n; ++i) dst[start[(src[i] >> at) & mask]++] = src[i];
    std::swap(src, dst);
  }
  if (src != keys.data()) std::copy_n(src, n, keys.data());
}

void RadixSortLists(std::span<const uint64_t> offsets,
                    std::span<uint32_t> values, size_t begin, size_t end,
                    unsigned value_bits, ListSortScratch* scratch) {
  assert(value_bits <= 32);
  std::vector<uint64_t>& tags = scratch->tags;
  std::vector<uint64_t>& cursor = scratch->cursor;
  for (size_t lo = begin; lo < end; lo += kListSortGrain) {
    const size_t hi = std::min(end, lo + kListSortGrain);
    cursor.assign(offsets.begin() + lo, offsets.begin() + hi);
    tags.resize(offsets[hi] - offsets[lo]);
    uint64_t* out = tags.data();
    for (size_t i = lo; i < hi; ++i) {
      const uint64_t tag = static_cast<uint64_t>(i - lo) << 32;
      for (uint64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        *out++ = tag | values[k];
      }
    }
    RadixSortBits(tags, 0, value_bits, &scratch->buffer);
    for (const uint64_t tag : tags) {
      values[cursor[tag >> 32]++] = static_cast<uint32_t>(tag);
    }
  }
}

}  // namespace slugger
