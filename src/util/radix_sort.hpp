// Stable LSD radix sort of 64-bit keys on a bit field the caller names.
//
// The batch read path sorts packed integer keys whose significant bits
// are few and known in advance: a walk batch's (leaf rank, position) keys
// and a stitch range's (position, neighbor id) tags. A comparison sort
// mispredicts on such random keys; counting passes of at most 11 bits
// each do not. Stability is what lets a caller leave a tie-break out of
// the sorted field: keys that arrive in position order leave in (field,
// position) order, exactly as std::sort of whole keys would order them.
#ifndef SLUGGER_UTIL_RADIX_SORT_HPP_
#define SLUGGER_UTIL_RADIX_SORT_HPP_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace slugger {

/// Sorts `keys` ascending by the field (key >> shift) & (2^bits - 1),
/// stably: keys with equal fields keep their relative order, and bits
/// outside the field ride along. The field is split into ceil(bits / 11)
/// counting passes of near-equal width (at most 2,048 buckets each).
/// `buffer` is resized to keys.size() and holds every other pass.
/// Requires shift + bits <= 64.
void RadixSortBits(std::span<uint64_t> keys, unsigned shift, unsigned bits,
                   std::vector<uint64_t>* buffer);

/// Lists RadixSortLists sorts with one radix sort, so that the tags of a
/// range of typical neighbor lists stay in cache.
inline constexpr size_t kListSortGrain = 256;

/// Buffers of RadixSortLists; one per thread keeps a serving loop free of
/// allocations after warmup.
struct ListSortScratch {
  std::vector<uint64_t> tags;
  std::vector<uint64_t> buffer;
  std::vector<uint64_t> cursor;
};

/// Sorts each list values[offsets[i], offsets[i + 1]) ascending, for every
/// i in [begin, end), kListSortGrain lists at a time: tags each value with
/// its list's place in the group above bit 32, sorts the group's tags once
/// on the low `value_bits` bits, and scatters them back to their lists in
/// sorted order. Every value must be below 2^value_bits, and value_bits <=
/// 32. Lists of disjoint [begin, end) ranges occupy disjoint slices of
/// `values`, so such ranges may be sorted concurrently, one scratch each.
void RadixSortLists(std::span<const uint64_t> offsets,
                    std::span<uint32_t> values, size_t begin, size_t end,
                    unsigned value_bits, ListSortScratch* scratch);

}  // namespace slugger

#endif  // SLUGGER_UTIL_RADIX_SORT_HPP_
