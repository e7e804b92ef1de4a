// Unit tests for the utility substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/dsu.hpp"
#include "util/flat_map.hpp"
#include "util/hashing.hpp"
#include "util/radix_sort.hpp"
#include "util/random.hpp"
#include "util/signed_edge_list.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"
#include "util/varint.hpp"

namespace slugger {
namespace {

// ---------------------------------------------------------------- Status
TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::Corruption("bad magic");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_EQ(s.ToString(), "Corruption: bad magic");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(Status::NotFound("x"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), Status::Code::kNotFound);
}

// ------------------------------------------------------------------- Rng
TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> w = v;
  rng.Shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(13);
  for (uint64_t k : {0ull, 1ull, 5ull, 50ull, 100ull}) {
    auto sample = SampleWithoutReplacement(100, k, rng);
    std::set<uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (uint64_t x : sample) EXPECT_LT(x, 100u);
  }
}

// --------------------------------------------------------------- hashing
TEST(Hashing, PairKeyCanonical) {
  EXPECT_EQ(PairKey(3, 9), PairKey(9, 3));
  EXPECT_EQ(PairFirst(PairKey(3, 9)), 3u);
  EXPECT_EQ(PairSecond(PairKey(3, 9)), 9u);
  EXPECT_NE(PairKey(1, 2), PairKey(1, 3));
}

TEST(Hashing, KeyedHashFamiliesDiffer) {
  KeyedHash h1(1), h2(2);
  int differing = 0;
  for (uint32_t x = 0; x < 100; ++x) {
    if (h1(x) != h2(x)) ++differing;
  }
  EXPECT_GT(differing, 95);
}

// -------------------------------------------------------------- FlatMap32
TEST(FlatMap, PutFindErase) {
  FlatMap32<int8_t> m;
  EXPECT_TRUE(m.Put(5, 1));
  EXPECT_FALSE(m.Put(5, -1));  // overwrite, not insert
  ASSERT_NE(m.Find(5), nullptr);
  EXPECT_EQ(*m.Find(5), -1);
  EXPECT_TRUE(m.Erase(5));
  EXPECT_FALSE(m.Erase(5));
  EXPECT_EQ(m.Find(5), nullptr);
}

TEST(FlatMap, MatchesStdMapUnderChurn) {
  // Randomized differential test against std::map, exercising the
  // backward-shift deletion heavily.
  FlatMap32<int8_t> m;
  std::map<uint32_t, int8_t> ref;
  Rng rng(21);
  for (int step = 0; step < 20000; ++step) {
    uint32_t key = static_cast<uint32_t>(rng.Below(200));
    if (rng.Chance(0.5)) {
      int8_t val = static_cast<int8_t>(rng.Below(120));
      m.Put(key, val);
      ref[key] = val;
    } else {
      EXPECT_EQ(m.Erase(key), ref.erase(key) > 0) << "step " << step;
    }
    if (step % 1000 == 0) {
      ASSERT_EQ(m.size(), ref.size());
      for (const auto& [k, v] : ref) {
        ASSERT_NE(m.Find(k), nullptr) << "missing " << k;
        ASSERT_EQ(*m.Find(k), v);
      }
    }
  }
}

TEST(FlatMap, ForEachVisitsAllOnce) {
  FlatMap32<uint32_t> m;
  for (uint32_t i = 0; i < 100; ++i) m.Put(i * 3, i);
  std::set<uint32_t> keys;
  m.ForEach([&](uint32_t k, uint32_t) { EXPECT_TRUE(keys.insert(k).second); });
  EXPECT_EQ(keys.size(), 100u);
}

TEST(FlatMap, GetOrInsertAggregates) {
  FlatMap32<uint32_t> m;
  for (int i = 0; i < 10; ++i) ++m.GetOrInsert(7, 0);
  EXPECT_EQ(*m.Find(7), 10u);
}

TEST(FlatMap, SoftClearKeepsCapacity) {
  FlatMap32<uint32_t> m;
  for (uint32_t i = 0; i < 1000; ++i) m.Put(i, i);
  size_t cap = m.capacity();
  m.SoftClear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.Find(3), nullptr);
  m.Put(3, 9);
  EXPECT_EQ(*m.Find(3), 9u);
}

// -------------------------------------------------------- SignedEdgeList
/// Checks every observable of `list` against `ref`: the size, the n-edge
/// count, Get of every id in `pool` (present or not), and that ForEach
/// visits each entry exactly once, with its sign.
void ExpectListMatches(const SignedEdgeList& list,
                       const std::map<uint32_t, EdgeSign>& ref,
                       const std::vector<uint32_t>& pool, int step) {
  ASSERT_EQ(list.size(), ref.size()) << "step " << step;
  uint32_t negatives = 0;
  for (const auto& [id, sign] : ref) negatives += sign < 0;
  ASSERT_EQ(list.negative_count(), negatives) << "step " << step;
  for (uint32_t id : pool) {
    const auto it = ref.find(id);
    ASSERT_EQ(list.Get(id), it == ref.end() ? 0 : it->second)
        << "step " << step << " id " << id;
  }
  std::map<uint32_t, EdgeSign> seen;
  list.ForEach([&](uint32_t id, EdgeSign sign) {
    EXPECT_TRUE(seen.emplace(id, sign).second) << "step " << step;
  });
  ASSERT_EQ(seen, ref) << "step " << step;
}

TEST(SignedEdgeList, MatchesStdMapAcrossTheIndexThreshold) {
  // Randomized differential test against std::map. The churn drives the
  // list through target sizes that cross the index threshold both ways:
  // grow past it, shrink below it, grow again, empty it, grow again. The
  // id pool holds 0 and kInvalidId - 1 (the largest supernode id) besides
  // random ones.
  Rng rng(23);
  std::vector<uint32_t> pool = {0, kInvalidId - 1};
  std::set<uint32_t> distinct(pool.begin(), pool.end());
  while (pool.size() < 120) {
    const auto id = static_cast<uint32_t>(rng.Below(kInvalidId - 1));
    if (distinct.insert(id).second) pool.push_back(id);
  }
  SignedEdgeList list;
  std::map<uint32_t, EdgeSign> ref;
  // Start from a bulk assignment of n-edges above the threshold.
  const std::vector<uint32_t> first(pool.begin(), pool.begin() + 30);
  list.Assign(first, -1);
  for (uint32_t id : first) ref[id] = -1;
  ExpectListMatches(list, ref, pool, -1);
  ASSERT_TRUE(list.has_index());

  int step = 0;
  std::vector<bool> indexed;  // has_index() at the end of each phase
  for (const size_t target : {50u, 2u, 90u, 0u, 20u, 100u, 5u}) {
    while (ref.size() != target) {
      const bool grow = ref.size() < target ? rng.Chance(0.8)
                                            : rng.Chance(0.2);
      if (grow) {
        // The next absent id of the pool from a random start.
        size_t at = rng.Below(pool.size());
        while (ref.count(pool[at]) != 0) at = (at + 1) % pool.size();
        const EdgeSign sign = rng.Chance(0.3) ? -1 : +1;
        list.Add(pool[at], sign);
        ref[pool[at]] = sign;
      } else {
        // Mostly a present id; sometimes any, to erase an absent one.
        const uint32_t id =
            !ref.empty() && rng.Chance(0.9)
                ? std::next(ref.begin(), rng.Below(ref.size()))->first
                : pool[rng.Below(pool.size())];
        const auto it = ref.find(id);
        const EdgeSign want = it == ref.end() ? 0 : it->second;
        ASSERT_EQ(list.Erase(id), want) << "step " << step;
        if (it != ref.end()) ref.erase(it);
      }
      ExpectListMatches(list, ref, pool, step++);
      // A list of more than kLinearMax entries always has an index.
      if (list.size() > SignedEdgeList::kLinearMax) {
        ASSERT_TRUE(list.has_index());
      }
    }
    indexed.push_back(list.has_index());
    if (target == 0) {
      EXPECT_EQ(list.capacity(), 0u);  // an emptied list frees its block
    }
    // Copies and moves carry the entries, counts and index.
    SignedEdgeList copy = list;
    ExpectListMatches(copy, ref, pool, step);
    SignedEdgeList moved = std::move(copy);
    ExpectListMatches(moved, ref, pool, step);
    copy = moved;
    ExpectListMatches(copy, ref, pool, step);
  }
  EXPECT_EQ(indexed, (std::vector<bool>{true, false, true, false, true, true,
                                         false}));
  EXPECT_GT(step, 500);
}

// ------------------------------------------------------------------- Dsu
TEST(Dsu, UniteAndFind) {
  Dsu d(10);
  EXPECT_FALSE(d.Same(1, 2));
  d.Unite(1, 2);
  EXPECT_TRUE(d.Same(1, 2));
  d.Unite(2, 3);
  EXPECT_TRUE(d.Same(1, 3));
  EXPECT_FALSE(d.Same(1, 4));
  EXPECT_EQ(d.SetSize(3), 3u);
}

TEST(Dsu, AddGrowsUniverse) {
  Dsu d(2);
  uint32_t id = d.Add();
  EXPECT_EQ(id, 2u);
  d.Unite(0, id);
  EXPECT_TRUE(d.Same(0, 2));
  EXPECT_EQ(d.universe_size(), 3u);
}

// ------------------------------------------------------------ RadixSort
// Keys as the batch walk builds them: a `bits`-wide field above bit 32 and
// the key's position below it, so std::sort's order of whole keys is the
// (field, position) order a stable sort on the field must reproduce.
// Fields come from a pool of `distinct` values spread over the whole
// width, so every pass sees varied digits and ties are many.
std::vector<uint64_t> FieldPositionKeys(size_t n, unsigned bits,
                                        uint64_t distinct, Rng* rng) {
  std::vector<uint64_t> pool(distinct);
  for (uint64_t& v : pool) v = rng->Below(uint64_t{1} << bits);
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = (pool[rng->Below(distinct)] << 32) | i;
  }
  return keys;
}

TEST(RadixSort, MatchesStdSortAtOneTwoAndThreePasses) {
  Rng rng(17);
  std::vector<uint64_t> buffer;
  // 1 and 11 bits take one pass, 12 and 22 two, 32 three.
  for (unsigned bits : {1u, 11u, 12u, 22u, 32u}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{1000},
                     size_t{6000}}) {
      for (uint64_t distinct : {uint64_t{1}, uint64_t{2}, n / 8 + 1}) {
        std::vector<uint64_t> keys = FieldPositionKeys(n, bits, distinct, &rng);
        std::vector<uint64_t> want = keys;
        std::sort(want.begin(), want.end());
        RadixSortBits(keys, 32, bits, &buffer);
        ASSERT_EQ(keys, want) << bits << " bits, " << n << " keys, "
                              << distinct << " distinct";
      }
    }
  }
}

TEST(RadixSort, SortsOnlyTheNamedFieldAndIsStable) {
  Rng rng(23);
  std::vector<uint64_t> buffer;
  for (unsigned bits : {1u, 9u, 17u, 23u}) {
    std::vector<uint64_t> keys(3000);
    for (uint64_t& k : keys) k = rng.Next();
    const auto field = [bits](uint64_t k) {
      return (k >> 5) & ((uint64_t{1} << bits) - 1);
    };
    std::vector<uint64_t> want = keys;
    std::stable_sort(want.begin(), want.end(), [&](uint64_t a, uint64_t b) {
      return field(a) < field(b);
    });
    RadixSortBits(keys, 5, bits, &buffer);
    ASSERT_EQ(keys, want) << bits << " bits";
  }
}

TEST(RadixSort, SortsEachListOfARangeAndNothingElse) {
  Rng rng(29);
  ListSortScratch scratch;
  for (unsigned bits : {1u, 14u, 32u}) {
    std::vector<uint64_t> offsets{0};
    std::vector<uint32_t> values;
    for (int i = 0; i < 600; ++i) {
      const uint64_t len = rng.Below(4) == 0 ? 0 : rng.Below(40);
      for (uint64_t k = 0; k < len; ++k) {
        values.push_back(static_cast<uint32_t>(rng.Below(uint64_t{1} << bits)));
      }
      offsets.push_back(values.size());
    }
    std::vector<uint32_t> want = values;
    for (size_t i = 100; i < 356; ++i) {
      std::sort(want.begin() + offsets[i], want.begin() + offsets[i + 1]);
    }
    RadixSortLists(offsets, values, 100, 356, bits, &scratch);
    ASSERT_EQ(values, want) << bits << " bits";
    // Every list as one range: three groups of kListSortGrain lists.
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      std::sort(want.begin() + offsets[i], want.begin() + offsets[i + 1]);
    }
    RadixSortLists(offsets, values, 0, offsets.size() - 1, bits, &scratch);
    ASSERT_EQ(values, want) << bits << " bits";
    RadixSortLists(offsets, values, 7, 7, bits, &scratch);  // empty range
    ASSERT_EQ(values, want) << bits << " bits";
  }
}

// ---------------------------------------------------------------- varint
TEST(Varint, RoundTripValues) {
  std::string buf;
  std::vector<uint64_t> values{0, 1, 127, 128, 300, 1u << 20, ~0ull};
  for (uint64_t v : values) PutVarint64(&buf, v);
  VarintReader reader(buf);
  for (uint64_t expected : values) {
    uint64_t got = 0;
    ASSERT_TRUE(reader.Get(&got).ok());
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(reader.exhausted());
}

TEST(Varint, SignedZigZagRoundTrip) {
  std::string buf;
  std::vector<int64_t> values{0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : values) PutVarintSigned64(&buf, v);
  VarintReader reader(buf);
  for (int64_t expected : values) {
    int64_t got = 0;
    ASSERT_TRUE(reader.GetSigned(&got).ok());
    EXPECT_EQ(got, expected);
  }
}

TEST(Varint, TruncatedInputRejected) {
  std::string buf;
  PutVarint64(&buf, 1u << 30);
  buf.pop_back();
  VarintReader reader(buf);
  uint64_t v = 0;
  EXPECT_EQ(reader.Get(&v).code(), Status::Code::kCorruption);
}

TEST(Varint, OverlongInputRejected) {
  std::string buf(11, static_cast<char>(0x80));
  VarintReader reader(buf);
  uint64_t v = 0;
  EXPECT_FALSE(reader.Get(&v).ok());
}

TEST(Varint, GetBytesBoundsChecked) {
  std::string buf = "abc";
  VarintReader reader(buf);
  std::string out;
  EXPECT_TRUE(reader.GetBytes(2, &out).ok());
  EXPECT_EQ(out, "ab");
  EXPECT_FALSE(reader.GetBytes(2, &out).ok());
}

// ----------------------------------------------------------------- timer
TEST(Timer, MonotoneNonNegative) {
  WallTimer t;
  double a = t.Seconds();
  double b = t.Seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace slugger
