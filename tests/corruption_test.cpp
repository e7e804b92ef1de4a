// Corruption-matrix tests for the untrusted-input surface (ISSUE 4): a
// hostile or damaged summary file must produce a Status error — never a
// crash, out-of-range id, or huge allocation — and out-of-range node ids
// must be absorbed at the CompressedGraph boundary. The whole suite runs
// under ASan+UBSan in CI, so "no crash" is checked with teeth.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "gen/generators.hpp"
#include "storage/format.hpp"
#include "storage/paged_source.hpp"
#include "storage/storage.hpp"
#include "summary/serialize.hpp"
#include "util/types.hpp"
#include "util/varint.hpp"

namespace slugger {
namespace {

/// The graph behind the shared matrix buffers below.
const graph::Graph& RealGraph() {
  static const graph::Graph g = [] {
    gen::PlantedHierarchyOptions opt;
    opt.branching = 3;
    opt.depth = 2;
    opt.leaf_size = 6;
    opt.leaf_density = 0.9;
    opt.pair_link_prob = 0.5;
    opt.pair_link_decay = 0.2;
    return gen::PlantedHierarchy(opt, /*seed=*/5);
  }();
  return g;
}

/// One real summary buffer shared by the matrix tests: small enough that
/// exhaustive truncation/bit-flip sweeps stay fast, rich enough to have
/// internal supernodes and both edge signs.
const std::string& RealSummaryBuffer() {
  static const std::string buffer = [] {
    EngineOptions options;
    options.config.iterations = 8;
    options.config.seed = 5;
    Engine engine(options);
    StatusOr<CompressedGraph> compressed = engine.Summarize(RealGraph());
    EXPECT_TRUE(compressed.ok());
    storage::SaveOptions v1;
    v1.format = storage::Format::kMonolithicV1;
    StatusOr<std::string> bytes = storage::Serialize(compressed.value(), v1);
    EXPECT_TRUE(bytes.ok());
    return std::move(bytes).value();
  }();
  return buffer;
}

/// The same summary as a paged v2 image with the smallest legal pages, so
/// the sweeps cover header, page-table, locator, rank/leaf_at, and record
/// pages in a file small enough for exhaustive corruption.
const std::string& RealPagedBuffer() {
  static const std::string buffer = [] {
    storage::OpenOptions in_memory;
    in_memory.mode = storage::OpenOptions::Mode::kInMemory;
    StatusOr<CompressedGraph> cg =
        storage::OpenBuffer(RealSummaryBuffer(), in_memory);
    EXPECT_TRUE(cg.ok());
    storage::SaveOptions save;
    save.page_size = storage::kMinPageSize;
    StatusOr<std::string> bytes = storage::Serialize(cg.value(), save);
    EXPECT_TRUE(bytes.ok());
    return std::move(bytes).value();
  }();
  return buffer;
}

std::vector<NodeId> Sorted(std::span<const NodeId> list) {
  std::vector<NodeId> out(list.begin(), list.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Asserts a batch over every node of `g` through `scratch` answers `g`
/// exactly — what a scratch left dirty by a failed batch would break.
void ExpectExactBatch(const CompressedGraph& cg, const graph::Graph& g,
                      BatchScratch* scratch) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.num_nodes(); ++v) nodes.push_back(v);
  BatchResult result;
  ASSERT_TRUE(cg.NeighborsBatch(nodes, &result, scratch).ok());
  std::vector<uint64_t> degrees;
  ASSERT_TRUE(cg.DegreeBatch(nodes, &degrees, scratch).ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(Sorted(result[v]), Sorted(g.Neighbors(v))) << "node " << v;
    EXPECT_EQ(degrees[v], g.Degree(v)) << "node " << v;
  }
}

/// A parse that unexpectedly succeeds must still yield a usable summary:
/// exercise the full query surface so ASan sees any latent corruption.
void ExpectServable(const CompressedGraph& cg) {
  QueryScratch scratch;
  for (NodeId v = 0; v < cg.num_nodes(); ++v) {
    EXPECT_EQ(cg.Degree(v, &scratch), cg.Neighbors(v, &scratch).size());
  }
}

// ------------------------------------------------------------ truncation
TEST(CorruptionMatrix, EveryTruncationIsAnErrorNeverACrash) {
  const std::string& buffer = RealSummaryBuffer();
  ASSERT_GT(buffer.size(), 16u);
  for (size_t len = 0; len < buffer.size(); ++len) {
    StatusOr<summary::SummaryGraph> parsed =
        summary::DeserializeSummary(buffer.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
  }
}

// -------------------------------------------------------------- bit flips
TEST(CorruptionMatrix, EveryBitFlipIsRejectedOrStillServable) {
  const std::string& buffer = RealSummaryBuffer();
  size_t accepted = 0;
  for (size_t i = 0; i < buffer.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = buffer;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      storage::OpenOptions in_memory;
      in_memory.mode = storage::OpenOptions::Mode::kInMemory;
      StatusOr<CompressedGraph> parsed =
          storage::OpenBuffer(std::move(flipped), in_memory);
      if (parsed.ok()) {
        // e.g. a flipped superedge sign still describes a valid summary —
        // of a different graph. It must serve queries without tripping
        // the sanitizers.
        ++accepted;
        ExpectServable(parsed.value());
      }
    }
  }
  // The format has no checksum, so some flips survive; most must not.
  EXPECT_LT(accepted, buffer.size());
}

// ------------------------------------------------------- oversized counts
std::string Header(uint64_t magic, uint64_t version) {
  std::string out;
  PutVarint64(&out, magic);
  PutVarint64(&out, version);
  return out;
}

/// The real magic/version, recovered from a genuine buffer so these tests
/// need no access to the private constants.
std::string ValidHeader() {
  const std::string& buffer = RealSummaryBuffer();
  VarintReader reader(buffer);
  uint64_t magic = 0, version = 0;
  EXPECT_TRUE(reader.Get(&magic).ok());
  EXPECT_TRUE(reader.Get(&version).ok());
  return Header(magic, version);
}

TEST(CorruptionMatrix, HugeLeafCountIsRejectedBeforeAllocating) {
  for (uint64_t leaves :
       {uint64_t{kMaxNodes} + 1, uint64_t{1} << 40, uint64_t{1} << 62,
        ~uint64_t{0}}) {
    std::string buf = ValidHeader();
    PutVarint64(&buf, leaves);
    PutVarint64(&buf, 0);  // num_internal
    PutVarint64(&buf, 0);  // num_edges
    StatusOr<summary::SummaryGraph> parsed = summary::DeserializeSummary(buf);
    ASSERT_FALSE(parsed.ok()) << "leaves=" << leaves;
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
  }
}

TEST(CorruptionMatrix, LeafCountAtTheEngineLimitRoundTrips) {
  // The deserializer's bound must not reject what the engine can emit;
  // probing the exact limit with a real allocation would need gigabytes,
  // so check the boundary predicate from below with a small file.
  std::string buf = ValidHeader();
  PutVarint64(&buf, 1000);
  PutVarint64(&buf, 0);
  PutVarint64(&buf, 0);
  StatusOr<summary::SummaryGraph> parsed = summary::DeserializeSummary(buf);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().num_leaves(), 1000u);
}

TEST(CorruptionMatrix, HugeInternalCountIsRejectedBeforeAllocating) {
  // Structurally plausible (n - 1 internal nodes for n leaves) but far
  // larger than the remaining handful of bytes could ever encode.
  std::string buf = ValidHeader();
  PutVarint64(&buf, uint64_t{1} << 30);        // num_leaves (within range)
  PutVarint64(&buf, (uint64_t{1} << 30) - 1);  // num_internal
  StatusOr<summary::SummaryGraph> parsed = summary::DeserializeSummary(buf);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
}

TEST(CorruptionMatrix, HugeChildCountIsRejectedBeforeAllocating) {
  std::string buf = ValidHeader();
  PutVarint64(&buf, 10);           // num_leaves
  PutVarint64(&buf, 1);            // num_internal
  PutVarint64(&buf, uint64_t{1} << 60);  // num_children of the first node
  StatusOr<summary::SummaryGraph> parsed = summary::DeserializeSummary(buf);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
}

TEST(CorruptionMatrix, HugeEdgeCountIsRejected) {
  std::string buf = ValidHeader();
  PutVarint64(&buf, 10);  // num_leaves
  PutVarint64(&buf, 0);   // num_internal
  PutVarint64(&buf, uint64_t{1} << 60);  // num_edges
  StatusOr<summary::SummaryGraph> parsed = summary::DeserializeSummary(buf);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
}

TEST(CorruptionMatrix, WrappingDeltasAreRejected) {
  {
    // Child delta chosen to wrap the running child id back into range.
    std::string buf = ValidHeader();
    PutVarint64(&buf, 10);  // num_leaves
    PutVarint64(&buf, 1);   // num_internal
    PutVarint64(&buf, 2);   // num_children
    PutVarint64(&buf, 1);   // child 1
    PutVarint64(&buf, ~uint64_t{0});  // child delta: would wrap to 0
    EXPECT_FALSE(summary::DeserializeSummary(buf).ok());
  }
  {
    // Superedge endpoint delta with the same wrap construction.
    std::string buf = ValidHeader();
    PutVarint64(&buf, 10);  // num_leaves
    PutVarint64(&buf, 0);   // num_internal
    PutVarint64(&buf, 1);   // num_edges
    PutVarint64(&buf, ~uint64_t{0});  // a-delta
    PutVarint64(&buf, 3);             // packed b-delta + sign
    EXPECT_FALSE(summary::DeserializeSummary(buf).ok());
  }
}

TEST(CorruptionMatrix, BadMagicAndVersionAreRejected) {
  const std::string& good = RealSummaryBuffer();
  VarintReader reader(good);
  uint64_t magic = 0, version = 0;
  ASSERT_TRUE(reader.Get(&magic).ok());
  ASSERT_TRUE(reader.Get(&version).ok());

  std::string bad_magic = Header(magic ^ 1, version);
  PutVarint64(&bad_magic, 10);
  EXPECT_FALSE(summary::DeserializeSummary(bad_magic).ok());

  std::string bad_version = Header(magic, version + 1);
  PutVarint64(&bad_version, 10);
  EXPECT_FALSE(summary::DeserializeSummary(bad_version).ok());

  EXPECT_FALSE(summary::DeserializeSummary("").ok());
  EXPECT_FALSE(summary::DeserializeSummary("not a summary at all").ok());
}

// ------------------------------------------------- paged format (v2)
// The paged matrix has two layers of defense: the header and page-table
// checksums reject damage at open, and per-page checksums reject damage
// in data pages lazily, at the first query that touches them. Either
// way: a Status, never a crash (this whole file runs under ASan+UBSan).

/// Drives the full query surface of a possibly-damaged paged handle; all
/// errors must surface as Status / empty answers.
void ExpectNoCrashServing(const CompressedGraph& cg) {
  QueryScratch scratch;
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < cg.num_nodes(); ++v) {
    EXPECT_EQ(cg.Degree(v, &scratch), cg.Neighbors(v, &scratch).size());
    nodes.push_back(v);
  }
  BatchResult result;
  BatchScratch batch_scratch;
  (void)cg.NeighborsBatch(nodes, &result, &batch_scratch);
  std::vector<uint64_t> degrees;
  (void)cg.DegreeBatch(nodes, &degrees, &batch_scratch);
  (void)cg.Materialize();
}

TEST(PagedCorruptionMatrix, EveryTruncationIsAnErrorNeverACrash) {
  const std::string& buffer = RealPagedBuffer();
  ASSERT_GT(buffer.size(), 2u * storage::kMinPageSize);
  // Every strict prefix must fail at open: the header pins the exact
  // file length, so even page-aligned truncations are caught up front.
  for (size_t len = 0; len < buffer.size(); ++len) {
    StatusOr<CompressedGraph> opened =
        storage::OpenBuffer(buffer.substr(0, len));
    EXPECT_FALSE(opened.ok()) << "prefix of " << len << " bytes opened";
  }
}

TEST(PagedCorruptionMatrix, EveryBitFlipIsRejectedOrFailsAsStatus) {
  const std::string& buffer = RealPagedBuffer();
  size_t open_accepted = 0;
  size_t eager_accepted = 0;
  for (size_t i = 0; i < buffer.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = buffer;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));

      // Eager verification checksums every page at open, so no single
      // bit flip anywhere in the file survives it.
      storage::OpenOptions eager;
      eager.eager_verify = true;
      if (storage::OpenBuffer(flipped, eager).ok()) ++eager_accepted;

      // A lazy open only validates the header and page table; a flip in
      // a data page is caught by that page's checksum at query time and
      // must degrade to Status errors / empty answers, never a crash.
      StatusOr<CompressedGraph> opened =
          storage::OpenBuffer(std::move(flipped));
      if (opened.ok()) {
        ++open_accepted;
        ExpectNoCrashServing(opened.value());
      }
    }
  }
  EXPECT_EQ(eager_accepted, 0u);
  // Lazy opens accept flips beyond the header/page-table pages and
  // reject everything before them.
  EXPECT_LT(open_accepted, buffer.size() * 8);
}

TEST(PagedCorruptionMatrix, DataPageDamageSurfacesAsCorruptionStatus) {
  const std::string& buffer = RealPagedBuffer();
  // Flip one byte in the middle of the last page (deep in the record
  // stream): the lazy open succeeds, queries that touch the page fail
  // with Corruption, and the batch API reports it.
  std::string flipped = buffer;
  flipped[buffer.size() - storage::kMinPageSize / 2] ^= 0x10;
  StatusOr<CompressedGraph> opened = storage::OpenBuffer(std::move(flipped));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < opened.value().num_nodes(); ++v) nodes.push_back(v);
  BatchResult result;
  BatchScratch scratch;
  Status s = opened.value().NeighborsBatch(nodes, &result, &scratch);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_EQ(result.size(), 0u);  // emptied, not half-filled

  // A failed parse publishes nothing: the same batch on the same handle
  // meets the damaged page again, while a node whose chain and runs
  // avoid it still answers exactly.
  s = opened.value().NeighborsBatch(nodes, &result, &scratch);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_EQ(result.size(), 0u);
  size_t healthy_nodes = 0;
  for (const NodeId v : nodes) {
    BatchResult one;
    BatchScratch fresh;
    const NodeId single[] = {v};
    if (!opened.value().NeighborsBatch(single, &one, &fresh).ok()) continue;
    ++healthy_nodes;
    EXPECT_EQ(Sorted(one[0]), Sorted(RealGraph().Neighbors(v))) << "node " << v;
  }
  EXPECT_GT(healthy_nodes, 0u);
  EXPECT_LT(healthy_nodes, nodes.size());

  // The failed batch left the scratch as it found it: the same scratch
  // serves a healthy handle exactly.
  StatusOr<CompressedGraph> healthy = storage::OpenBuffer(buffer);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  ExpectExactBatch(healthy.value(), RealGraph(), &scratch);

  // Materialization walks the whole record stream, so it must fail too —
  // and the failure is sticky, not a crash on retry.
  EXPECT_FALSE(opened.value().Materialize().ok());
  EXPECT_FALSE(opened.value().Materialize().ok());
  EXPECT_FALSE(opened.value().Verify(graph::Graph()).ok());

  // Damage to a leaf_at page fails a batch mid-walk instead, with the
  // coverage of the records read so far applied. A graph with several
  // leaf_at pages puts the damaged one behind healthy ones; the batch
  // must fail, and the scratch must still come back zeroed.
  const graph::Graph g = gen::ErdosRenyi(300, 1200, 29);
  StatusOr<CompressedGraph> mem = Engine().Summarize(g);
  ASSERT_TRUE(mem.ok());
  storage::SaveOptions save;
  save.page_size = storage::kMinPageSize;
  StatusOr<std::string> image = storage::Serialize(mem.value(), save);
  ASSERT_TRUE(image.ok());
  StatusOr<CompressedGraph> good = storage::OpenBuffer(image.value());
  ASSERT_TRUE(good.ok());
  const storage::PagedHeader& header = good.value().paged_source()->header();
  ASSERT_GE(header.leaf_at.num_pages, 2u);
  std::string bad = image.value();
  const uint32_t last_leaf_at =
      header.leaf_at.first_page + header.leaf_at.num_pages - 1;
  bad[static_cast<size_t>(last_leaf_at) * header.page_size] ^= 0x01;
  StatusOr<CompressedGraph> damaged = storage::OpenBuffer(std::move(bad));
  ASSERT_TRUE(damaged.ok()) << damaged.status().ToString();
  BatchScratch reused;
  std::vector<NodeId> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) all.push_back(v);
  s = damaged.value().NeighborsBatch(all, &result, &reused);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_EQ(result.size(), 0u);
  std::vector<uint64_t> degrees;
  s = damaged.value().DegreeBatch(all, &degrees, &reused);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_TRUE(degrees.empty());
  ExpectExactBatch(good.value(), g, &reused);
  ExpectExactBatch(mem.value(), g, &reused);
}

/// Overwrites the u32 at `offset` of a v2 image and re-seals every
/// checksum over it (its page's page-table entry, the page-table checksum
/// and the header checksum), the way an attacker who recomputes checksums
/// would: only the parsers' own bounds can catch the forged value.
void ForgeSealed(std::string* image, const storage::PagedHeader& header,
                 size_t offset, uint32_t value) {
  auto* bytes = reinterpret_cast<uint8_t*>(image->data());
  storage::PutLE32(bytes + offset, value);
  const uint32_t psz = header.page_size;
  const uint32_t page = static_cast<uint32_t>(offset / psz);
  const uint64_t epp = psz / storage::kPageTableStride;
  uint8_t* pt = bytes + static_cast<size_t>(header.page_table.first_page) * psz;
  storage::PutLE64(pt + (page / epp) * psz + (page % epp) *
                            storage::kPageTableStride,
                   storage::Checksum64(bytes + static_cast<size_t>(page) * psz,
                                       psz));
  // The header ends with the page-table checksum and then a checksum of
  // every header byte before it; find that seal, then rewrite both.
  const uint64_t pt_sum = storage::Checksum64(
      pt, static_cast<size_t>(header.page_table.num_pages) * psz);
  for (size_t pos = sizeof(storage::kPagedMagic);
       pos + 16 <= storage::kMinPageSize; ++pos) {
    if (storage::GetLE64(bytes + pos) == header.page_table_checksum &&
        storage::GetLE64(bytes + pos + 8) ==
            storage::Checksum64(bytes, pos + 8)) {
      storage::PutLE64(bytes + pos, pt_sum);
      storage::PutLE64(bytes + pos + 8, storage::Checksum64(bytes, pos + 8));
      return;
    }
  }
  FAIL() << "header seal not found";
}

// The rank and leaf_at entries are bounded at their page's first touch
// rather than per read. A forged entry that passes every checksum must
// still fail each query that reads its page — batch, degree and single —
// and materialization, while queries that miss the page answer exactly.
TEST(PagedCorruptionMatrix, ForgedIndexEntriesFailTheQueriesThatReadThem) {
  const graph::Graph g = gen::ErdosRenyi(300, 1200, 31);
  StatusOr<CompressedGraph> mem = Engine().Summarize(g);
  ASSERT_TRUE(mem.ok());
  storage::SaveOptions save;
  save.page_size = storage::kMinPageSize;
  StatusOr<std::string> image = storage::Serialize(mem.value(), save);
  ASSERT_TRUE(image.ok());
  StatusOr<CompressedGraph> good = storage::OpenBuffer(image.value());
  ASSERT_TRUE(good.ok());
  const storage::PagedHeader header = good.value().paged_source()->header();
  std::vector<NodeId> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) all.push_back(v);

  for (const bool rank : {true, false}) {
    SCOPED_TRACE(rank ? "rank entry" : "leaf_at entry");
    const storage::SectionRange& section = rank ? header.rank : header.leaf_at;
    std::string bad = image.value();
    ForgeSealed(&bad,
                header,
                static_cast<size_t>(section.first_page) * header.page_size,
                header.num_leaves);
    storage::OpenOptions eager;
    eager.eager_verify = true;  // every checksum passes
    StatusOr<CompressedGraph> forged = storage::OpenBuffer(bad, eager);
    ASSERT_TRUE(forged.ok()) << forged.status().ToString();

    BatchResult result;
    BatchScratch scratch;
    Status s = forged.value().NeighborsBatch(all, &result, &scratch);
    EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
    std::vector<uint64_t> degrees;
    s = forged.value().DegreeBatch(all, &degrees, &scratch);
    EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
    // Every single query that reads the page fails too, not just the
    // first; the answers it degrades to are empty.
    QueryScratch single;
    const uint64_t errors_before = forged.value().query_errors();
    size_t failed = 0;
    for (const NodeId v : all) {
      const uint64_t before = forged.value().query_errors();
      const std::vector<NodeId> got = forged.value().Neighbors(v, &single);
      if (forged.value().query_errors() != before) {
        ++failed;
        EXPECT_TRUE(got.empty()) << "node " << v;
      } else {
        EXPECT_EQ(Sorted(got), Sorted(g.Neighbors(v))) << "node " << v;
      }
    }
    // Single queries never read ranks; some read the forged leaf_at page.
    if (rank) {
      EXPECT_EQ(failed, 0u);
    } else {
      EXPECT_GT(failed, 0u);
    }
    EXPECT_EQ(forged.value().query_errors(), errors_before + failed);
    EXPECT_FALSE(forged.value().Materialize().ok());
    ExpectExactBatch(good.value(), g, &scratch);
  }
}

TEST(PagedCorruptionMatrix, ForgedHeaderCountsAreRejectedBeforeAllocating) {
  const std::string& good = RealPagedBuffer();
  // Rewriting header varints shifts field boundaries and breaks the
  // header checksum; every such forgery must die at open with a Status.
  // Target the first varint bytes after the magic (version, page size,
  // page count, leaf count, internal count, record bytes).
  for (size_t i = sizeof(storage::kPagedMagic);
       i < sizeof(storage::kPagedMagic) + 24; ++i) {
    for (uint8_t forged : {0x00, 0x7F, 0xFF}) {
      if (static_cast<uint8_t>(good[i]) == forged) continue;  // no-op forgery
      std::string bad = good;
      bad[i] = static_cast<char>(forged);
      StatusOr<CompressedGraph> opened = storage::OpenBuffer(std::move(bad));
      EXPECT_FALSE(opened.ok()) << "byte " << i << " forged to "
                                << static_cast<int>(forged);
    }
  }
}

TEST(PagedCorruptionMatrix, PageTableDamageIsRejectedAtOpen) {
  const std::string& good = RealPagedBuffer();
  // The page table starts at page 1; zeroing a data page's checksum
  // entry would disable verification of that page, so the table itself
  // is covered by a checksum in the (self-checksummed) header. Entries
  // 0 and 1 cover the header and the table (legitimately zero) — target
  // the data-page entries after them.
  for (size_t offset : {size_t{16}, size_t{24}, size_t{40}}) {
    std::string bad = good;
    for (int b = 0; b < 8; ++b) {
      bad[storage::kMinPageSize + offset + b] = '\0';
    }
    EXPECT_FALSE(storage::OpenBuffer(std::move(bad)).ok())
        << "zeroed page-table entry at offset " << offset;
  }
}

// --------------------------------------------------- query bounds checks
TEST(QueryBounds, OutOfRangeSingleQueriesYieldEmptyAnswers) {
  graph::Graph g = gen::ErdosRenyi(300, 1200, 17);
  Engine engine;
  StatusOr<CompressedGraph> compressed = engine.Summarize(g);
  ASSERT_TRUE(compressed.ok());
  const CompressedGraph& cg = compressed.value();

  QueryScratch scratch;
  for (NodeId v : {cg.num_nodes(), cg.num_nodes() + 1,
                   NodeId{0x7FFFFFFF}, kInvalidId}) {
    EXPECT_TRUE(cg.Neighbors(v, &scratch).empty()) << v;
    EXPECT_EQ(cg.Degree(v, &scratch), 0u) << v;
    EXPECT_TRUE(cg.Neighbors(v).empty()) << v;  // thread-local overload
    EXPECT_EQ(cg.Degree(v), 0u) << v;
  }
  // In-range queries still work after the rejected ones (the scratch was
  // not poisoned).
  EXPECT_EQ(cg.Degree(0, &scratch), g.Degree(0));
}

TEST(QueryBounds, BatchWithAnyOutOfRangeIdIsInvalidArgument) {
  graph::Graph g = gen::ErdosRenyi(300, 1200, 18);
  Engine engine;
  StatusOr<CompressedGraph> compressed = engine.Summarize(g);
  ASSERT_TRUE(compressed.ok());
  const CompressedGraph& cg = compressed.value();

  std::vector<NodeId> nodes = {1, 2, cg.num_nodes(), 3};
  BatchResult result;
  BatchScratch scratch;
  Status s = cg.NeighborsBatch(nodes, &result, &scratch);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  std::vector<uint64_t> degrees;
  EXPECT_EQ(cg.DegreeBatch(nodes, &degrees, &scratch).code(),
            Status::Code::kInvalidArgument);

  // The same batch minus the bad id succeeds and agrees with the graph.
  nodes[2] = 0;
  ASSERT_TRUE(cg.NeighborsBatch(nodes, &result, &scratch).ok());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(result[i].size(), g.Degree(nodes[i]));
  }
}

TEST(QueryBounds, OutOfRangeOverridesAreIgnoredOnBothBackends) {
  graph::Graph g = gen::ErdosRenyi(300, 1200, 19);
  Engine engine;
  StatusOr<CompressedGraph> mem = engine.Summarize(g);
  ASSERT_TRUE(mem.ok());
  StatusOr<std::string> bytes = storage::Serialize(mem.value());
  ASSERT_TRUE(bytes.ok());
  StatusOr<CompressedGraph> paged = storage::OpenBuffer(std::move(bytes).value());
  ASSERT_TRUE(paged.ok());
  ASSERT_TRUE(paged.value().paged());

  // An override naming no node of the graph names no pair of it: both
  // backends skip it. Fresh scratches size their counters to exactly
  // num_nodes(), so an unchecked write lands past the end (ASan).
  const NodeId n = g.num_nodes();
  const std::vector<NeighborOverride> overrides = {
      {n, +1}, {n + 1, -1}, {kInvalidId, +1}};
  for (const CompressedGraph* cg : {&mem.value(), &paged.value()}) {
    for (NodeId v : {NodeId{0}, NodeId{1}, n - 1}) {
      QueryScratch plain, forced, degree_scratch;
      const std::vector<NodeId> want = Sorted(cg->Neighbors(v, &plain));
      EXPECT_EQ(want, Sorted(g.Neighbors(v))) << "node " << v;
      EXPECT_EQ(Sorted(cg->Neighbors(v, &forced, overrides)), want)
          << "node " << v;
      EXPECT_EQ(cg->Degree(v, &degree_scratch, overrides), want.size())
          << "node " << v;
    }
  }
}

}  // namespace
}  // namespace slugger
