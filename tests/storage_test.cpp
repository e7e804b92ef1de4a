// Tests for the unified persistence layer (slugger::storage) and the
// paged v2 read path: format negotiation between v1 monolithic and v2
// paged files, a paged-open handle and an in-memory one both answering
// the input graph exactly across the whole query surface (single,
// batched, overlayed via DynamicGraph), page-touch accounting (a cold
// open does O(header + page table) I/O and a single query faults in no
// more pages than its ancestor chain explains), residency bounds of the
// pread backend, and lazy materialization for analytics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/dynamic_graph.hpp"
#include "api/engine.hpp"
#include "gen/generators.hpp"
#include "graph/graph.hpp"
#include "storage/format.hpp"
#include "storage/paged_source.hpp"
#include "storage/storage.hpp"
#include "summary/cover_layout.hpp"
#include "summary/serialize.hpp"

namespace slugger {
namespace {

CompressedGraph Summarize(const graph::Graph& g, uint64_t seed = 7) {
  EngineOptions options;
  options.config.iterations = 10;
  options.config.seed = seed;
  Engine engine(options);
  StatusOr<CompressedGraph> compressed = engine.Summarize(g);
  EXPECT_TRUE(compressed.ok()) << compressed.status().ToString();
  return std::move(compressed).value();
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<NodeId> SortedNeighbors(const CompressedGraph& cg, NodeId v,
                                    QueryScratch* scratch) {
  std::vector<NodeId> out = cg.Neighbors(v, scratch);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> Sorted(std::span<const NodeId> list) {
  std::vector<NodeId> out(list.begin(), list.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Asserts the full query surface of both handles answers `g`, the graph
/// they summarize: single-node, batched (with duplicates), and degree
/// flavors. Both backends run the same coverage walk, so agreement between
/// them alone would not check the walk; the graph is the oracle.
void ExpectAgreement(const graph::Graph& g, const CompressedGraph& mem,
                     const CompressedGraph& paged) {
  ASSERT_EQ(mem.num_nodes(), g.num_nodes());
  ASSERT_EQ(paged.num_nodes(), g.num_nodes());
  QueryScratch qa, qb;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::vector<NodeId> want = Sorted(g.Neighbors(v));
    EXPECT_EQ(SortedNeighbors(mem, v, &qa), want) << "node " << v;
    EXPECT_EQ(SortedNeighbors(paged, v, &qb), want) << "node " << v;
    EXPECT_EQ(mem.Degree(v, &qa), want.size()) << "node " << v;
    EXPECT_EQ(paged.Degree(v, &qb), want.size()) << "node " << v;
  }

  // A batch over every node plus shuffled duplicates.
  std::vector<NodeId> nodes(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) nodes[v] = v;
  std::mt19937 rng(99);
  for (int i = 0; i < 64 && g.num_nodes() > 0; ++i) {
    nodes.push_back(static_cast<NodeId>(rng() % g.num_nodes()));
  }
  std::shuffle(nodes.begin(), nodes.end(), rng);

  BatchResult ra, rb;
  BatchScratch sa, sb;
  ASSERT_TRUE(mem.NeighborsBatch(nodes, &ra, &sa).ok());
  ASSERT_TRUE(paged.NeighborsBatch(nodes, &rb, &sb).ok());
  ASSERT_EQ(ra.size(), nodes.size());
  ASSERT_EQ(rb.size(), nodes.size());
  std::vector<uint64_t> want_degrees;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::vector<NodeId> want = Sorted(g.Neighbors(nodes[i]));
    EXPECT_EQ(Sorted(ra[i]), want) << "batch position " << i;
    EXPECT_EQ(Sorted(rb[i]), want) << "batch position " << i;
    want_degrees.push_back(want.size());
  }

  std::vector<uint64_t> da, db;
  ASSERT_TRUE(mem.DegreeBatch(nodes, &da, &sa).ok());
  ASSERT_TRUE(paged.DegreeBatch(nodes, &db, &sb).ok());
  EXPECT_EQ(da, want_degrees);
  EXPECT_EQ(db, want_degrees);
}

/// ExpectAgreement against the graph the in-memory summary decodes to.
void ExpectAgreement(const CompressedGraph& mem, const CompressedGraph& paged) {
  ExpectAgreement(mem.Decode(), mem, paged);
}

// ------------------------------------------------------------- agreement
TEST(PagedStorage, PagedOpenAgreesWithInMemoryOnRmat) {
  graph::Graph g = gen::RMat(10, 6000, 0.57, 0.19, 0.19, 11);
  CompressedGraph mem = Summarize(g);
  const std::string path = TempPath("agree_rmat.slg2");
  storage::SaveOptions save;
  save.page_size = 4096;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());

  StatusOr<CompressedGraph> paged = storage::Open(path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_TRUE(paged.value().paged());
  EXPECT_EQ(paged.value().stats().cost, mem.stats().cost);
  ExpectAgreement(g, mem, paged.value());
  // Serving the whole sweep never required materializing.
  EXPECT_TRUE(paged.value().paged());
  std::remove(path.c_str());
}

TEST(PagedStorage, PagedOpenAgreesWithInMemoryOnErdosRenyi) {
  graph::Graph g = gen::ErdosRenyi(700, 4200, 23);
  CompressedGraph mem = Summarize(g, 23);
  storage::SaveOptions save;
  save.page_size = 1024;  // many small pages: records straddle boundaries
  StatusOr<std::string> bytes = storage::Serialize(mem, save);
  ASSERT_TRUE(bytes.ok());

  StatusOr<CompressedGraph> paged = storage::OpenBuffer(bytes.value());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_TRUE(paged.value().paged());
  ExpectAgreement(g, mem, paged.value());
}

TEST(PagedStorage, DynamicGraphOverPagedBaseAgrees) {
  graph::Graph g = gen::ErdosRenyi(400, 2000, 31);
  CompressedGraph mem = Summarize(g, 31);
  StatusOr<std::string> bytes = storage::Serialize(mem);
  ASSERT_TRUE(bytes.ok());
  StatusOr<CompressedGraph> paged = storage::OpenBuffer(std::move(bytes).value());
  ASSERT_TRUE(paged.ok());

  DynamicGraphOptions options;
  options.auto_compact = false;  // keep both sides serving overlay + base
  DynamicGraph over_mem(std::move(mem), options);
  DynamicGraph over_paged(std::move(paged).value(), options);

  std::vector<stream::EdgeEdit> edits;
  std::mt19937 rng(5);
  for (int i = 0; i < 300; ++i) {
    NodeId u = static_cast<NodeId>(rng() % 400);
    NodeId v = static_cast<NodeId>(rng() % 400);
    if (u == v) continue;
    edits.push_back({u, v,
                     (rng() & 1) ? stream::EditKind::kInsert
                                 : stream::EditKind::kDelete});
  }
  ASSERT_TRUE(over_mem.ApplyEdits(edits).ok());
  ASSERT_TRUE(over_paged.ApplyEdits(edits).ok());

  // The oracle: the edits replayed on plain adjacency sets.
  std::vector<std::set<NodeId>> want(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    want[u].insert(g.Neighbors(u).begin(), g.Neighbors(u).end());
  }
  for (const stream::EdgeEdit& e : edits) {
    if (e.kind == stream::EditKind::kInsert) {
      want[e.u].insert(e.v);
      want[e.v].insert(e.u);
    } else {
      want[e.u].erase(e.v);
      want[e.v].erase(e.u);
    }
  }

  QueryScratch qa, qb;
  for (NodeId v = 0; v < 400; ++v) {
    const std::vector<NodeId> expected(want[v].begin(), want[v].end());
    EXPECT_EQ(Sorted(over_mem.Neighbors(v, &qa)), expected) << "node " << v;
    EXPECT_EQ(Sorted(over_paged.Neighbors(v, &qb)), expected) << "node " << v;
    EXPECT_EQ(over_mem.Degree(v, &qa), expected.size()) << "node " << v;
    EXPECT_EQ(over_paged.Degree(v, &qb), expected.size()) << "node " << v;
  }

  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < 400; ++v) nodes.push_back(v);
  BatchResult ra, rb;
  OverlayBatchScratch sa, sb;
  ASSERT_TRUE(over_mem.NeighborsBatch(nodes, &ra, &sa).ok());
  ASSERT_TRUE(over_paged.NeighborsBatch(nodes, &rb, &sb).ok());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::vector<NodeId> expected(want[nodes[i]].begin(),
                                       want[nodes[i]].end());
    EXPECT_EQ(Sorted(ra[i]), expected) << "batch position " << i;
    EXPECT_EQ(Sorted(rb[i]), expected) << "batch position " << i;
  }
}

// ------------------------------------------------------ batch walk order
/// The processing order the batch walk promises: batch positions by
/// ascending (leaf-preorder rank, position), as std::sort orders the keys.
std::vector<uint32_t> RankPositionOrder(std::span<const uint32_t> rank,
                                        std::span<const NodeId> nodes) {
  std::vector<uint64_t> keys(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    keys[i] = (static_cast<uint64_t>(rank[nodes[i]]) << 32) | i;
  }
  std::sort(keys.begin(), keys.end());
  std::vector<uint32_t> order;
  for (uint64_t k : keys) order.push_back(static_cast<uint32_t>(k));
  return order;
}

/// The rank section of a v2 image, as the paged walk reads it.
std::vector<uint32_t> PagedRanks(const std::string& bytes) {
  StatusOr<storage::PagedHeader> header =
      storage::ParsePagedHeader(bytes.data(), bytes.size(), bytes.size());
  EXPECT_TRUE(header.ok()) << header.status().ToString();
  const storage::PagedHeader& h = header.value();
  const uint64_t per_page = h.page_size / storage::kRankStride;
  std::vector<uint32_t> rank(h.num_leaves);
  for (NodeId v = 0; v < h.num_leaves; ++v) {
    rank[v] = storage::GetLE32(
        reinterpret_cast<const uint8_t*>(bytes.data()) +
        (h.rank.first_page + v / per_page) * h.page_size +
        (v % per_page) * storage::kRankStride);
  }
  return rank;
}

TEST(BatchWalk, ProcessesNodesInRankPositionOrderOnBothBackends) {
  // 1,024 leaves sort in one radix pass, 4,096 in two.
  for (uint32_t scale : {10u, 12u}) {
    SCOPED_TRACE("rmat scale " + std::to_string(scale));
    const NodeId n = NodeId{1} << scale;
    graph::Graph g = gen::RMat(scale, 6 * n, 0.57, 0.19, 0.19, 13);
    CompressedGraph mem = Summarize(g);
    StatusOr<std::string> bytes = storage::Serialize(mem);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    StatusOr<CompressedGraph> paged = storage::OpenBuffer(bytes.value());
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    ASSERT_TRUE(paged.value().paged());

    // Repeats at scattered positions make rank ties that only the
    // position can break, and a pool of half the leaves spreads the
    // ranks over every digit.
    std::mt19937 rng(scale);
    std::vector<NodeId> hot(n / 2);
    for (NodeId& v : hot) v = static_cast<NodeId>(rng() % n);
    std::vector<NodeId> nodes(3 * n);
    for (NodeId& v : nodes) v = hot[rng() % hot.size()];

    BatchResult out;
    BatchScratch scratch;
    ASSERT_TRUE(mem.NeighborsBatch(nodes, &out, &scratch).ok());
    const summary::CoverLayout layout(mem.summary());
    EXPECT_EQ(scratch.order, RankPositionOrder(layout.rank(), nodes));
    ASSERT_TRUE(paged.value().NeighborsBatch(nodes, &out, &scratch).ok());
    EXPECT_EQ(scratch.order,
              RankPositionOrder(PagedRanks(bytes.value()), nodes));
  }
}

// ----------------------------------------------------------- negotiation
TEST(StorageApi, V1FilesOpenThroughTheSameEntryPoint) {
  graph::Graph g = gen::ErdosRenyi(300, 1500, 41);
  CompressedGraph cg = Summarize(g, 41);
  const std::string path = TempPath("negotiate.v1.summary");
  storage::SaveOptions v1;
  v1.format = storage::Format::kMonolithicV1;
  ASSERT_TRUE(storage::Save(cg, path, v1).ok());

  // Byte-compatible with the legacy writer.
  StatusOr<std::string> bytes = storage::Serialize(cg, v1);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), summary::SerializeSummary(cg.summary()));

  for (auto mode : {storage::OpenOptions::Mode::kAuto,
                    storage::OpenOptions::Mode::kInMemory}) {
    storage::OpenOptions options;
    options.mode = mode;
    StatusOr<CompressedGraph> opened = storage::Open(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    // A v1 file has no pages to serve from; every mode lands in memory.
    EXPECT_FALSE(opened.value().paged());
    EXPECT_TRUE(opened.value().Verify(g).ok());
  }
  std::remove(path.c_str());
}

TEST(StorageApi, OpenModeControlsPagedServing) {
  graph::Graph g = gen::ErdosRenyi(300, 1500, 43);
  CompressedGraph cg = Summarize(g, 43);
  const std::string path = TempPath("negotiate.v2.slg2");
  ASSERT_TRUE(storage::Save(cg, path).ok());  // default: paged v2

  StatusOr<CompressedGraph> paged = storage::Open(path);
  ASSERT_TRUE(paged.ok());
  EXPECT_TRUE(paged.value().paged());
  ASSERT_NE(paged.value().paged_source(), nullptr);

  storage::OpenOptions in_memory;
  in_memory.mode = storage::OpenOptions::Mode::kInMemory;
  StatusOr<CompressedGraph> eager = storage::Open(path, in_memory);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_FALSE(eager.value().paged());
  EXPECT_TRUE(eager.value().Verify(g).ok());
  std::remove(path.c_str());
}

TEST(StorageApi, MissingAndGarbageFilesAreErrors) {
  EXPECT_FALSE(storage::Open(TempPath("absent.slg2")).ok());
  EXPECT_FALSE(storage::OpenBuffer("definitely not a summary").ok());
  EXPECT_FALSE(storage::OpenBuffer("").ok());
}

TEST(StorageApi, EmptyGraphRoundTripsBothFormats) {
  CompressedGraph empty{summary::SummaryGraph(0)};
  for (auto format :
       {storage::Format::kMonolithicV1, storage::Format::kPagedV2}) {
    storage::SaveOptions save;
    save.format = format;
    StatusOr<std::string> bytes = storage::Serialize(empty, save);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    StatusOr<CompressedGraph> opened =
        storage::OpenBuffer(std::move(bytes).value());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened.value().num_nodes(), 0u);
  }
}

TEST(StorageApi, InvalidPageSizeIsRejected) {
  CompressedGraph cg = Summarize(gen::ErdosRenyi(50, 100, 3), 3);
  for (uint32_t page_size : {0u, 100u, 128u, 1u << 17, 3000u}) {
    storage::SaveOptions save;
    save.page_size = page_size;
    EXPECT_FALSE(storage::Serialize(cg, save).ok()) << page_size;
  }
}

// ------------------------------------------------------- page accounting
TEST(PagedStorage, ColdOpenReadsOnlyHeaderAndPageTable) {
  graph::Graph g = gen::RMat(11, 12000, 0.57, 0.19, 0.19, 13);
  CompressedGraph mem = Summarize(g, 13);
  const std::string path = TempPath("accounting.slg2");
  storage::SaveOptions save;
  save.page_size = 1024;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());

  StatusOr<CompressedGraph> paged = storage::Open(path);
  ASSERT_TRUE(paged.ok());
  auto source = paged.value().paged_source();
  ASSERT_NE(source, nullptr);
  // The open itself parsed the header and page table with plain reads —
  // the buffer manager has not faulted a single page yet.
  EXPECT_EQ(source->buffer_stats().faults, 0u);
  EXPECT_GT(source->header().num_pages, 16u);
  std::remove(path.c_str());
}

TEST(PagedStorage, SingleQueryPinsNoMoreThanItsAncestorChain) {
  graph::Graph g = gen::RMat(11, 12000, 0.57, 0.19, 0.19, 13);
  CompressedGraph mem = Summarize(g, 13);
  storage::SaveOptions save;
  save.page_size = 1024;
  StatusOr<std::string> bytes = storage::Serialize(mem, save);
  ASSERT_TRUE(bytes.ok());
  storage::OpenOptions options;
  options.record_cache_capacity = 0;  // count real page touches
  StatusOr<CompressedGraph> paged =
      storage::OpenBuffer(std::move(bytes).value(), options);
  ASSERT_TRUE(paged.ok());
  auto source = paged.value().paged_source();
  ASSERT_NE(source, nullptr);
  const uint32_t psz = source->header().page_size;

  QueryScratch scratch;
  std::mt19937 rng(17);
  for (int probe = 0; probe < 20; ++probe) {
    const NodeId v = static_cast<NodeId>(rng() % paged.value().num_nodes());
    StatusOr<storage::ChainInfo> chain = source->ChainOf(v);
    ASSERT_TRUE(chain.ok());
    const uint64_t before = source->buffer_stats().faults;
    (void)paged.value().Neighbors(v, &scratch);
    const uint64_t touched = source->buffer_stats().faults - before;

    // Page budget the chain explains: one rank page, locator and record
    // pages for each ancestor (a record may straddle a page boundary),
    // and the leaf_at runs of each superedge's endpoint interval.
    const storage::ChainInfo& c = chain.value();
    const uint64_t budget = 1 + c.chain_len            // rank + locator
                            + c.chain_len + c.chain_bytes / psz  // records
                            + c.num_edges + (c.covered_leaves * 4) / psz + 2;
    EXPECT_LE(touched, budget) << "node " << v;
  }
  // Pins are released as the walk goes; nothing stays pinned after, and
  // the walk never held more than a handful of pages at once.
  EXPECT_EQ(source->buffer_stats().pinned_now, 0u);
  EXPECT_LE(source->buffer_stats().max_pinned, 4u);
}

TEST(PagedStorage, PreadBackendBoundsResidency) {
  graph::Graph g = gen::ErdosRenyi(600, 3600, 53);
  CompressedGraph mem = Summarize(g, 53);
  const std::string path = TempPath("pread.slg2");
  storage::SaveOptions save;
  save.page_size = 512;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());

  storage::OpenOptions options;
  options.buffer.io = storage::Io::kPread;
  options.buffer.max_resident_pages = 8;
  StatusOr<CompressedGraph> paged = storage::Open(path, options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto source = paged.value().paged_source();
  ASSERT_EQ(source->backend(), storage::Io::kPread);

  ExpectAgreement(g, mem, paged.value());
  const storage::BufferStats stats = source->buffer_stats();
  EXPECT_LE(stats.resident_pages, 8u);
  EXPECT_GT(stats.evictions, 0u);  // the sweep cycled the tiny cache
  std::remove(path.c_str());
}

// -------------------------------------------------------- materialization
TEST(PagedStorage, AnalyticsMaterializeAndAgree) {
  graph::Graph g = gen::ErdosRenyi(500, 3000, 61);
  CompressedGraph mem = Summarize(g, 61);
  StatusOr<std::string> bytes = storage::Serialize(mem);
  ASSERT_TRUE(bytes.ok());
  StatusOr<CompressedGraph> paged = storage::OpenBuffer(std::move(bytes).value());
  ASSERT_TRUE(paged.ok());
  EXPECT_TRUE(paged.value().paged());

  EXPECT_EQ(paged.value().Triangles(), mem.Triangles());
  EXPECT_EQ(paged.value().Bfs(0), mem.Bfs(0));
  // The rebuilt summary renumbers supernodes, so PageRank sums in a
  // different order — equal up to floating-point rounding.
  const std::vector<double> pr_paged = paged.value().PageRank();
  const std::vector<double> pr_mem = mem.PageRank();
  ASSERT_EQ(pr_paged.size(), pr_mem.size());
  for (size_t i = 0; i < pr_mem.size(); ++i) {
    EXPECT_NEAR(pr_paged[i], pr_mem[i], 1e-12) << "node " << i;
  }
  EXPECT_TRUE(paged.value().Decode() == g);
  EXPECT_TRUE(paged.value().Verify(g).ok());
  // The first analytics call materialized the summary; from here on the
  // handle serves from memory.
  EXPECT_FALSE(paged.value().paged());
  ExpectAgreement(g, mem, paged.value());
}

TEST(PagedStorage, ExplicitMaterializeIsIdempotent) {
  graph::Graph g = gen::ErdosRenyi(200, 1000, 67);
  CompressedGraph mem = Summarize(g, 67);
  StatusOr<std::string> bytes = storage::Serialize(mem);
  ASSERT_TRUE(bytes.ok());
  StatusOr<CompressedGraph> paged = storage::OpenBuffer(std::move(bytes).value());
  ASSERT_TRUE(paged.ok());

  // Copies share one materialization.
  CompressedGraph copy = paged.value();
  ASSERT_TRUE(copy.Materialize().ok());
  ASSERT_TRUE(copy.Materialize().ok());
  EXPECT_FALSE(paged.value().paged());
  EXPECT_EQ(copy.summary().num_leaves(), mem.num_nodes());
  ExpectAgreement(g, mem, copy);
}

// ------------------------------------------------------ concurrent churn
// These run under ThreadSanitizer in CI (gtest_filter=PagedChurn.*): the
// pread frame cache is the one storage path with a real lock, and a tiny
// residency cap under concurrent readers keeps it constantly evicting —
// the access pattern most likely to expose a race in Fetch/Unpin or the
// record cache shards.

TEST(PagedChurn, ConcurrentReadersChurnTinyPreadCache) {
  graph::Graph g = gen::ErdosRenyi(500, 3000, 71);
  CompressedGraph mem = Summarize(g, 71);
  const std::string path = TempPath("churn.slg2");
  storage::SaveOptions save;
  save.page_size = 512;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());

  storage::OpenOptions options;
  options.buffer.io = storage::Io::kPread;
  // Small enough to churn, big enough that four concurrent walks (a few
  // pins each) never need an overflow frame, so the residency cap below
  // holds exactly.
  options.buffer.max_resident_pages = 16;
  StatusOr<CompressedGraph> paged = storage::Open(path, options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto source = paged.value().paged_source();
  ASSERT_EQ(source->backend(), storage::Io::kPread);

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 400;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(100 + t);
      QueryScratch scratch;
      BatchScratch batch_scratch;
      BatchResult batch_result;
      std::vector<uint64_t> degrees;
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const NodeId v = rng() % mem.num_nodes();
        std::vector<NodeId> got = paged.value().Neighbors(v, &scratch);
        QueryScratch mem_scratch;
        std::vector<NodeId> want = mem.Neighbors(v, &mem_scratch);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        if (got != want) failed.store(true, std::memory_order_relaxed);

        // Every 16th step also runs a small batch (with a duplicate)
        // through the paged batch walk, racing the other readers.
        if (i % 16 != 0) continue;
        std::vector<NodeId> nodes = {v, v};
        for (int j = 0; j < 6; ++j) nodes.push_back(rng() % mem.num_nodes());
        if (!paged.value().NeighborsBatch(nodes, &batch_result, &batch_scratch)
                 .ok() ||
            !paged.value().DegreeBatch(nodes, &degrees, &batch_scratch).ok()) {
          failed.store(true, std::memory_order_relaxed);
          continue;
        }
        for (size_t k = 0; k < nodes.size(); ++k) {
          if (Sorted(batch_result[k]) != Sorted(g.Neighbors(nodes[k])) ||
              degrees[k] != g.Degree(nodes[k])) {
            failed.store(true, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // Stats polling races the readers by design — the accessors must stay
  // safe (and the residency bound must hold) mid-churn.
  for (int i = 0; i < 200; ++i) {
    const storage::BufferStats stats = source->buffer_stats();
    EXPECT_LE(stats.resident_pages, 16u);
  }
  for (std::thread& th : readers) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(source->buffer_stats().evictions, 0u);
  std::remove(path.c_str());
}

TEST(PagedChurn, MaterializeRacesPagedReaders) {
  graph::Graph g = gen::ErdosRenyi(400, 2400, 73);
  CompressedGraph mem = Summarize(g, 73);
  const std::string path = TempPath("churn_mat.slg2");
  storage::SaveOptions save;
  save.page_size = 512;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());

  storage::OpenOptions options;
  options.buffer.io = storage::Io::kPread;
  options.buffer.max_resident_pages = 6;
  StatusOr<CompressedGraph> paged = storage::Open(path, options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  // Readers start on the paged path; Materialize swings the handle to
  // the in-memory summary mid-flight. Answers must agree regardless of
  // which side of the swap each query lands on.
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(200 + t);
      QueryScratch scratch;
      for (int i = 0; i < 300; ++i) {
        const NodeId v = rng() % mem.num_nodes();
        std::vector<NodeId> got = paged.value().Neighbors(v, &scratch);
        QueryScratch mem_scratch;
        std::vector<NodeId> want = mem.Neighbors(v, &mem_scratch);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        if (got != want) failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_TRUE(paged.value().Materialize().ok());
  for (std::thread& th : readers) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_FALSE(paged.value().paged());
  ExpectAgreement(mem, paged.value());
  std::remove(path.c_str());
}

// Fresh handles publish what queries walk at first use: a paged handle
// each record at its first parse, an in-memory handle its record layout
// at its first query. Four readers start on one together and race to
// publish the same records through single, batched and degree queries;
// every answer must be the graph's, on the mmap backend, on an in-memory
// image and on an in-memory summary.
TEST(PagedPublish, ReadersRaceToPublishOnFreshHandles) {
  graph::Graph g = gen::ErdosRenyi(500, 3000, 79);
  CompressedGraph mem = Summarize(g, 79);
  const std::string path = TempPath("publish_race.slg2");
  storage::SaveOptions save;
  save.page_size = 512;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());
  StatusOr<std::string> image = storage::Serialize(mem, save);
  ASSERT_TRUE(image.ok());

  for (const std::string handle : {"mmap file", "image", "summary"}) {
    SCOPED_TRACE(handle);
    storage::OpenOptions options;
    options.buffer.io = storage::Io::kMmap;
    StatusOr<CompressedGraph> paged =
        handle == "summary"
            ? StatusOr<CompressedGraph>(CompressedGraph(mem.summary()))
        : handle == "image" ? storage::OpenBuffer(image.value(), options)
                            : storage::Open(path, options);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    ASSERT_EQ(paged.value().paged(), handle != "summary");

    constexpr int kThreads = 4;
    std::atomic<int> ready{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> readers;
    readers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        std::mt19937 rng(300 + t);
        std::vector<NodeId> nodes(g.num_nodes());
        for (NodeId v = 0; v < g.num_nodes(); ++v) nodes[v] = v;
        std::shuffle(nodes.begin(), nodes.end(), rng);
        BatchScratch batch_scratch;
        BatchResult result;
        std::vector<uint64_t> degrees;
        QueryScratch scratch;
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        // Half the readers open with a batch, half with single queries,
        // so both paths parse records the others are parsing.
        if (t % 2 == 0) {
          if (!paged.value().NeighborsBatch(nodes, &result, &batch_scratch)
                   .ok() ||
              !paged.value().DegreeBatch(nodes, &degrees, &batch_scratch)
                   .ok()) {
            failed.store(true);
            return;
          }
          for (size_t i = 0; i < nodes.size(); ++i) {
            if (Sorted(result[i]) != Sorted(g.Neighbors(nodes[i])) ||
                degrees[i] != g.Degree(nodes[i])) {
              failed.store(true);
            }
          }
        }
        for (const NodeId v : nodes) {
          if (SortedNeighbors(paged.value(), v, &scratch) !=
              Sorted(g.Neighbors(v))) {
            failed.store(true);
          }
        }
      });
    }
    for (std::thread& th : readers) th.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(paged.value().query_errors(), 0u);
    ExpectAgreement(g, mem, paged.value());
  }
  std::remove(path.c_str());
}

// A cap below the file's record count publishes some records and parses
// the rest on every access; at 0 nothing is published. Either way every
// answer is exact, on each backend, a 2-frame pread cache included.
TEST(PagedStorage, RecordCapBelowTheFileServesExactly) {
  graph::Graph g = gen::ErdosRenyi(400, 2400, 83);
  CompressedGraph mem = Summarize(g, 83);
  const std::string path = TempPath("record_cap.slg2");
  storage::SaveOptions save;
  save.page_size = 512;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());
  StatusOr<std::string> image = storage::Serialize(mem, save);
  ASSERT_TRUE(image.ok());

  for (const uint32_t cap : {0u, 3u}) {
    for (const storage::Io io :
         {storage::Io::kMmap, storage::Io::kMemory, storage::Io::kPread}) {
      SCOPED_TRACE("cap " + std::to_string(cap) + ", backend " +
                   std::to_string(static_cast<int>(io)));
      storage::OpenOptions options;
      options.record_cache_capacity = cap;
      options.buffer.max_resident_pages = 2;
      if (io != storage::Io::kMemory) options.buffer.io = io;
      StatusOr<CompressedGraph> paged =
          io == storage::Io::kMemory
              ? storage::OpenBuffer(image.value(), options)
              : storage::Open(path, options);
      ASSERT_TRUE(paged.ok()) << paged.status().ToString();
      ASSERT_EQ(paged.value().paged_source()->backend(), io);
      ExpectAgreement(g, mem, paged.value());
      EXPECT_EQ(paged.value().query_errors(), 0u);
      EXPECT_EQ(paged.value().paged_source()->buffer_stats().pinned_now, 0u);
    }
  }
  std::remove(path.c_str());
}

// A pread cache of one or two frames is smaller than what one walk pins
// at once (Materialize holds three pages). Fetches that find every frame
// pinned overflow instead of failing, so every answer stays exact and the
// cache shrinks back to its cap once the pins are gone.
TEST(PagedStorage, TinyPreadCacheServesAndMaterializes) {
  graph::Graph g = gen::ErdosRenyi(400, 2400, 73);
  CompressedGraph mem = Summarize(g, 73);
  const std::string path = TempPath("tiny_pread.slg2");
  storage::SaveOptions save;
  save.page_size = 512;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());

  for (uint32_t frames : {1u, 2u}) {
    SCOPED_TRACE("max_resident_pages " + std::to_string(frames));
    storage::OpenOptions options;
    options.buffer.io = storage::Io::kPread;
    options.buffer.max_resident_pages = frames;
    StatusOr<CompressedGraph> paged = storage::Open(path, options);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    auto source = paged.value().paged_source();
    ASSERT_EQ(source->backend(), storage::Io::kPread);

    QueryScratch scratch;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::vector<NodeId> want = Sorted(g.Neighbors(v));
      EXPECT_EQ(SortedNeighbors(paged.value(), v, &scratch), want)
          << "node " << v;
      EXPECT_EQ(paged.value().Degree(v, &scratch), want.size())
          << "node " << v;
    }
    std::vector<NodeId> nodes;
    for (NodeId v = 0; v < g.num_nodes(); ++v) nodes.push_back(v);
    nodes.push_back(7);
    nodes.push_back(7);
    BatchResult result;
    BatchScratch batch_scratch;
    std::vector<uint64_t> degrees;
    ASSERT_TRUE(paged.value().NeighborsBatch(nodes, &result, &batch_scratch)
                    .ok());
    ASSERT_TRUE(paged.value().DegreeBatch(nodes, &degrees, &batch_scratch)
                    .ok());
    for (size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(Sorted(result[i]), Sorted(g.Neighbors(nodes[i])))
          << "batch position " << i;
      EXPECT_EQ(degrees[i], g.Degree(nodes[i])) << "batch position " << i;
    }
    EXPECT_EQ(paged.value().query_errors(), 0u);

    storage::BufferStats stats = source->buffer_stats();
    EXPECT_EQ(stats.pinned_now, 0u);
    EXPECT_LE(stats.resident_pages, frames);

    ASSERT_TRUE(paged.value().Materialize().ok());
    EXPECT_FALSE(paged.value().paged());
    EXPECT_TRUE(paged.value().Verify(g).ok());
    stats = source->buffer_stats();
    EXPECT_EQ(stats.pinned_now, 0u);
    EXPECT_LE(stats.resident_pages, frames);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace slugger
