#include "storage/paged_source.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <sys/stat.h>
#include <utility>

#include "obs/metrics.hpp"
#include "summary/coverage_walk.hpp"

namespace slugger::storage {

namespace {

// Published-record effectiveness across every open paged source.
struct RecordCacheObsHandles {
  obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter(
      "slugger_paged_record_cache_hits_total",
      "ancestor-record lookups served by a published record");
  obs::Counter* misses = obs::MetricsRegistry::Global().GetCounter(
      "slugger_paged_record_cache_misses_total",
      "ancestor-record lookups that parsed pages");
};

const RecordCacheObsHandles& RecordCacheObs() {
  static RecordCacheObsHandles handles;
  return handles;
}

/// Varint cursor over the record stream, following it across page
/// boundaries through the buffer manager. Bounded by record_bytes: any
/// read past the stream end is Corruption, so a forged length can never
/// walk off the file.
class RecordCursor {
 public:
  RecordCursor(BufferManager* buffer, const PagedHeader& header, uint64_t pos)
      : buffer_(buffer),
        first_page_(header.records.first_page),
        page_size_(header.page_size),
        end_(header.record_bytes),
        pos_(pos) {}

  uint64_t pos() const { return pos_; }
  uint64_t remaining() const { return end_ - pos_; }

  Status Get(uint64_t* value) {
    uint64_t result = 0;
    int shift = 0;
    for (;;) {
      if (pos_ >= end_) {
        return Status::Corruption("record stream overrun");
      }
      const uint32_t rel = static_cast<uint32_t>(pos_ / page_size_);
      if (!page_ || rel != rel_page_) {
        StatusOr<PageRef> ref = buffer_->Fetch(first_page_ + rel);
        if (!ref.ok()) return ref.status();
        page_ = std::move(ref.value());
        rel_page_ = rel;
      }
      const uint8_t byte = page_.data()[pos_ % page_size_];
      ++pos_;
      if (shift > 63 || (shift == 63 && (byte & 0x7F) > 1)) {
        return Status::Corruption("varint overflow in record stream");
      }
      result |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    *value = result;
    return Status::OK();
  }

 private:
  BufferManager* buffer_;
  uint32_t first_page_;
  uint32_t rel_page_ = kInvalidId;
  uint64_t page_size_;
  uint64_t end_;
  uint64_t pos_;
  PageRef page_;
};

/// The batch walk with this thread's chain buffer: its handles point into
/// records the call may own, so they are dropped after every batch; its
/// capacity stays (no allocation once warm).
template <bool kDegreesOnly, typename Records>
Status WalkPagedBatch(const Records& records, std::span<const NodeId> nodes,
                      summary::BatchResult* result,
                      std::vector<uint64_t>* degrees,
                      summary::BatchScratch* scratch) {
  thread_local std::vector<typename Records::Handle> chains;
  Status status = summary::WalkBatch<kDegreesOnly>(records, nodes, result,
                                                   degrees, scratch, &chains);
  chains.clear();
  return status;
}

Status FullPread(int fd, uint8_t* out, size_t n, uint64_t off,
                 const std::string& what) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r =
        ::pread(fd, out + got, n - got, static_cast<off_t>(off + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read failed on " + what + ": " +
                             std::strerror(errno));
    }
    if (r == 0) return Status::Corruption("short read on " + what);
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<uint64_t>> PagedSummarySource::LoadPageTable(
    const PagedHeader& header, const uint8_t* pt_bytes) {
  const uint64_t pt_len =
      static_cast<uint64_t>(header.page_table.num_pages) * header.page_size;
  if (Checksum64(pt_bytes, pt_len) != header.page_table_checksum) {
    return Status::Corruption("page table checksum mismatch");
  }
  std::vector<uint64_t> sums(header.num_pages);
  const uint64_t epp = header.page_size / kPageTableStride;
  for (uint32_t p = 0; p < header.num_pages; ++p) {
    sums[p] = GetLE64(pt_bytes + (p / epp) * header.page_size +
                      (p % epp) * kPageTableStride);
  }
  return sums;
}

StatusOr<std::shared_ptr<PagedSummarySource>> PagedSummarySource::Finish(
    PagedHeader header, std::unique_ptr<BufferManager> buffer,
    const PagedOpenOptions& options) {
  // lint:allow(naked-new: private ctor, wrapped in shared_ptr on this line)
  auto src = std::shared_ptr<PagedSummarySource>(new PagedSummarySource());
  src->header_ = header;
  src->buffer_ = std::move(buffer);
  src->image_ = src->buffer_->stable_image();
  src->index_shift_ = static_cast<uint32_t>(
      std::countr_zero(header.page_size / kLeafAtStride));
  src->record_cap_ = options.record_cache_capacity;
  if (src->record_cap_ > 0) {
    src->chunks_ = std::make_unique<std::atomic<Slot*>[]>(
        (static_cast<uint64_t>(header.total_supernodes()) >> kSlotChunkBits) +
        1);
  }
  src->index_checked_ = std::make_unique<std::atomic<uint8_t>[]>(
      header.leaf_at.first_page + header.leaf_at.num_pages -
      header.rank.first_page);
  if (options.eager_verify) {
    // The header checksums cover page 0 only up to kMinPageSize (the
    // parser checks that window's slack); with larger pages the rest of
    // the header page must be the writer's zero fill.
    if (header.page_size > kMinPageSize) {
      StatusOr<PageRef> head = src->buffer_->Fetch(0);
      if (!head.ok()) return head.status();
      const uint8_t* data = head.value().data();
      for (uint32_t i = kMinPageSize; i < header.page_size; ++i) {
        if (data[i] != 0) {
          return Status::Corruption("nonzero slack in the header page");
        }
      }
    }
    // Touch every data page once; verify-once backends keep the verdict.
    for (uint32_t p = header.locator.first_page; p < header.num_pages; ++p) {
      StatusOr<PageRef> ref = src->buffer_->Fetch(p);
      if (!ref.ok()) return ref.status();
    }
  }
  return src;
}

StatusOr<std::shared_ptr<PagedSummarySource>> PagedSummarySource::OpenFile(
    const std::string& path, const PagedOpenOptions& options) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("fstat failed on " + path + ": " +
                           std::strerror(err));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  uint8_t head[kMinPageSize] = {};
  const size_t head_len =
      static_cast<size_t>(std::min<uint64_t>(file_size, kMinPageSize));
  Status s = FullPread(fd, head, head_len, 0, path + " header");
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  StatusOr<PagedHeader> header = ParsePagedHeader(
      reinterpret_cast<const char*>(head), head_len, file_size);
  if (!header.ok()) {
    ::close(fd);
    return header.status();
  }
  const PagedHeader& h = header.value();
  std::string pt(static_cast<uint64_t>(h.page_table.num_pages) * h.page_size,
                 '\0');
  s = FullPread(fd, reinterpret_cast<uint8_t*>(pt.data()), pt.size(),
                static_cast<uint64_t>(h.page_table.first_page) * h.page_size,
                path + " page table");
  ::close(fd);
  if (!s.ok()) return s;
  StatusOr<std::vector<uint64_t>> sums =
      LoadPageTable(h, reinterpret_cast<const uint8_t*>(pt.data()));
  if (!sums.ok()) return sums.status();
  StatusOr<std::unique_ptr<BufferManager>> buffer = BufferManager::OpenFile(
      path, h.page_size, std::move(sums).value(), options.buffer);
  if (!buffer.ok()) return buffer.status();
  return Finish(h, std::move(buffer).value(), options);
}

StatusOr<std::shared_ptr<PagedSummarySource>> PagedSummarySource::OpenBuffer(
    std::string bytes, const PagedOpenOptions& options) {
  StatusOr<PagedHeader> header =
      ParsePagedHeader(bytes.data(), bytes.size(), bytes.size());
  if (!header.ok()) return header.status();
  const PagedHeader& h = header.value();
  StatusOr<std::vector<uint64_t>> sums = LoadPageTable(
      h, reinterpret_cast<const uint8_t*>(bytes.data()) +
             static_cast<uint64_t>(h.page_table.first_page) * h.page_size);
  if (!sums.ok()) return sums.status();
  StatusOr<std::unique_ptr<BufferManager>> buffer = BufferManager::FromBuffer(
      std::move(bytes), h.page_size, std::move(sums).value());
  if (!buffer.ok()) return buffer.status();
  return Finish(h, std::move(buffer).value(), options);
}

StatusOr<uint64_t> PagedSummarySource::LocateRecord(uint32_t fid) const {
  if (fid >= header_.total_supernodes()) {
    return Status::InvalidArgument("supernode id out of range");
  }
  const uint64_t epp = header_.page_size / kLocatorStride;
  StatusOr<PageRef> ref =
      buffer_->Fetch(header_.locator.first_page +
                     static_cast<uint32_t>(fid / epp));
  if (!ref.ok()) return ref.status();
  const uint8_t* e = ref.value().data() + (fid % epp) * kLocatorStride;
  const uint32_t rpage = GetLE32(e);
  const uint32_t roff = GetLE16(e + 4);
  if (rpage < header_.records.first_page ||
      rpage >= header_.records.first_page + header_.records.num_pages ||
      roff >= header_.page_size) {
    return Status::Corruption("locator entry out of range");
  }
  const uint64_t pos =
      static_cast<uint64_t>(rpage - header_.records.first_page) *
          header_.page_size +
      roff;
  if (pos >= header_.record_bytes) {
    return Status::Corruption("locator points past the record stream");
  }
  return pos;
}

Status PagedSummarySource::ParseRecord(uint32_t fid,
                                       std::vector<summary::CoverEdge>* cells,
                                       uint64_t* bytes) const {
  StatusOr<uint64_t> pos = LocateRecord(fid);
  if (!pos.ok()) return pos.status();
  RecordCursor cur(buffer_.get(), header_, pos.value());
  const uint64_t total = header_.total_supernodes();
  const NodeId n = header_.num_leaves;
  uint64_t id = 0, parent_p1 = 0, lo = 0, len = 0, nedges = 0;
  Status s = cur.Get(&id);
  if (!s.ok()) return s;
  if (id != fid) {
    return Status::Corruption("record id disagrees with locator");
  }
  if (!(s = cur.Get(&parent_p1)).ok()) return s;
  uint32_t parent = kInvalidId;
  if (parent_p1 != 0) {
    const uint64_t claimed = parent_p1 - 1;
    // Bottom-up ids make every parent a later, internal supernode.
    if (claimed >= total || claimed <= fid || claimed < n) {
      return Status::Corruption("record parent out of range");
    }
    parent = static_cast<uint32_t>(claimed);
  }
  if (!(s = cur.Get(&lo)).ok()) return s;
  if (!(s = cur.Get(&len)).ok()) return s;
  if (len == 0 || lo > n || len > n - lo) {
    return Status::Corruption("record leaf interval out of range");
  }
  if (!(s = cur.Get(&nedges)).ok()) return s;
  // An edge encodes as three varints of at least one byte each; bound the
  // count by what the remaining stream can back before reserving.
  if (nedges > cur.remaining() / 3) {
    return Status::Corruption("record edge count exceeds the stream");
  }
  cells->clear();
  cells->reserve(nedges + 1);
  cells->push_back(
      summary::PackCoverHeader(parent, static_cast<uint32_t>(nedges)));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < nedges; ++i) {
    uint64_t packed = 0, olo = 0, olen = 0;
    if (!(s = cur.Get(&packed)).ok()) return s;
    const uint64_t delta = packed >> 1;
    if (delta > 0xFFFFFFFFull) {
      return Status::Corruption("edge endpoint delta out of range");
    }
    if (i > 0 && delta == 0) {
      return Status::Corruption("duplicate edge endpoint");
    }
    const uint64_t other = prev + delta;
    prev = other;
    if (other >= total) {
      return Status::Corruption("edge endpoint out of range");
    }
    if (!(s = cur.Get(&olo)).ok()) return s;
    if (!(s = cur.Get(&olen)).ok()) return s;
    if (olen == 0 || olo > n || olen > n - olo) {
      return Status::Corruption("edge endpoint interval out of range");
    }
    cells->push_back(summary::CoverEdge::Make(static_cast<uint32_t>(olo),
                                              static_cast<uint32_t>(olen),
                                              (packed & 1) ? +1 : -1));
  }
  // The hot path stops here: children are only needed by Materialize,
  // which parses the stream sequentially itself.
  *bytes = cur.pos() - pos.value();
  return Status::OK();
}

summary::CoverEdge* PagedSummarySource::Publish(
    uint32_t fid, std::unique_ptr<summary::CoverEdge[]>* record) const {
  if (chunks_ == nullptr) return nullptr;
  // Reserve a place under the cap, then race for the slot: the first
  // reader to parse fid publishes, later ones adopt its copy.
  uint32_t used = published_.load(std::memory_order_relaxed);
  do {
    if (used >= record_cap_) return nullptr;
  } while (!published_.compare_exchange_weak(used, used + 1,
                                             std::memory_order_relaxed));
  std::atomic<Slot*>& chunk_ref = chunks_[fid >> kSlotChunkBits];
  Slot* chunk = chunk_ref.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    auto fresh = std::make_unique<Slot[]>(size_t{kSlotChunkMask} + 1);
    if (chunk_ref.compare_exchange_strong(chunk, fresh.get(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      chunk = fresh.release();
    }
  }
  summary::CoverEdge* expected = nullptr;
  if (chunk[fid & kSlotChunkMask].compare_exchange_strong(
          expected, record->get(), std::memory_order_release,
          std::memory_order_acquire)) {
    return record->release();
  }
  published_.fetch_sub(1, std::memory_order_relaxed);
  return expected;
}

PagedSummarySource::~PagedSummarySource() {
  if (chunks_ == nullptr) return;
  const uint64_t num_chunks =
      (static_cast<uint64_t>(header_.total_supernodes()) >> kSlotChunkBits) +
      1;
  for (uint64_t c = 0; c < num_chunks; ++c) {
    std::unique_ptr<Slot[]> chunk(chunks_[c].load(std::memory_order_relaxed));
    if (chunk == nullptr) continue;
    for (uint32_t i = 0; i <= kSlotChunkMask; ++i) {
      std::unique_ptr<summary::CoverEdge[]> reclaim(
          chunk[i].load(std::memory_order_relaxed));
    }
  }
}

Status PagedSummarySource::CheckIndexPage(uint32_t page,
                                          const uint8_t* data) const {
  const bool rank = page < header_.leaf_at.first_page;
  const SectionRange& section = rank ? header_.rank : header_.leaf_at;
  const uint64_t first = static_cast<uint64_t>(page - section.first_page)
                         << index_shift_;
  const uint64_t entries =
      std::min<uint64_t>(uint64_t{1} << index_shift_,
                         header_.num_leaves - first);
  for (uint64_t i = 0; i < entries; ++i) {
    if (GetLE32(data + i * kLeafAtStride) >= header_.num_leaves) {
      return Status::Corruption(rank ? "rank entry out of range"
                                     : "leaf_at entry out of range");
    }
  }
  index_checked_[page - header_.rank.first_page].store(
      1, std::memory_order_release);
  return Status::OK();
}

// The rank and leaf_at sections share one entry width, so one index
// walk (and one first-touch check) serves both.
static_assert(kRankStride == kLeafAtStride);

template <typename Fn>
Status PagedSummarySource::ForIndexRun(const SectionRange& section,
                                       uint32_t lo, uint32_t last,
                                       Fn&& fn) const {
  const uint32_t first_page = section.first_page + (lo >> index_shift_);
  const uint32_t last_page = section.first_page + (last >> index_shift_);
  const auto checked = [this](uint32_t page) {
    return index_checked_[page - header_.rank.first_page].load(
               std::memory_order_acquire) != 0;
  };
  if (image_ != nullptr) {
    // Verify-once backend: a checked page never moves or changes, so the
    // run is read in place, across page boundaries, without a pin.
    for (uint32_t page = first_page; page <= last_page; ++page) {
      if (checked(page)) continue;
      StatusOr<PageRef> ref = buffer_->Fetch(page);
      if (!ref.ok()) return ref.status();
      Status s = CheckIndexPage(page, ref.value().data());
      if (!s.ok()) return s;
    }
    const uint8_t* base =
        image_ + static_cast<uint64_t>(section.first_page) * header_.page_size;
    for (uint64_t r = lo; r <= last; ++r) fn(GetLE32(base + r * kLeafAtStride));
    return Status::OK();
  }
  const uint32_t mask = (uint32_t{1} << index_shift_) - 1;
  uint32_t r = lo;
  for (uint32_t page = first_page; page <= last_page; ++page) {
    StatusOr<PageRef> ref = buffer_->Fetch(page);
    if (!ref.ok()) return ref.status();
    const uint8_t* data = ref.value().data();
    if (!checked(page)) {
      Status s = CheckIndexPage(page, data);
      if (!s.ok()) return s;
    }
    const uint32_t page_last =
        page == last_page ? last : (r | mask);  // the page's last entry
    for (; r <= page_last; ++r) fn(GetLE32(data + (r & mask) * kLeafAtStride));
  }
  return Status::OK();
}

class PagedSummarySource::Records {
 public:
  /// One ancestor: its id (what chain reuse compares) and its record,
  /// held so covering it never looks the record up again.
  struct Handle {
    uint32_t fid;
    const summary::CoverEdge* record;
    friend bool operator==(const Handle& a, const Handle& b) {
      return a.fid == b.fid;
    }
  };

  explicit Records(const PagedSummarySource* source) : source_(source) {}
  Records(const Records&) = delete;
  Records& operator=(const Records&) = delete;
  /// Tallies the call's lookups into the process-wide counters.
  ~Records() {
    if (hits_ != 0) RecordCacheObs().hits->Add(hits_);
    if (misses_ != 0) RecordCacheObs().misses->Add(misses_);
  }

  NodeId num_leaves() const { return source_->header_.num_leaves; }

  template <typename Fn>
  Status ForEachRank(std::span<const NodeId> nodes, Fn&& fn) const {
    for (size_t i = 0; i < nodes.size(); ++i) {
      Status s = source_->ForIndexRun(source_->header_.rank, nodes[i],
                                      nodes[i],
                                      [&](uint32_t rank) { fn(i, rank); });
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  /// Climbs the parent links the records claim. They are untrusted, so
  /// the climb is bounded by the supernode count: a forged cycle is
  /// Corruption, never a hang.
  template <typename Fn>
  Status ForEachAncestor(NodeId v, Fn&& fn) const {
    const uint64_t total = source_->header_.total_supernodes();
    uint64_t iters = 0;
    uint32_t node = v;
    while (node != kInvalidId) {
      if (++iters > total) {
        return Status::Corruption("parent cycle in paged hierarchy");
      }
      const summary::CoverEdge* record = source_->Published(node);
      if (record != nullptr) {
        ++hits_;
      } else {
        Status loaded = Load(node, &record);
        if (!loaded.ok()) return loaded;
      }
      Status s = fn(Handle{node, record});
      if (!s.ok()) return s;
      node = summary::CoverParent(record);
    }
    return Status::OK();
  }

  template <typename Fn>
  Status ForEachCovered(const Handle& node, Fn&& fn) const {
    for (const summary::CoverEdge& e : summary::CoverEdges(node.record)) {
      const EdgeSign sign = e.sign();
      Status s = source_->ForIndexRun(source_->header_.leaf_at, e.lo, e.last(),
                                      [&](NodeId u) { fn(u, sign); });
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  /// Parses fid's record and publishes it, or keeps it until the call
  /// ends when the cap is reached. A failed parse publishes nothing.
  Status Load(uint32_t fid, const summary::CoverEdge** record) const {
    ++misses_;
    uint64_t bytes = 0;
    Status s = source_->ParseRecord(fid, &cells_, &bytes);
    if (!s.ok()) return s;
    auto parsed =
        std::make_unique_for_overwrite<summary::CoverEdge[]>(cells_.size());
    std::copy(cells_.begin(), cells_.end(), parsed.get());
    *record = source_->Publish(fid, &parsed);
    if (*record == nullptr) {
      *record = parsed.get();
      owned_.push_back(std::move(parsed));
    }
    return Status::OK();
  }

  const PagedSummarySource* source_;
  // Parse buffer, and the records parsed past the cap, which the chains
  // of this call may still hold.
  mutable std::vector<summary::CoverEdge> cells_;
  mutable std::vector<std::unique_ptr<summary::CoverEdge[]>> owned_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
};

Status PagedSummarySource::Neighbors(
    NodeId v, summary::QueryScratch* scratch,
    std::span<const summary::NeighborOverride> overrides) const {
  return summary::WalkQuery<false>(Records(this), v, scratch, overrides,
                                   nullptr);
}

StatusOr<uint64_t> PagedSummarySource::Degree(
    NodeId v, summary::QueryScratch* scratch,
    std::span<const summary::NeighborOverride> overrides) const {
  uint64_t degree = 0;
  Status s =
      summary::WalkQuery<true>(Records(this), v, scratch, overrides, &degree);
  if (!s.ok()) return s;
  return degree;
}

Status PagedSummarySource::NeighborsBatch(std::span<const NodeId> nodes,
                                          summary::BatchResult* result,
                                          summary::BatchScratch* scratch)
    const {
  return WalkPagedBatch<false>(Records(this), nodes, result, nullptr,
                               scratch);
}

Status PagedSummarySource::DegreeBatch(std::span<const NodeId> nodes,
                                       std::vector<uint64_t>* degrees,
                                       summary::BatchScratch* scratch) const {
  return WalkPagedBatch<true>(Records(this), nodes, nullptr, degrees,
                              scratch);
}

StatusOr<ChainInfo> PagedSummarySource::ChainOf(NodeId v) const {
  if (v >= header_.num_leaves) return summary::NodeOutOfRange(v);
  ChainInfo info;
  std::vector<summary::CoverEdge> cells;
  Status s = Records(this).ForEachAncestor(v, [&](Records::Handle node) {
    // The layout drops the encoded size; parse the record again for it.
    uint64_t bytes = 0;
    Status parsed = ParseRecord(node.fid, &cells, &bytes);
    if (!parsed.ok()) return parsed;
    info.chain_len++;
    info.chain_bytes += bytes;
    for (const summary::CoverEdge& e : summary::CoverEdges(node.record)) {
      info.num_edges++;
      info.covered_leaves += e.last() - e.lo + 1;
    }
    return Status::OK();
  });
  if (!s.ok()) return s;
  return info;
}

StatusOr<summary::SummaryGraph> PagedSummarySource::Materialize() const {
  // The structural bounds below reject everything the stream itself can
  // contradict, but like the v1 deserializer the declared leaf count has
  // no byte-level bound — surface allocation failure as a Status instead
  // of tearing down the process.
  try {
    return MaterializeImpl();
  } catch (const std::bad_alloc&) {
    return Status::InvalidArgument(
        "paged summary declares more supernodes than memory allows");
  } catch (const std::length_error&) {
    return Status::InvalidArgument(
        "paged summary declares more supernodes than memory allows");
  }
}

StatusOr<summary::SummaryGraph> PagedSummarySource::MaterializeImpl() const {
  const NodeId n = header_.num_leaves;
  const uint64_t total = header_.total_supernodes();
  RecordCursor cur(buffer_.get(), header_, 0);

  std::vector<uint32_t> parent(total, kInvalidId);
  std::vector<uint32_t> lo(total, 0);
  std::vector<uint32_t> len(total, 0);
  std::vector<std::vector<SupernodeId>> pending(header_.num_internal);
  std::vector<uint8_t> seen(total, 0);
  struct DirectedEntry {
    uint32_t a, b;      // a's record listed b
    int8_t sign;
    uint32_t olo, olen; // b's interval as a's record claims it
  };
  std::vector<DirectedEntry> directed;

  for (uint64_t count = 0; count < total; ++count) {
    const uint64_t start = cur.pos();
    uint64_t id = 0, parent_p1 = 0, rlo = 0, rlen = 0, nedges = 0,
             nchildren = 0;
    Status s = cur.Get(&id);
    if (!s.ok()) return s;
    if (id >= total || seen[id]) {
      return Status::Corruption("record id out of range or duplicated");
    }
    seen[id] = 1;
    // Locator agreement: the random-access index must name exactly the
    // position the sequential scan found this record at.
    StatusOr<uint64_t> loc = LocateRecord(static_cast<uint32_t>(id));
    if (!loc.ok()) return loc.status();
    if (loc.value() != start) {
      return Status::Corruption("locator disagrees with record position");
    }
    if (!(s = cur.Get(&parent_p1)).ok()) return s;
    if (parent_p1 != 0) {
      const uint64_t p = parent_p1 - 1;
      if (p >= total || p <= id || p < n) {
        return Status::Corruption("record parent out of range");
      }
      parent[id] = static_cast<uint32_t>(p);
    }
    if (!(s = cur.Get(&rlo)).ok()) return s;
    if (!(s = cur.Get(&rlen)).ok()) return s;
    if (rlen == 0 || rlo > n || rlen > n - rlo) {
      return Status::Corruption("record leaf interval out of range");
    }
    if (id < n && rlen != 1) {
      return Status::Corruption("leaf record must cover one leaf");
    }
    lo[id] = static_cast<uint32_t>(rlo);
    len[id] = static_cast<uint32_t>(rlen);
    if (!(s = cur.Get(&nedges)).ok()) return s;
    if (nedges > cur.remaining() / 3) {
      return Status::Corruption("record edge count exceeds the stream");
    }
    uint64_t prev = 0;
    for (uint64_t i = 0; i < nedges; ++i) {
      uint64_t packed = 0, olo = 0, olen = 0;
      if (!(s = cur.Get(&packed)).ok()) return s;
      const uint64_t delta = packed >> 1;
      if (delta > 0xFFFFFFFFull) {
        return Status::Corruption("edge endpoint delta out of range");
      }
      if (i > 0 && delta == 0) {
        return Status::Corruption("duplicate edge endpoint");
      }
      const uint64_t other = prev + delta;
      prev = other;
      if (other >= total) {
        return Status::Corruption("edge endpoint out of range");
      }
      if (!(s = cur.Get(&olo)).ok()) return s;
      if (!(s = cur.Get(&olen)).ok()) return s;
      if (olen == 0 || olo > n || olen > n - olo) {
        return Status::Corruption("edge endpoint interval out of range");
      }
      directed.push_back(DirectedEntry{
          static_cast<uint32_t>(id), static_cast<uint32_t>(other),
          static_cast<int8_t>((packed & 1) ? +1 : -1),
          static_cast<uint32_t>(olo), static_cast<uint32_t>(olen)});
    }
    if (!(s = cur.Get(&nchildren)).ok()) return s;
    if (id < n) {
      if (nchildren != 0) {
        return Status::Corruption("leaf record with children");
      }
    } else {
      if (nchildren < 2) {
        return Status::Corruption("supernode with <2 children");
      }
      if (nchildren > cur.remaining()) {
        return Status::Corruption("child count exceeds the stream");
      }
      auto& kids = pending[id - n];
      kids.reserve(nchildren);
      uint64_t prev_c = 0;
      for (uint64_t j = 0; j < nchildren; ++j) {
        uint64_t delta = 0;
        if (!(s = cur.Get(&delta)).ok()) return s;
        if (delta > 0xFFFFFFFFull) {
          return Status::Corruption("child delta out of range");
        }
        if (j > 0 && delta == 0) {
          return Status::Corruption("duplicate child");
        }
        const uint64_t child = prev_c + delta;
        prev_c = child;
        if (child >= id) {
          return Status::Corruption("child id out of range (not bottom-up)");
        }
        kids.push_back(static_cast<SupernodeId>(child));
      }
    }
  }
  if (cur.pos() != header_.record_bytes) {
    return Status::Corruption("trailing bytes in record stream");
  }

  // Rebuild the forest with the v1 construction discipline: internal
  // nodes in ascending fid order, Merge on the first two children,
  // AdoptChild for the rest. Fresh ids are sequential, so created id ==
  // fid by construction.
  summary::SummaryGraph summary(n);
  summary.Reserve(static_cast<SupernodeId>(total));
  summary::HierarchyForest& forest = summary.forest();
  std::vector<uint8_t> has_parent(total, 0);
  for (uint32_t i = 0; i < header_.num_internal; ++i) {
    for (SupernodeId c : pending[i]) {
      if (has_parent[c]) return Status::Corruption("node parented twice");
      has_parent[c] = 1;
      if (!forest.IsRoot(c)) return Status::Corruption("child is not a root");
    }
    const SupernodeId m = summary.Merge(pending[i][0], pending[i][1]);
    assert(m == n + i);
    (void)m;
    for (size_t j = 2; j < pending[i].size(); ++j) {
      forest.AdoptChild(m, pending[i][j]);
    }
  }

  // Cross-check the per-record parent and interval claims against the
  // forest the children lists produced — the walk trusts the former, the
  // materialized summary embodies the latter, and they must be one truth.
  for (uint64_t id = 0; id < total; ++id) {
    if (forest.Parent(static_cast<SupernodeId>(id)) != parent[id]) {
      return Status::Corruption("record parent disagrees with children");
    }
    if (forest.Size(static_cast<SupernodeId>(id)) != len[id]) {
      return Status::Corruption("record interval disagrees with subtree size");
    }
  }
  // Laminar check: the children of every internal node partition its
  // interval exactly.
  {
    std::vector<SupernodeId> kids;
    for (uint32_t i = 0; i < header_.num_internal; ++i) {
      const uint64_t id = n + i;
      kids = pending[i];
      std::sort(kids.begin(), kids.end(),
                [&lo](SupernodeId a, SupernodeId b) { return lo[a] < lo[b]; });
      uint32_t at = lo[id];
      for (SupernodeId c : kids) {
        if (lo[c] != at) {
          return Status::Corruption("child intervals do not tile the parent");
        }
        at += len[c];
      }
      if (at != lo[id] + len[id]) {
        return Status::Corruption("child intervals do not tile the parent");
      }
    }
  }
  // The rank and leaf_at sections must agree with the records: rank is
  // the interval start of each leaf, and leaf_at is its inverse.
  if (n > 0) {
    std::vector<uint32_t> ranks;
    ranks.reserve(n);
    Status s = ForIndexRun(header_.rank, 0, n - 1,
                           [&ranks](uint32_t rank) { ranks.push_back(rank); });
    if (!s.ok()) return s;
    if (!std::equal(ranks.begin(), ranks.end(), lo.begin())) {
      return Status::Corruption("rank section disagrees with records");
    }
    uint32_t at = 0;
    bool inverse_ok = true;
    s = ForIndexRun(header_.leaf_at, 0, n - 1, [&](NodeId u) {
      if (ranks[u] != at) inverse_ok = false;
      ++at;
    });
    if (!s.ok()) return s;
    if (!inverse_ok) {
      return Status::Corruption("leaf_at section is not the rank inverse");
    }
  }

  // Superedges: every non-self edge must be listed by both endpoint
  // records with the same sign, self-loops exactly once, endpoint
  // intervals as the records themselves declared.
  for (const DirectedEntry& e : directed) {
    if (e.olo != lo[e.b] || e.olen != len[e.b]) {
      return Status::Corruption("edge interval disagrees with endpoint");
    }
  }
  std::sort(directed.begin(), directed.end(),
            [](const DirectedEntry& x, const DirectedEntry& y) {
              const uint64_t kx =
                  (static_cast<uint64_t>(std::min(x.a, x.b)) << 32) |
                  std::max(x.a, x.b);
              const uint64_t ky =
                  (static_cast<uint64_t>(std::min(y.a, y.b)) << 32) |
                  std::max(y.a, y.b);
              if (kx != ky) return kx < ky;
              return x.a < y.a;
            });
  for (size_t i = 0; i < directed.size();) {
    const DirectedEntry& e = directed[i];
    const SupernodeId a = std::min(e.a, e.b);
    const SupernodeId b = std::max(e.a, e.b);
    size_t j = i;
    while (j < directed.size() &&
           std::min(directed[j].a, directed[j].b) == a &&
           std::max(directed[j].a, directed[j].b) == b) {
      ++j;
    }
    const size_t copies = j - i;
    const bool self = a == b;
    if ((self && copies != 1) || (!self && copies != 2) ||
        (copies == 2 && directed[i].sign != directed[i + 1].sign)) {
      return Status::Corruption("asymmetric superedge listing");
    }
    if (a != b && (forest.IsProperAncestor(a, b) ||
                   forest.IsProperAncestor(b, a))) {
      return Status::Corruption("nested superedge");
    }
    if (summary.GetSign(a, b) != 0) {
      return Status::Corruption("duplicate superedge");
    }
    summary.AddEdge(a, b, e.sign);
    i = j;
  }
  return summary;
}

}  // namespace slugger::storage
