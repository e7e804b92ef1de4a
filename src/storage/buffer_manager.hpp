// Pinned read access to the pages of a v2 file.
//
// Three backends behind one Fetch(page) -> PageRef interface:
//   kMmap    the default: the whole file is mapped read-only once and
//            pages are checksum-verified on first touch (a sticky
//            per-page verified/bad flag), so a warm fetch is two atomic
//            ops and no syscall. The OS page cache is the buffer pool.
//   kPread   bounded fallback for mmap-less environments (and for tests
//            that need a hard residency cap): an LRU frame cache of
//            max_resident_pages pages, loaded with pread and re-verified
//            on every load. A fetch that finds every frame pinned uses an
//            overflow frame, evicted once unpinned: residency stays
//            within max_resident_pages plus the pages pinned right then.
//   kMemory  the file image lives in an owned buffer (OpenBuffer path);
//            verify-once like mmap.
//
// Thread-safety contract: Fetch and PageRef release are safe from any
// number of threads concurrently. The mmap/memory backends are lock-free
// (atomics only); the pread backend serializes on one mutex. A PageRef
// keeps its page's bytes valid and immutable until released — the pread
// backend never evicts a pinned frame (it overflows instead, see above).
// On the verify-once backends a page that passed its checksum stays put
// for the manager's lifetime, so readers that fetched it once may read
// it through stable_image() with no pin at all.
//
// Checksums come from the file's page table; an entry of zero means "not
// covered here" (the header and page-table pages, which the header's own
// checksums cover). A mismatch surfaces as Corruption from Fetch, sticky
// in the verify-once backends.
#ifndef SLUGGER_STORAGE_BUFFER_MANAGER_HPP_
#define SLUGGER_STORAGE_BUFFER_MANAGER_HPP_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.hpp"
#include "util/sync.hpp"

namespace slugger::storage {

/// Which read path backs Fetch.
enum class Io {
  kAuto,   ///< mmap, falling back to pread if the map fails
  kMmap,
  kPread,
  kMemory, ///< internal: whole image owned in memory (OpenBuffer)
};

struct BufferOptions {
  Io io = Io::kAuto;
  /// Frame-cache bound of the pread backend (ignored by mmap/memory,
  /// whose residency is the OS's business). Must be >= 1.
  uint32_t max_resident_pages = 1024;
};

/// Counters for observability and the page-touch accounting tests. All
/// monotonic except resident_pages / pinned_now.
struct BufferStats {
  uint64_t fetches = 0;            ///< Fetch calls that returned a page
  uint64_t faults = 0;             ///< first-touch loads (mmap: first
                                   ///< verify; pread: disk reads)
  uint64_t evictions = 0;          ///< pread frames dropped
  uint64_t checksum_failures = 0;
  uint64_t resident_pages = 0;     ///< pages currently backed by storage
  uint64_t pinned_now = 0;
  uint64_t max_pinned = 0;         ///< high-water mark of pinned_now
};

class BufferManager;

/// Move-only RAII pin on one page. While alive, data() points at
/// page_size immutable bytes.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& o) noexcept { *this = std::move(o); }
  PageRef& operator=(PageRef&& o) noexcept {
    Release();
    mgr_ = o.mgr_;
    page_ = o.page_;
    data_ = o.data_;
    o.mgr_ = nullptr;
    o.data_ = nullptr;
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef() { Release(); }

  const uint8_t* data() const { return data_; }
  uint32_t page() const { return page_; }
  explicit operator bool() const { return data_ != nullptr; }

 private:
  friend class BufferManager;
  PageRef(BufferManager* mgr, uint32_t page, const uint8_t* data)
      : mgr_(mgr), page_(page), data_(data) {}
  void Release();

  BufferManager* mgr_ = nullptr;
  uint32_t page_ = 0;
  const uint8_t* data_ = nullptr;
};

class BufferManager {
 public:
  /// Opens `path` whose length must be page_checksums.size() * page_size.
  /// The checksum vector is the file's page table (entry per page, zero =
  /// skip verification).
  static StatusOr<std::unique_ptr<BufferManager>> OpenFile(
      const std::string& path, uint32_t page_size,
      std::vector<uint64_t> page_checksums, const BufferOptions& options = {});

  /// Wraps an in-memory file image (takes ownership of the bytes).
  static StatusOr<std::unique_ptr<BufferManager>> FromBuffer(
      std::string bytes, uint32_t page_size,
      std::vector<uint64_t> page_checksums);

  ~BufferManager();
  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Pins `page` and returns a ref to its bytes. Corruption on checksum
  /// mismatch, IOError on a failed read, InvalidArgument on an
  /// out-of-range page.
  StatusOr<PageRef> Fetch(uint32_t page);

  uint32_t num_pages() const { return num_pages_; }
  uint32_t page_size() const { return page_size_; }
  Io backend() const { return backend_; }

  /// The whole file image on the verify-once backends (mmap, memory),
  /// page p at offset p * page_size; null on pread. These backends never
  /// move or change a page while the manager lives, so once Fetch has
  /// returned a page, its bytes here may be read without a pin.
  const uint8_t* stable_image() const {
    return backend_ == Io::kPread ? nullptr : map_;
  }

  BufferStats stats() const;

 private:
  friend class PageRef;
  BufferManager() = default;

  void Unpin(uint32_t page) SLUGGER_REQUIRES(!mu_);
  /// Drops the least-recently-used unpinned pread frame; false if every
  /// frame is pinned.
  bool EvictOneUnpinned() SLUGGER_REQUIRES(mu_);
  StatusOr<const uint8_t*> FetchDirect(uint32_t page);  ///< mmap/memory
  StatusOr<const uint8_t*> FetchPread(uint32_t page) SLUGGER_REQUIRES(!mu_);

  Io backend_ = Io::kMemory;
  uint32_t page_size_ = 0;
  uint32_t num_pages_ = 0;
  std::vector<uint64_t> checksums_;

  // kMmap
  const uint8_t* map_ = nullptr;
  size_t map_len_ = 0;
  // kMemory
  std::string owned_;
  // Shared by the verify-once backends: 0 = untouched, 1 = verified,
  // 2 = checksum mismatch (sticky).
  std::unique_ptr<std::atomic<uint8_t>[]> verified_;

  // kPread
  int fd_ = -1;
  uint32_t max_resident_ = 0;
  struct Frame {
    std::unique_ptr<uint8_t[]> data;
    uint32_t pins = 0;
    uint64_t tick = 0;
  };
  Mutex mu_;
  std::unordered_map<uint32_t, Frame> frames_ SLUGGER_GUARDED_BY(mu_);
  uint64_t clock_ SLUGGER_GUARDED_BY(mu_) = 0;

  // Counters (relaxed; exactness only matters within single-threaded
  // accounting tests).
  std::atomic<uint64_t> fetches_{0};
  std::atomic<uint64_t> faults_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  std::atomic<uint64_t> resident_{0};
  std::atomic<uint64_t> pinned_{0};
  std::atomic<uint64_t> max_pinned_{0};
};

}  // namespace slugger::storage

#endif  // SLUGGER_STORAGE_BUFFER_MANAGER_HPP_
