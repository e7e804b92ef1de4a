// slugger::storage — the single persistence entry point for compressed
// graphs. One Save and one Open cover both on-disk formats:
//
//   v1 monolithic  the original varint stream (summary/serialize.hpp);
//                  loading reads and validates the whole file.
//   v2 paged       the page-segmented format of format.hpp; opening is
//                  O(header + page table) and queries fault in only the
//                  pages they touch (see PagedSummarySource).
//
// Open sniffs the leading magic bytes, so callers never say which format
// a file is in — v1 files written by older builds keep loading through
// the same call. Mode selects how a v2 file is served:
//
//   kAuto      v2 files open paged, v1 files load in memory (default;
//              the monolithic format has no page structure to serve from)
//   kInMemory  always materialize (v2 files are fully validated up
//              front, like a v1 load)
//
// All parsing treats the file as untrusted: malformed input surfaces as
// InvalidArgument/Corruption, never a crash.
#ifndef SLUGGER_STORAGE_STORAGE_HPP_
#define SLUGGER_STORAGE_STORAGE_HPP_

#include <cstdint>
#include <string>

#include "api/compressed_graph.hpp"
#include "storage/buffer_manager.hpp"
#include "storage/format.hpp"
#include "util/status.hpp"

namespace slugger::storage {

enum class Format {
  kMonolithicV1,
  kPagedV2,
};

struct SaveOptions {
  Format format = Format::kPagedV2;
  /// Page size of a v2 file: a power of two in
  /// [kMinPageSize, kMaxPageSize]. Ignored by v1.
  uint32_t page_size = kDefaultPageSize;
};

struct OpenOptions {
  enum class Mode {
    kAuto,      ///< v2 paged, v1 in-memory
    kInMemory,  ///< always materialize
  };
  Mode mode = Mode::kAuto;
  /// Read-path knobs of a paged open (ignored for v1 files), as in
  /// PagedOpenOptions: record_cache_capacity caps the records a paged
  /// source publishes, which it keeps until it is destroyed.
  BufferOptions buffer;
  bool eager_verify = false;
  uint32_t record_cache_capacity = 1u << 20;
};

/// Writes `graph` to `path` in the selected format (atomically enough
/// for our purposes: a failed write leaves a partial file that will not
/// open). A paged handle is materialized first; its error propagates.
Status Save(const CompressedGraph& graph, const std::string& path,
            const SaveOptions& options = {});

/// The bytes Save would write, without touching the filesystem.
StatusOr<std::string> Serialize(const CompressedGraph& graph,
                                const SaveOptions& options = {});

/// Opens a summary file of either format (sniffed from the magic).
StatusOr<CompressedGraph> Open(const std::string& path,
                               const OpenOptions& options = {});

/// Same negotiation over an in-memory file image (takes ownership; a
/// paged open serves from the owned buffer, so no file is needed).
StatusOr<CompressedGraph> OpenBuffer(std::string bytes,
                                     const OpenOptions& options = {});

}  // namespace slugger::storage

#endif  // SLUGGER_STORAGE_STORAGE_HPP_
