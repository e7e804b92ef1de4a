#include "dist/manifest.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <utility>

#include "storage/format.hpp"
#include "util/varint.hpp"

namespace slugger::dist {

namespace {

/// Leading bytes of a serialized manifest. Distinct from both summary
/// formats so a mixed-up path fails loudly at the magic, not mid-parse.
constexpr uint8_t kManifestMagic[8] = {'S', 'L', 'G', 'S', 'H', 'R', 'D', '1'};
constexpr uint64_t kManifestVersion = 1;

/// Shard-count ceiling of the serialized format. Far above any
/// in-process deployment (the coordinator dispatches one sub-batch per
/// shard); its job is bounding hostile counts before they size loops.
constexpr uint64_t kMaxShards = 65536;

Status CorruptManifest(const char* what) {
  return Status::Corruption(std::string("shard manifest: ") + what);
}

}  // namespace

ShardManifest::ShardManifest(uint32_t num_shards, uint64_t num_edges,
                             PartitionStrategy strategy,
                             std::vector<uint32_t> node_shard,
                             std::vector<uint64_t> touch_offsets,
                             std::vector<uint32_t> touch_shards,
                             std::vector<ShardStats> shard_stats)
    : num_shards_(num_shards),
      num_edges_(num_edges),
      strategy_(strategy),
      node_shard_(std::move(node_shard)),
      touch_offsets_(std::move(touch_offsets)),
      touch_shards_(std::move(touch_shards)),
      shard_stats_(std::move(shard_stats)) {
  assert(touch_offsets_.size() == node_shard_.size() + 1 ||
         (node_shard_.empty() && touch_offsets_.empty()));
  assert(shard_stats_.size() == num_shards_);
}

double ShardManifest::EdgeSkew() const {
  if (num_shards_ == 0 || num_edges_ == 0) return 1.0;
  uint64_t max_owned = 0;
  for (const ShardStats& s : shard_stats_) {
    max_owned = std::max(max_owned, s.owned_edges);
  }
  const double mean =
      static_cast<double>(num_edges_) / static_cast<double>(num_shards_);
  return static_cast<double>(max_owned) / mean;
}

std::string ShardManifest::Serialize() const {
  std::string out(reinterpret_cast<const char*>(kManifestMagic),
                  sizeof(kManifestMagic));
  PutVarint64(&out, kManifestVersion);
  PutVarint64(&out, num_shards_);
  PutVarint64(&out, node_shard_.size());
  PutVarint64(&out, num_edges_);
  PutVarint64(&out, static_cast<uint64_t>(strategy_));
  for (uint32_t s : node_shard_) PutVarint64(&out, s);
  PutVarint64(&out, touch_shards_.size());
  for (NodeId v = 0; v < node_shard_.size(); ++v) {
    const std::span<const uint32_t> row = TouchSet(v);
    PutVarint64(&out, row.size());
    uint32_t prev = 0;
    for (uint32_t s : row) {
      // Rows are sorted ascending and deduplicated, so consecutive
      // deltas are >= 1 except the first; encode against prev directly.
      PutVarint64(&out, s - prev);
      prev = s;
    }
  }
  for (const ShardStats& s : shard_stats_) {
    PutVarint64(&out, s.num_nodes);
    PutVarint64(&out, s.owned_edges);
    PutVarint64(&out, s.internal_edges);
    PutVarint64(&out, s.boundary_edges);
    PutVarint64(&out, s.total_degree);
  }
  uint8_t sum[8];
  storage::PutLE64(sum, storage::Checksum64(
                            reinterpret_cast<const uint8_t*>(out.data()),
                            out.size()));
  out.append(reinterpret_cast<const char*>(sum), sizeof(sum));
  return out;
}

StatusOr<ShardManifest> ShardManifest::Deserialize(const std::string& bytes) {
  if (bytes.size() < sizeof(kManifestMagic) + 8 ||
      std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return CorruptManifest("bad magic");
  }
  const size_t payload = bytes.size() - 8;
  const uint64_t declared = storage::GetLE64(
      reinterpret_cast<const uint8_t*>(bytes.data()) + payload);
  const uint64_t actual = storage::Checksum64(
      reinterpret_cast<const uint8_t*>(bytes.data()), payload);
  if (declared != actual) return CorruptManifest("checksum mismatch");

  VarintReader reader(bytes.data() + sizeof(kManifestMagic),
                      payload - sizeof(kManifestMagic));
  uint64_t version, num_shards, num_nodes, num_edges, strategy;
  Status st = reader.Get(&version);
  if (!st.ok()) return st;
  if (version != kManifestVersion) return CorruptManifest("unknown version");
  if (!(st = reader.Get(&num_shards)).ok()) return st;
  if (!(st = reader.Get(&num_nodes)).ok()) return st;
  if (!(st = reader.Get(&num_edges)).ok()) return st;
  if (!(st = reader.Get(&strategy)).ok()) return st;
  if (num_shards == 0 || num_shards > kMaxShards) {
    return CorruptManifest("shard count out of range");
  }
  if (num_nodes > kMaxNodes) return CorruptManifest("node count out of range");
  if (strategy > static_cast<uint64_t>(PartitionStrategy::kShingle)) {
    return CorruptManifest("unknown partition strategy");
  }
  // Every remaining field costs at least one encoded byte, so the buffer
  // length bounds all counts below before any of them sizes a vector.
  if (num_nodes > reader.remaining()) {
    return CorruptManifest("node map exceeds buffer");
  }

  std::vector<uint32_t> node_shard(num_nodes);
  for (uint64_t v = 0; v < num_nodes; ++v) {
    uint64_t s;
    if (!(st = reader.Get(&s)).ok()) return st;
    if (s >= num_shards) return CorruptManifest("home shard out of range");
    node_shard[v] = static_cast<uint32_t>(s);
  }

  uint64_t total_touch;
  if (!(st = reader.Get(&total_touch)).ok()) return st;
  if (total_touch > reader.remaining() ||
      total_touch > num_nodes * num_shards) {
    return CorruptManifest("touch-set payload exceeds buffer");
  }
  std::vector<uint64_t> touch_offsets(num_nodes + 1, 0);
  std::vector<uint32_t> touch_shards;
  touch_shards.reserve(total_touch);
  for (uint64_t v = 0; v < num_nodes; ++v) {
    uint64_t row_len;
    if (!(st = reader.Get(&row_len)).ok()) return st;
    if (row_len > num_shards) return CorruptManifest("touch row too long");
    uint64_t prev = 0;
    for (uint64_t i = 0; i < row_len; ++i) {
      uint64_t delta;
      if (!(st = reader.Get(&delta)).ok()) return st;
      if (i > 0 && delta == 0) return CorruptManifest("touch row not sorted");
      prev += delta;
      if (prev >= num_shards) return CorruptManifest("touch shard range");
      touch_shards.push_back(static_cast<uint32_t>(prev));
    }
    touch_offsets[v + 1] = touch_shards.size();
  }
  if (touch_shards.size() != total_touch) {
    return CorruptManifest("touch-set size mismatch");
  }

  std::vector<ShardStats> stats(num_shards);
  for (ShardStats& s : stats) {
    uint64_t* fields[] = {&s.num_nodes, &s.owned_edges, &s.internal_edges,
                          &s.boundary_edges, &s.total_degree};
    for (uint64_t* f : fields) {
      if (!(st = reader.Get(f)).ok()) return st;
    }
  }
  if (!reader.exhausted()) return CorruptManifest("trailing bytes");

  return ShardManifest(static_cast<uint32_t>(num_shards), num_edges,
                       static_cast<PartitionStrategy>(strategy),
                       std::move(node_shard), std::move(touch_offsets),
                       std::move(touch_shards), std::move(stats));
}

Status ShardManifest::Save(const std::string& path) const {
  const std::string bytes = Serialize();
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const int closed = std::fclose(f);
  if (written != bytes.size() || closed != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

StatusOr<ShardManifest> ShardManifest::Load(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::IOError("read failed on " + path);
  return Deserialize(bytes);
}

}  // namespace slugger::dist
