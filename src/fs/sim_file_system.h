// Simulated file system over a latency-modelled disk.
//
// The paper leaves the file system below the block read/write interface
// unchanged (Section 4.2); what matters for IO-Lite is (a) where file data
// lands — directly in IO-Lite buffers, filled by DMA — and (b) the disk
// service time charged on cache misses. Files have deterministic synthetic
// content (regenerated per <file, offset> on each disk read) plus a write
// overlay so write-then-read round-trips return the written bytes.
//
// Metadata is cached in a small "old buffer cache" as in 4.4BSD: the first
// open of a file charges a metadata disk access unless its inode block is
// resident.

#ifndef SRC_FS_SIM_FILE_SYSTEM_H_
#define SRC_FS_SIM_FILE_SYSTEM_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/iolite/aggregate.h"
#include "src/iolite/buffer_pool.h"
#include "src/simos/lru.h"
#include "src/simos/sim_context.h"

namespace iolfs {

using FileId = int64_t;
constexpr FileId kInvalidFile = -1;

class SimFileSystem {
 public:
  // `pool` is the pool disk DMA fills (normally the kernel pool).
  SimFileSystem(iolsim::SimContext* ctx, iolite::BufferPool* pool)
      : ctx_(ctx), pool_(pool) {}

  SimFileSystem(const SimFileSystem&) = delete;
  SimFileSystem& operator=(const SimFileSystem&) = delete;

  // Creates a file of `size` bytes of synthetic content. Returns its id.
  FileId CreateFile(const std::string& name, uint64_t size);

  FileId Lookup(const std::string& name) const;
  uint64_t SizeOf(FileId file) const;
  bool Exists(FileId file) const { return files_.count(file) > 0; }
  size_t file_count() const { return files_.size(); }
  uint64_t total_bytes() const { return total_bytes_; }

  // Charges the metadata access for opening `file` (disk read on a cold
  // inode, free when the inode block is in the metadata buffer cache).
  void TouchMetadata(FileId file);

  // Reads [offset, offset+length) from disk into a fresh IO-Lite buffer.
  // Charges disk service time; the fill itself is DMA (no CPU).
  iolite::BufferRef ReadFromDisk(FileId file, uint64_t offset, size_t length);

  // Writes `data` at `offset` (write-through: disk time charged now). The
  // overlay remembers the bytes so later disk reads return them; the file
  // grows if the write extends past the current end.
  void WriteToDisk(FileId file, uint64_t offset, const iolite::Aggregate& data);

  // Reference content generator: what a disk read of one byte returns.
  // Exposed so tests can validate reads without going through buffers.
  uint8_t ContentByteAt(FileId file, uint64_t offset) const;

 private:
  static constexpr size_t kMetadataCacheSlots = 512;

  struct File {
    std::string name;
    uint64_t size = 0;
    uint64_t content_seed = 0;
    // Sparse write overlay: offset -> written bytes (non-overlapping).
    std::map<uint64_t, std::string> overlay;
  };

  iolsim::SimContext* ctx_;
  iolite::BufferPool* pool_;
  std::unordered_map<FileId, File> files_;
  std::unordered_map<std::string, FileId> by_name_;
  FileId next_file_ = 1;
  uint64_t total_bytes_ = 0;
  // File ids whose metadata is resident, at most kMetadataCacheSlots.
  iolsim::LruList<FileId> metadata_cache_;
};

}  // namespace iolfs

#endif  // SRC_FS_SIM_FILE_SYSTEM_H_
